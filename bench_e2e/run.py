#!/usr/bin/env python3
"""End-to-end plan-server benchmark.

Builds bench_e2e/ (a CMake project over the repository's src/ tree) into
.bench_build/ and runs one measured window of one workload:

    python3 bench_e2e/run.py --workload cold-plan --seed 1 --seconds 10 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object {correct, attempted, failed, metrics}; build logs and a
readable summary go to standard error. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones (see BENCHMARK.json and
bench_e2e/interactions.json).

io_volume_sum is deterministic for a (workload, seed, binary), so every
run records it in .bench_build/ledger.json and fails when a repeat of the
same triple reports a different value.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def build() -> Path:
    if not (ROOT / "src").is_dir():
        raise SystemExit("bench_e2e: no src/ tree next to bench_e2e/; nothing to build")
    cmake_dir = BUILD / "cmake"
    steps = [["cmake", "--build", str(cmake_dir), "-j", "4"]]
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(ROOT / "bench_e2e"), "-B", str(cmake_dir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("bench_e2e: build failed: " + " ".join(step))
    return cmake_dir / "bench_e2e"


def check_ledger(binary: Path, workload: str, seed: int, result: dict) -> bool:
    metric = result.get("metrics", {}).get("io_volume_sum")
    if metric is None:
        return True
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    key = f"{workload}:{seed}:{digest}"
    path = BUILD / "ledger.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    if key in ledger and ledger[key] != metric["value"]:
        print(f"bench_e2e: io_volume_sum {metric['value']} differs from {ledger[key]} "
              f"of an earlier run of {key}", file=sys.stderr)
        return False
    ledger[key] = metric["value"]
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench_e2e: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if not check_ledger(binary, args.workload, args.seed, result):
        result["correct"] = False
    print(json.dumps(result))
    return proc.returncode if result["correct"] else (proc.returncode or 1)


if __name__ == "__main__":
    sys.exit(main())
