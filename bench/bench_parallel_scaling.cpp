// Scaling benchmark for the parallel out-of-core engine: simulate_parallel
// wall-time versus tree size on SYNTH instances at M = 1.1 * LB, sweeping
// the worker count and priority rule (under Belady eviction) plus the
// eviction-policy axis (at the 4-worker critical-path point), measured for
// both the indexed engine (simulate_parallel) and the scan-based test
// oracle (tests/oracles/parallel_reference.hpp).
//
// Writes bench_parallel_scaling.csv (one row per run) and
// bench_parallel_scaling.json (aggregated summary; an explicit copy lives
// at the repository root as BENCH_parallel.json, the baseline that tracks
// the engine from PR 3 onward). The reference engine scans all n nodes per
// eviction round, so it is only timed up to a size cap; indexed timings
// continue to the largest sizes. On every Belady instance where both run,
// the engines are checked against each other — a scaled-up twin of the
// test_parallel_incremental differential suite.
//
// Scales: --scale quick (CI smoke) | default | paper (500..10000 nodes).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "experiment.hpp"
#include "src/parallel/parallel_sim.hpp"
#include "src/service/request.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/util/csv.hpp"
#include "src/util/rng.hpp"
#include "src/util/stopwatch.hpp"
#include "tests/oracles/parallel_reference.hpp"

namespace {

using namespace ooctree;
using core::EvictionPolicy;
using core::Tree;
using core::Weight;
using parallel::ParallelConfig;
using parallel::ParallelResult;
using parallel::Priority;

struct Aggregate {
  std::size_t n = 0;
  int workers = 0;
  Priority priority = Priority::kCriticalPath;
  EvictionPolicy policy = EvictionPolicy::kBelady;
  int depth = 0;  // backfill_depth (0 = unlimited scan)
  double incremental_seconds = 0.0;
  double reference_seconds = 0.0;  // 0 when the reference was not run
  Weight io_volume_total = 0;      // summed over reps (each rep is its own tree)
  double makespan_total = 0.0;
  int reps = 0;
  int ref_reps = 0;

  [[nodiscard]] double speedup() const {
    return ref_reps > 0 && incremental_seconds > 0.0
               ? (reference_seconds / ref_reps) / (incremental_seconds / reps)
               : 0.0;
  }
  [[nodiscard]] double mean_io() const {
    return reps > 0 ? static_cast<double>(io_volume_total) / reps : 0.0;
  }
};

bool identical(const ParallelResult& a, const ParallelResult& b) {
  return a.feasible == b.feasible && a.makespan == b.makespan && a.io_volume == b.io_volume &&
         a.peak_resident == b.peak_resident && a.start_order == b.start_order &&
         a.io == b.io && a.failed_starts == b.failed_starts &&
         a.backfill_scans == b.backfill_scans && a.backfill_hits == b.backfill_hits;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv);

  std::vector<std::size_t> sizes;
  std::size_t reference_cap = 0;  // largest n the scan-based reference is timed at
  int reps = 1;
  const char* scale_name = "default";
  switch (scale) {
    case bench::Scale::kQuick:
      sizes = {500, 1000};
      reference_cap = 1000;
      reps = 1;
      scale_name = "quick";
      break;
    case bench::Scale::kDefault:
      sizes = {500, 1000, 2000, 3000};
      reference_cap = 3000;
      reps = 1;
      break;
    case bench::Scale::kPaper:
      sizes = {500, 1000, 2000, 3000, 5000, 10000};
      reference_cap = 3000;
      reps = 2;
      scale_name = "paper";
      break;
  }
  const std::vector<int> worker_counts{1, 2, 4, 8};
  // The scheduler ablation: sequential-order is the baseline every other
  // priority's makespan column is read against.
  const std::vector<Priority> priorities{Priority::kCriticalPath, Priority::kHeaviestSubtree,
                                         Priority::kSequentialOrder};
  // The policy and backfill-depth axes are swept at the 4-worker
  // critical-path point; kBelady and depth 0 (unlimited) are covered by the
  // workers x priority grid above it (1 = strict priority, 8 = bounded
  // look-ahead here).
  const std::vector<EvictionPolicy> extra_policies{
      EvictionPolicy::kLru, EvictionPolicy::kRandom, EvictionPolicy::kLargestFirst};
  const std::vector<int> extra_depths{1, 8};

  std::printf("== parallel out-of-core scaling: indexed vs reference engine ==\n");
  std::printf("scale=%s  sizes=%zu..%zu  M=1.1*LB  reference timed up to n=%zu\n\n", scale_name,
              sizes.front(), sizes.back(), reference_cap);

  util::CsvWriter csv("bench_parallel_scaling.csv",
                      {"n", "memory", "workers", "priority", "policy", "backfill_depth",
                       "engine", "rep", "seconds", "makespan", "io_volume", "peak_resident",
                       "failed_starts", "backfill_scans", "backfill_hits"});

  std::vector<Aggregate> aggregates;
  for (const std::size_t n : sizes) {
    for (int rep = 0; rep < reps; ++rep) {
      util::Rng rng(770001u + 1000003u * static_cast<std::uint64_t>(n) +
                    17u * static_cast<std::uint64_t>(rep));
      const Tree t = treegen::synth_instance(n, 1, 100, rng);
      const Weight lb = t.min_feasible_memory();
      const Weight memory =
          std::max(lb, static_cast<Weight>(static_cast<double>(lb) * 1.1));

      // One configuration = (workers, priority, policy); kBelady spans the
      // full workers x priority grid, the other policies ride one point.
      struct Combo {
        int workers;
        Priority priority;
        EvictionPolicy policy;
        int depth;
      };
      std::vector<Combo> combos;
      for (const int w : worker_counts)
        for (const Priority p : priorities)
          combos.push_back({w, p, EvictionPolicy::kBelady, 0});
      for (const EvictionPolicy e : extra_policies)
        combos.push_back({4, Priority::kCriticalPath, e, 0});
      for (const int d : extra_depths)
        combos.push_back({4, Priority::kCriticalPath, EvictionPolicy::kBelady, d});

      for (const Combo& combo : combos) {
        ParallelConfig config;
        config.workers = combo.workers;
        config.memory = memory;
        config.priority = combo.priority;
        config.evict = combo.policy;
        config.backfill_depth = combo.depth;

        Aggregate* agg = nullptr;
        for (Aggregate& a : aggregates)
          if (a.n == n && a.workers == combo.workers && a.priority == combo.priority &&
              a.policy == combo.policy && a.depth == combo.depth)
            agg = &a;
        if (agg == nullptr) {
          aggregates.push_back(Aggregate{n, combo.workers, combo.priority, combo.policy,
                                         combo.depth, 0.0, 0.0, 0, 0.0, 0, 0});
          agg = &aggregates.back();
        }

        util::Stopwatch sw;
        const ParallelResult inc = parallel::simulate_parallel(t, config);
        const double inc_seconds = sw.seconds();
        agg->incremental_seconds += inc_seconds;
        agg->io_volume_total += inc.io_volume;
        agg->makespan_total += inc.makespan;
        ++agg->reps;
        const std::string priority = service::priority_name(combo.priority);
        const std::string policy = core::eviction_policy_name(combo.policy);
        csv.row({static_cast<std::int64_t>(n), memory, combo.workers, priority, policy,
                 combo.depth, "incremental", rep, inc_seconds, inc.makespan, inc.io_volume,
                 inc.peak_resident, inc.failed_starts, inc.backfill_scans,
                 inc.backfill_hits});

        if (combo.policy == EvictionPolicy::kBelady && n <= reference_cap) {
          sw.reset();
          const ParallelResult ref = parallel::oracle::simulate_parallel_reference(t, config);
          const double ref_seconds = sw.seconds();
          agg->reference_seconds += ref_seconds;
          ++agg->ref_reps;
          csv.row({static_cast<std::int64_t>(n), memory, combo.workers, priority, policy,
                   combo.depth, "reference", rep, ref_seconds, ref.makespan, ref.io_volume,
                   ref.peak_resident, ref.failed_starts, ref.backfill_scans,
                   ref.backfill_hits});
          if (!identical(inc, ref)) {
            std::printf("DIFFERENTIAL MISMATCH at n=%zu workers=%d priority=%s rep=%d\n", n,
                        combo.workers, priority.c_str(), rep);
            return 1;
          }
        }
      }
    }
  }

  std::printf("%-7s %-3s %-17s %-13s %12s %12s %10s %14s\n", "n", "p", "priority", "policy",
              "inc (s)", "ref (s)", "speedup", "mean io");
  for (const Aggregate& a : aggregates) {
    const double inc = a.incremental_seconds / a.reps;
    const std::string priority = service::priority_name(a.priority);
    const std::string policy = core::eviction_policy_name(a.policy);
    if (a.ref_reps > 0) {
      std::printf("%-7zu %-3d %-17s %-13s %12.4f %12.4f %9.1fx %14.1f\n", a.n, a.workers,
                  priority.c_str(), policy.c_str(), inc, a.reference_seconds / a.ref_reps,
                  a.speedup(), a.mean_io());
    } else {
      std::printf("%-7zu %-3d %-17s %-13s %12.4f %12s %10s %14.1f\n", a.n, a.workers,
                  priority.c_str(), policy.c_str(), inc, "-", "-", a.mean_io());
    }
  }

  // The acceptance configuration of the indexed-engine PR.
  const Aggregate* acceptance = nullptr;
  for (const Aggregate& a : aggregates)
    if (a.n == 3000 && a.workers == 4 && a.priority == Priority::kCriticalPath &&
        a.policy == EvictionPolicy::kBelady && a.depth == 0 && a.ref_reps > 0)
      acceptance = &a;

  // Written under a generated name (gitignored, like the CSV) so a casual
  // run from the repo root cannot clobber the committed baseline; updating
  // BENCH_parallel.json at the repo root is an explicit copy.
  std::FILE* json = std::fopen("bench_parallel_scaling.json", "w");
  if (json == nullptr) {
    std::printf("cannot write bench_parallel_scaling.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"parallel_scaling\",\n  \"scale\": \"%s\",\n", scale_name);
  std::fprintf(json, "  \"dataset\": \"SYNTH (uniform binary, weights 1..100), M = 1.1*LB\",\n");
  std::fprintf(json, "  \"results\": [\n");
  for (std::size_t k = 0; k < aggregates.size(); ++k) {
    const Aggregate& a = aggregates[k];
    std::fprintf(json,
                 "    {\"n\": %zu, \"workers\": %d, \"priority\": \"%s\", \"policy\": \"%s\", "
                 "\"backfill_depth\": %d, "
                 "\"incremental_seconds\": %.6f, \"reference_seconds\": %s, "
                 "\"speedup\": %s, \"mean_io_volume\": %.2f, \"mean_makespan\": %.2f, "
                 "\"reps\": %d}%s\n",
                 a.n, a.workers, service::priority_name(a.priority).c_str(),
                 core::eviction_policy_name(a.policy).c_str(), a.depth,
                 a.incremental_seconds / a.reps,
                 a.ref_reps > 0 ? std::to_string(a.reference_seconds / a.ref_reps).c_str()
                                : "null",
                 a.ref_reps > 0 ? std::to_string(a.speedup()).c_str() : "null", a.mean_io(),
                 a.makespan_total / a.reps, a.reps, k + 1 < aggregates.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  if (acceptance != nullptr) {
    std::fprintf(json,
                 "  \"acceptance\": {\"n\": 3000, \"workers\": 4, \"priority\": "
                 "\"critical-path\", \"policy\": \"Belady\", \"ratio\": 1.10, "
                 "\"speedup\": %.2f, \"threshold\": 5.0, \"pass\": %s}\n",
                 acceptance->speedup(), acceptance->speedup() >= 5.0 ? "true" : "false");
  } else {
    std::fprintf(json, "  \"acceptance\": null\n");
  }
  std::fprintf(json, "}\n");
  std::fclose(json);

  if (acceptance != nullptr) {
    std::printf("\nacceptance (n=3000, 4 workers, critical-path, Belady, M=1.1*LB): "
                "%.1fx speedup (threshold 5x) — %s\n",
                acceptance->speedup(), acceptance->speedup() >= 5.0 ? "PASS" : "FAIL");
  }
  std::printf("results written to bench_parallel_scaling.csv and bench_parallel_scaling.json\n");
  std::printf("(to refresh the committed baseline: cp bench_parallel_scaling.json "
              "<repo>/BENCH_parallel.json)\n");
  return 0;
}
