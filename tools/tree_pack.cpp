// tree_pack — converts any tree source into a binary .otree snapshot.
//
//   tree_pack --in forest.tree --out forest.otree          # text format
//   tree_pack --in matrix.mtx --out matrix.otree           # multifrontal
//   tree_pack --synth 1000000 --seed 7 --out big.otree     # generator spec
//   tree_pack --probe big.otree                            # header dump
//
// Snapshots load by mmap with zero parsing (core/snapshot.hpp), so packing
// once turns a multi-second text parse into a constant-time map — the
// intended workflow for the 10^6-node instances bench_snapshot_scale runs.
#include <cstdio>
#include <exception>
#include <string>

#include "src/core/snapshot.hpp"
#include "src/core/tree.hpp"
#include "src/core/tree_io.hpp"
#include "src/sparse/assembly_tree.hpp"
#include "src/sparse/matrix_market.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/util/args.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace ooctree;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void usage(const std::string& program) {
  std::printf(
      "usage: %s --in FILE | --synth N [options] --out FILE.otree\n"
      "       %s --probe FILE.otree\n"
      "\n"
      "  --in FILE        input tree: .mtx (multifrontal assembly tree) or\n"
      "                   '<parent> <weight>' text (core/tree_io.hpp)\n"
      "  --synth N        generate an N-node SYNTH instance instead\n"
      "  --w-lo W         SYNTH minimum weight (default 1)\n"
      "  --w-hi W         SYNTH maximum weight (default 100)\n"
      "  --seed S         SYNTH generator seed (default 20170208)\n"
      "  --model M        memory model: max (default) or sum\n"
      "  --out FILE       .otree snapshot to write\n"
      "  --probe FILE     validate a snapshot and print its header\n",
      program.c_str(), program.c_str());
}

int run(const util::Args& args) {
  if (args.has("help")) {
    usage(args.program());
    return 0;
  }

  if (args.has("probe")) {
    const std::string path = args.get("probe", "");
    const core::SnapshotInfo info = core::probe_snapshot(path);
    std::printf("snapshot   %s\n", path.c_str());
    std::printf("nodes      %llu\n", static_cast<unsigned long long>(info.nodes));
    std::printf("model      %s\n", info.model == core::MemoryModel::kSumInOut ? "sum" : "max");
    std::printf("root       %d\n", info.root);
    std::printf("max_wbar   %lld\n", static_cast<long long>(info.max_wbar));
    std::printf("total_w    %lld\n", static_cast<long long>(info.total_weight));
    std::printf("tree_hash  %016llx\n", static_cast<unsigned long long>(info.tree_hash));
    return 0;
  }

  const std::string out = args.get("out", "");
  if (out.empty()) {
    usage(args.program());
    return 2;
  }
  const std::string model_name = args.get("model", "max");
  const core::MemoryModel model =
      model_name == "sum" ? core::MemoryModel::kSumInOut : core::MemoryModel::kMaxInOut;

  core::Tree tree = [&] {
    if (args.has("synth")) {
      const auto n = static_cast<std::size_t>(args.get_int("synth", 0));
      util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 20170208)));
      return treegen::synth_instance(n, args.get_int("w-lo", 1), args.get_int("w-hi", 100), rng);
    }
    const std::string in = args.get("in", "");
    if (in.empty()) throw std::runtime_error("tree_pack: need --in FILE or --synth N");
    if (ends_with(in, ".mtx")) return sparse::mtx_assembly_tree(sparse::load_matrix_market(in));
    if (ends_with(in, ".otree")) return core::load_snapshot(in);  // re-pack / model change
    return core::load_tree(in);
  }();
  if (tree.memory_model() != model) tree = tree.with_memory_model(model);

  core::save_snapshot(out, tree);
  std::printf("packed %zu nodes -> %s (hash %016llx)\n", tree.size(), out.c_str(),
              static_cast<unsigned long long>(tree.canonical_hash()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Args::parse(
        argc, argv, {"in", "out", "synth", "w-lo", "w-hi", "seed", "model", "probe", "help"}));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tree_pack: %s\n", e.what());
    return 1;
  }
}
