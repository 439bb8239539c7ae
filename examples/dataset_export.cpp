// dataset_export: materialize the benchmark datasets as files.
//
//   $ ./dataset_export --out ./datasets [--synth 20] [--nodes 3000]
//                      [--trees-scale 1] [--mtx]
//
// Writes SYNTH instances as .tree files, the TREES instances as .tree
// files (and optionally the underlying matrices as .mtx), plus a stats.csv
// with the structural metrics of every instance (nodes, depth, leaves, LB,
// in-core peak). This gives downstream users the exact inputs behind the
// figures without linking against the library.
#include <cstdio>
#include <exception>
#include <filesystem>

#include "src/core/minmem_optimal.hpp"
#include "src/core/tree_io.hpp"
#include "src/sparse/dataset.hpp"
#include "src/sparse/generators.hpp"
#include "src/sparse/matrix_market.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/util/args.hpp"
#include "src/util/csv.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ooctree;
  using core::Weight;

  const auto args =
      util::Args::parse(argc, argv, {"out", "synth", "nodes", "trees-scale", "mtx"});
  const std::string out_dir = args.get("out", "./datasets");
  const int synth_count = static_cast<int>(args.get_int("synth", 20));
  const auto nodes = static_cast<std::size_t>(args.get_int("nodes", 3000));
  const int trees_scale = static_cast<int>(args.get_int("trees-scale", 1));

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(), ec.message().c_str());
    return 1;
  }

  util::CsvWriter stats(out_dir + "/stats.csv",
                        {"name", "family", "nodes", "depth", "leaves", "total_weight", "lb",
                         "incore_peak"});
  const auto describe = [&](const std::string& name, const std::string& family,
                            const core::Tree& t) {
    std::size_t leaves = 0;
    for (std::size_t v = 0; v < t.size(); ++v)
      leaves += t.is_leaf(static_cast<core::NodeId>(v)) ? 1 : 0;
    stats.row({name, family, t.size(), t.depth(), leaves, t.total_weight(),
               t.min_feasible_memory(), core::opt_minmem_peak(t, t.root())});
  };

  // SYNTH instances.
  util::Rng rng(20170208);
  for (int i = 0; i < synth_count; ++i) {
    const core::Tree t = treegen::synth_instance(nodes, 1, 100, rng);
    const std::string name = "synth_" + std::to_string(i);
    core::save_tree(out_dir + "/" + name + ".tree", t);
    describe(name, "synth", t);
  }
  std::printf("wrote %d SYNTH trees (%zu nodes each)\n", synth_count, nodes);

  // TREES instances.
  sparse::DatasetOptions opts;
  opts.scale = trees_scale;
  const auto data = sparse::make_trees_dataset(opts);
  for (const auto& inst : data) {
    core::save_tree(out_dir + "/" + inst.name + ".tree", inst.tree);
    describe(inst.name, "trees", inst.tree);
  }
  std::printf("wrote %zu TREES instances (scale %d)\n", data.size(), trees_scale);

  // Optional: a sample matrix in Matrix Market format for the mtx path.
  if (args.has("mtx")) {
    sparse::save_matrix_market(out_dir + "/grid2d_60.mtx", sparse::grid2d(60, 60));
    std::printf("wrote grid2d_60.mtx\n");
  }

  std::printf("stats: %s/stats.csv\n", out_dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
