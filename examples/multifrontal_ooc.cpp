// Multifrontal out-of-core demo: the paper's motivating application.
//
//   $ ./multifrontal_ooc [--grid 60] [--ordering nd|md|rcm] [--fraction 0.5]
//
// Builds a 2D Laplacian, runs the full symbolic-analysis pipeline
// (fill-reducing ordering -> elimination tree -> column counts -> assembly
// tree with supernode amalgamation), then plans an out-of-core
// factorization under a memory budget that is a fraction of the in-core
// peak, comparing the paper's strategies and replaying the winner through
// the paged engine at one worker (the sequential page-granular replay).
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "src/core/minmem_optimal.hpp"
#include "src/core/strategies.hpp"
#include "src/parallel/parallel_sim.hpp"
#include "src/sparse/assembly_tree.hpp"
#include "src/sparse/etree.hpp"
#include "src/sparse/generators.hpp"
#include "src/sparse/ordering.hpp"
#include "src/util/args.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ooctree;
  using core::Weight;

  const auto args = util::Args::parse(argc, argv, {"grid", "ordering", "fraction"});
  const auto k = static_cast<sparse::Index>(args.get_int("grid", 60));
  const std::string ordering = args.get("ordering", "nd");
  const double fraction = args.get_double("fraction", 0.5);

  std::printf("== multifrontal out-of-core planning ==\n");
  std::printf("matrix: %d x %d grid Laplacian (n = %d)\n", k, k, k * k);

  const sparse::SymPattern pattern = sparse::grid2d(k, k);
  std::vector<sparse::Index> perm;
  if (ordering == "nd") {
    perm = sparse::nested_dissection_2d(k, k);
  } else if (ordering == "md") {
    perm = sparse::minimum_degree(pattern);
  } else if (ordering == "rcm") {
    perm = sparse::reverse_cuthill_mckee(pattern);
  } else {
    std::fprintf(stderr, "unknown --ordering %s (want nd|md|rcm)\n", ordering.c_str());
    return 1;
  }

  const sparse::SymPattern permuted = pattern.permuted(perm);
  const auto etree_parent = sparse::elimination_tree(permuted);
  const auto counts = sparse::column_counts(permuted, etree_parent);
  std::printf("ordering: %s; factor nnz = %lld\n", ordering.c_str(),
              (long long)sparse::factor_nnz(counts));

  const core::Tree tree = sparse::assembly_tree(permuted);
  std::printf("assembly tree: %zu supernodal tasks, depth %zu\n", tree.size(), tree.depth());

  const Weight lb = tree.min_feasible_memory();
  const Weight peak = core::opt_minmem_peak(tree, tree.root());
  const Weight memory =
      std::max(lb, static_cast<Weight>(static_cast<double>(peak) * fraction));
  std::printf("in-core peak %lld; LB %lld; planning with M = %lld (%.0f%% of peak)\n\n",
              (long long)peak, (long long)lb, (long long)memory, fraction * 100);

  if (peak <= memory) {
    std::printf("the whole factorization fits in memory: no I/O needed.\n");
    return 0;
  }

  core::Strategy best = core::Strategy::kOptMinMem;
  Weight best_io = -1;
  for (const core::Strategy s : core::cheap_strategies()) {
    const auto out = core::run_strategy(s, tree, memory);
    std::printf("  %-16s writes %10lld units (%.2f%% of factor traffic)\n",
                core::strategy_name(s).c_str(), (long long)out.io_volume(),
                100.0 * static_cast<double>(out.io_volume()) /
                    static_cast<double>(tree.total_weight()));
    if (best_io < 0 || out.io_volume() < best_io) {
      best_io = out.io_volume();
      best = s;
    }
  }

  // Replay the winner with a realistic page size: one worker following the
  // plan's order, strict priority, Belady eviction.
  const auto plan = core::run_strategy(best, tree, memory);
  parallel::PagedParallelConfig config;
  config.page_size = std::max<Weight>(1, memory / 1024);  // ~1Ki frames
  config.base.workers = 1;
  config.base.priority = parallel::Priority::kSequentialOrder;
  config.base.backfill_depth = 1;
  config.base.evict = core::EvictionPolicy::kBelady;
  // Per-child page rounding can push a single task's working set past
  // memory/page frames; grant the replay the rounded-up minimum.
  config.base.memory = std::max(
      memory, parallel::min_feasible_frames(tree, config.page_size) * config.page_size);
  const auto replay = parallel::simulate_parallel_paged(tree, config, plan.schedule);
  if (!replay.base.feasible) throw std::runtime_error("pager replay infeasible");
  std::printf("\nwinner: %s; pager replay (page = %lld units): %lld pages written,"
              " %lld read back, peak %lld frames\n",
              core::strategy_name(best).c_str(), (long long)config.page_size,
              (long long)replay.pages_written, (long long)replay.pages_read,
              (long long)replay.peak_frames_used);
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
