// spill_timeline: visualize an out-of-core execution step by step.
//
//   $ ./spill_timeline [--nodes 30] [--seed 7] [--fraction 0.6]
//                      [--strategy recexpand] [--latency 1e-4] [--bandwidth 1e9]
//
// Plans a random tree under a reduced memory bound, prints the execution
// timeline (resident-memory bar + write/read annotations per step), and
// estimates wall-clock I/O time under a simple disk model — the "what will
// this actually do to my run time" view of a spill plan.
#include <cstdio>
#include <exception>

#include "src/core/minmem_optimal.hpp"
#include "src/core/strategies.hpp"
#include "src/iosim/trace.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/util/args.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ooctree;
  using core::Weight;

  const auto args = util::Args::parse(
      argc, argv, {"nodes", "seed", "fraction", "strategy", "latency", "bandwidth"});
  const auto n = static_cast<std::size_t>(args.get_int("nodes", 30));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const double fraction = args.get_double("fraction", 0.6);

  util::Rng rng(seed);
  const core::Tree tree = treegen::synth_instance(n, 1, 100, rng);
  const Weight lb = tree.min_feasible_memory();
  const Weight peak = core::opt_minmem_peak(tree, tree.root());
  const Weight memory =
      std::max(lb, static_cast<Weight>(static_cast<double>(peak) * fraction));
  std::printf("tree: %zu nodes, LB %lld, in-core peak %lld, M = %lld\n\n", tree.size(),
              (long long)lb, (long long)peak, (long long)memory);

  const std::string strategy_name = args.get("strategy", "recexpand");
  const core::Strategy strategy = strategy_name == "postorder"
                                      ? core::Strategy::kPostOrderMinIo
                                      : (strategy_name == "optminmem"
                                             ? core::Strategy::kOptMinMem
                                             : core::Strategy::kRecExpand);
  const auto plan = core::run_strategy(strategy, tree, memory);

  const auto trace = iosim::trace_execution(tree, plan.schedule, memory);
  std::printf("%s\n", iosim::format_trace(tree, trace, memory).c_str());

  iosim::DiskModel disk;
  disk.latency_s = args.get_double("latency", 1e-4);
  disk.bandwidth_per_s = args.get_double("bandwidth", 1e9);
  std::printf("disk model: %.1e s latency, %.1e units/s bandwidth -> I/O time %.6f s\n",
              disk.latency_s, disk.bandwidth_per_s, iosim::io_time(trace, disk));
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
