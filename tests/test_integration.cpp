// Cross-module integration tests: the full pipeline from matrices to
// scheduled out-of-core executions, mirroring what the benchmark harnesses
// do at small scale.
#include <gtest/gtest.h>

#include "src/core/lower_bounds.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/perf_profile.hpp"
#include "src/core/strategies.hpp"
#include "src/sparse/assembly_tree.hpp"
#include "src/sparse/generators.hpp"
#include "src/sparse/ordering.hpp"
#include "src/util/thread_pool.hpp"
#include "test_support.hpp"

namespace ooctree {
namespace {

using core::Strategy;
using core::Tree;
using core::Weight;

TEST(Integration, GridToScheduledExecution) {
  // grid -> ND ordering -> assembly tree -> mid-memory bound -> all
  // strategies produce valid executions whose pager replay agrees.
  const auto g = sparse::grid2d(20, 20);
  const Tree t = sparse::assembly_tree_ordered(g, sparse::nested_dissection_2d(20, 20));
  const Weight lb = t.min_feasible_memory();
  const Weight peak = core::opt_minmem(t).peak;
  ASSERT_GT(peak, lb) << "instance must be I/O-bound for the test to bite";
  const Weight m = (lb + peak - 1) / 2;
  for (const Strategy s : core::all_strategies()) {
    const auto out = core::run_strategy(s, t, m);
    ASSERT_TRUE(out.evaluation.feasible);
    test::expect_valid_traversal(t, out.schedule, out.evaluation.io, m);
    // Unit-page Belady replay must agree with the analytic evaluation.
    const auto replay = test::sequential_paged_replay(t, out.schedule, m);
    ASSERT_TRUE(replay.base.feasible);
    EXPECT_EQ(replay.pages_written, out.evaluation.io_volume) << core::strategy_name(s);
  }
}

TEST(Integration, PaperMemoryBoundsOrdering) {
  // On every instance: I/O at M1 = LB >= I/O at Mmid >= I/O at M2 = Peak-1,
  // for every strategy (monotonicity of the whole pipeline).
  util::Rng rng(1001);
  for (int rep = 0; rep < 6; ++rep) {
    const Tree t = treegen::synth_instance(120, 1, 100, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    if (peak <= lb) continue;
    const Weight mid = (lb + peak - 1) / 2;
    for (const Strategy s : core::cheap_strategies()) {
      const Weight io_m1 = core::run_strategy(s, t, lb).io_volume();
      const Weight io_mid = core::run_strategy(s, t, std::max(lb, mid)).io_volume();
      const Weight io_m2 = core::run_strategy(s, t, peak - 1).io_volume();
      EXPECT_GE(io_m1, io_mid) << core::strategy_name(s);
      EXPECT_GE(io_mid, io_m2) << core::strategy_name(s);
    }
  }
}

TEST(Integration, MiniPerformanceProfileRun) {
  // A miniature Figure-4 run: 12 SYNTH instances, three strategies, the
  // profile computation must rank RecExpand at least as high as OptMinMem
  // at every overhead threshold.
  util::Rng rng(1009);
  std::vector<core::AlgorithmPerformance> algos;
  for (const Strategy s : core::cheap_strategies())
    algos.push_back({core::strategy_name(s), {}});
  int instances = 0;
  while (instances < 12) {
    const Tree t = treegen::synth_instance(150, 1, 100, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    if (peak <= lb) continue;
    const Weight m = std::max(lb, (lb + peak - 1) / 2);
    for (std::size_t a = 0; a < algos.size(); ++a) {
      const auto out = core::run_strategy(core::cheap_strategies()[a], t, m);
      algos[a].performance.push_back(core::io_performance(m, out.io_volume()));
    }
    ++instances;
  }
  const auto curves = core::performance_profiles(algos);
  ASSERT_EQ(curves.size(), 3u);
  // RecExpand (index 1) dominates OptMinMem (index 0) pointwise.
  for (const double tau : {0.0, 0.01, 0.05, 0.2, 1.0}) {
    EXPECT_GE(core::profile_at(curves[1], tau) + 1e-12, core::profile_at(curves[0], tau))
        << "tau=" << tau;
  }
}

TEST(Integration, ParallelStrategyEvaluationIsDeterministic) {
  // The bench harnesses fan instances across a thread pool; results must
  // not depend on scheduling.
  util::Rng rng(1013);
  std::vector<Tree> trees;
  for (int i = 0; i < 8; ++i) trees.push_back(treegen::synth_instance(100, 1, 50, rng));
  std::vector<Weight> serial(trees.size()), parallel_io(trees.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    const Weight m = trees[i].min_feasible_memory() + 5;
    serial[i] = core::run_strategy(Strategy::kRecExpand, trees[i], m).io_volume();
  }
  util::parallel_for(trees.size(), [&](std::size_t i) {
    const Weight m = trees[i].min_feasible_memory() + 5;
    parallel_io[i] = core::run_strategy(Strategy::kRecExpand, trees[i], m).io_volume();
  });
  EXPECT_EQ(serial, parallel_io);
}

TEST(Integration, LowerBoundsHoldAcrossThePipeline) {
  const auto g = sparse::grid2d(14, 14);
  for (const bool amalg : {false, true}) {
    sparse::AssemblyOptions opts;
    opts.amalgamate = amalg;
    const Tree t = sparse::assembly_tree_ordered(g, sparse::minimum_degree(g), opts);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    if (peak <= lb) continue;
    const Weight m = (lb + peak - 1) / 2;
    const Weight bound = core::io_lower_bound_peak_gap(t, m);
    for (const Strategy s : core::all_strategies())
      EXPECT_GE(core::run_strategy(s, t, m).io_volume(), bound) << core::strategy_name(s);
  }
}

}  // namespace
}  // namespace ooctree
