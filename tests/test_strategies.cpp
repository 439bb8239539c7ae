// Tests for the uniform strategy runner and the paper's qualitative
// orderings between strategies.
#include <gtest/gtest.h>

#include <string>

#include "src/core/lower_bounds.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/strategies.hpp"
#include "test_support.hpp"

namespace ooctree {
namespace {

using core::all_strategies;
using core::run_strategy;
using core::Strategy;
using core::Tree;
using core::Weight;

TEST(Strategies, NamesAreStable) {
  EXPECT_EQ(core::strategy_name(Strategy::kPostOrderMinIo), "PostOrderMinIO");
  EXPECT_EQ(core::strategy_name(Strategy::kOptMinMem), "OptMinMem");
  EXPECT_EQ(core::strategy_name(Strategy::kRecExpand), "RecExpand");
  EXPECT_EQ(core::strategy_name(Strategy::kFullRecExpand), "FullRecExpand");
  EXPECT_EQ(all_strategies().size(), 4u);
  EXPECT_EQ(core::cheap_strategies().size(), 3u);
}

TEST(Strategies, AllProduceValidTraversals) {
  util::Rng rng(701);
  for (int rep = 0; rep < 10; ++rep) {
    const Tree t = test::small_random_tree(30, 40, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    const Weight m = std::max(lb, (lb + peak) / 2);
    for (const Strategy s : all_strategies()) {
      const auto out = run_strategy(s, t, m);
      ASSERT_TRUE(out.evaluation.feasible) << core::strategy_name(s);
      test::expect_valid_traversal(t, out.schedule, out.evaluation.io, m);
      EXPECT_GE(out.io_volume(), core::io_lower_bound_peak_gap(t, m));
    }
  }
}

// run_strategy reuses RecExpand's own FiF evaluation instead of simulating
// again; for every strategy the evaluation it reports must be exactly the
// FiF of the schedule it returns, at binding and non-binding bounds.
TEST(Strategies, EvaluationIsTheFifOfTheSchedule) {
  util::Rng rng(703);
  for (int rep = 0; rep < 12; ++rep) {
    const Tree t = (rep % 2 == 0) ? test::small_random_tree(60, 40, rng)
                                  : test::small_random_wide_tree(60, 40, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    for (const Weight m : {lb, (lb + peak) / 2, peak, 2 * peak}) {
      for (const Strategy s : all_strategies()) {
        const auto out = run_strategy(s, t, m);
        const core::FifResult fif = core::simulate_fif(t, out.schedule, m);
        const std::string label = core::strategy_name(s) + " rep=" + std::to_string(rep) +
                                  " M=" + std::to_string(m);
        EXPECT_EQ(out.evaluation.feasible, fif.feasible) << label;
        EXPECT_EQ(out.evaluation.io, fif.io) << label;
        EXPECT_EQ(out.evaluation.io_volume, fif.io_volume) << label;
        EXPECT_EQ(out.evaluation.peak_resident, fif.peak_resident) << label;
        EXPECT_EQ(out.evaluation.evictions, fif.evictions) << label;
      }
    }
  }
}

TEST(Strategies, ZeroIoAtOptimalPeak) {
  util::Rng rng(709);
  const Tree t = test::small_random_tree(40, 20, rng);
  const Weight peak = core::opt_minmem(t).peak;
  // At M = peak, OptMinMem and the expansion heuristics need no I/O; the
  // postorder strategy may still pay (postorder peak >= optimal peak).
  EXPECT_EQ(run_strategy(Strategy::kOptMinMem, t, peak).io_volume(), 0);
  EXPECT_EQ(run_strategy(Strategy::kRecExpand, t, peak).io_volume(), 0);
  EXPECT_EQ(run_strategy(Strategy::kFullRecExpand, t, peak).io_volume(), 0);
}

TEST(Strategies, RecExpandNeverWorseThanOptMinMemOnAverage) {
  // Section 6: RecExpand improves on OptMinMem in the vast majority of
  // cases and is never dramatically worse. Aggregate check over a batch of
  // mid-memory instances.
  util::Rng rng(719);
  std::int64_t opt_total = 0, rec_total = 0;
  int rec_wins = 0, opt_wins = 0;
  for (int rep = 0; rep < 30; ++rep) {
    const Tree t = test::small_random_tree(60, 50, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    if (peak <= lb) continue;
    const Weight m = (lb + peak) / 2;
    const Weight io_opt = run_strategy(Strategy::kOptMinMem, t, m).io_volume();
    const Weight io_rec = run_strategy(Strategy::kRecExpand, t, m).io_volume();
    opt_total += io_opt;
    rec_total += io_rec;
    rec_wins += (io_rec < io_opt) ? 1 : 0;
    opt_wins += (io_opt < io_rec) ? 1 : 0;
  }
  EXPECT_LE(rec_total, opt_total) << "RecExpand must not lose in aggregate";
  EXPECT_GE(rec_wins, opt_wins);
}

TEST(Strategies, HomogeneousPostorderIsUnbeatable) {
  // Theorem 4: on homogeneous trees no strategy beats PostOrderMinIO.
  util::Rng rng(727);
  for (int rep = 0; rep < 10; ++rep) {
    const Tree t = treegen::uniform_binary_tree_exact(20, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    if (peak <= lb) continue;
    const Weight m = std::max(lb, (lb + peak) / 2);
    const Weight post = run_strategy(Strategy::kPostOrderMinIo, t, m).io_volume();
    for (const Strategy s : all_strategies()) {
      EXPECT_GE(run_strategy(s, t, m).io_volume(), post) << core::strategy_name(s);
    }
  }
}

}  // namespace
}  // namespace ooctree
