// Tests for the RecExpand / FullRecExpand heuristics (Section 5).
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/core/brute_force.hpp"
#include "src/core/fif_simulator.hpp"
#include "src/core/lower_bounds.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/rec_expand.hpp"
#include "src/treegen/paper_trees.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/treegen/shapes.hpp"
#include "src/treegen/weights.hpp"
#include "test_support.hpp"

namespace ooctree {
namespace {

using core::full_rec_expand;
using core::rec_expand2;
using core::RecExpandResult;
using core::Tree;
using core::Weight;

TEST(RecExpand, NoExpansionWhenMemoryIsAmple) {
  util::Rng rng(501);
  for (int rep = 0; rep < 20; ++rep) {
    const Tree t = test::small_random_tree(12, 10, rng);
    const Weight peak = core::opt_minmem(t).peak;
    const RecExpandResult r = full_rec_expand(t, peak);
    EXPECT_EQ(r.expansions, 0u);
    EXPECT_EQ(r.evaluation.io_volume, 0);
    EXPECT_EQ(r.final_peak, peak);
  }
}

// At or above the OptMinMem peak nothing is expanded, and both variants
// return OptMinMem's own schedule unchanged: the path that never makes an
// expanded copy. Its evaluation is the FiF of that schedule, field for
// field, and that FiF is the same at every such bound; together they let a
// fused service group answer these bounds from one shared OptMinMem pass.
// Covers binary and high fan-in random trees, SYNTH trees at service
// sizes, a caterpillar and a spider, equal weights (ties everywhere) and
// both memory models.
TEST(RecExpand, NoExpansionReturnsOptMinMemSchedule) {
  const auto expect_same_fif = [](const core::FifResult& a, const core::FifResult& b) {
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.io, b.io);
    EXPECT_EQ(a.io_volume, b.io_volume);
    EXPECT_EQ(a.peak_resident, b.peak_resident);
    EXPECT_EQ(a.evictions, b.evictions);
  };
  const auto check = [&](const Tree& t, const std::string& label) {
    const core::OptMinMemResult opt = core::opt_minmem(t);
    const core::FifResult at_peak = core::simulate_fif(t, opt.schedule, opt.peak);
    for (const Weight m : {opt.peak, opt.peak + 1, 2 * opt.peak}) {
      SCOPED_TRACE(label + " M=" + std::to_string(m));
      // Memory never binds on the OptMinMem schedule at or above its peak,
      // so its FiF is the same for every such bound.
      const core::FifResult fif = core::simulate_fif(t, opt.schedule, m);
      expect_same_fif(fif, at_peak);
      for (const bool full : {false, true}) {
        SCOPED_TRACE(full ? "FullRecExpand" : "RecExpand");
        const RecExpandResult r = full ? full_rec_expand(t, m) : rec_expand2(t, m);
        EXPECT_EQ(r.expansions, 0u);
        EXPECT_EQ(r.expansion_volume, 0);
        EXPECT_EQ(r.schedule, opt.schedule);
        EXPECT_EQ(r.final_peak, opt.peak);
        EXPECT_EQ(r.evaluation.io_volume, 0);
        EXPECT_TRUE(r.evaluation.feasible);
        expect_same_fif(r.evaluation, fif);
      }
    }
  };

  util::Rng rng(509);
  for (int rep = 0; rep < 24; ++rep) {
    const std::size_t n = rep < 12 ? 30 : 400;
    Tree t = (rep % 2 == 0) ? test::small_random_tree(n, 50, rng)
                            : test::small_random_wide_tree(n, 50, rng);
    if (rep % 3 == 0) t = treegen::with_constant_weights(t, 1);
    if (rep % 4 >= 2) t = t.with_memory_model(core::MemoryModel::kSumInOut);
    check(t, "rep=" + std::to_string(rep));
  }

  const std::pair<const char*, Tree> shapes[] = {
      {"synth2000", treegen::synth_instance(2000, 1, 100, rng)},
      {"synth4000", treegen::synth_instance(4000, 1, 100, rng)},
      {"caterpillar",
       treegen::with_uniform_weights(treegen::caterpillar_tree(500, 3, 1), 1, 100, rng)},
      {"spider", treegen::with_uniform_weights(treegen::spider_tree(12, 160, 1), 1, 100, rng)}};
  for (const auto& [name, shape] : shapes)
    for (const auto model : {core::MemoryModel::kMaxInOut, core::MemoryModel::kSumInOut})
      check(shape.with_memory_model(model),
            std::string(name) + (model == core::MemoryModel::kSumInOut ? " sum" : " max"));
}

TEST(RecExpand, ProducesValidTraversals) {
  util::Rng rng(503);
  for (int rep = 0; rep < 30; ++rep) {
    const Tree t = (rep % 2 == 0) ? test::small_random_tree(12, 10, rng)
                                  : test::small_random_wide_tree(12, 10, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    for (const Weight m : {lb, (lb + peak) / 2}) {
      for (const bool full : {false, true}) {
        const RecExpandResult r = full ? full_rec_expand(t, m) : rec_expand2(t, m);
        ASSERT_TRUE(r.evaluation.feasible);
        test::expect_valid_traversal(t, r.schedule, r.evaluation.io, m);
      }
    }
  }
}

TEST(RecExpand, FullVariantFitsExpandedTreeInMemory) {
  // FullRecExpand iterates until the expanded tree schedules without I/O,
  // so its final peak is at most M and the FiF evaluation of the mapped
  // schedule never exceeds the expanded volume (Theorem 1).
  util::Rng rng(509);
  for (int rep = 0; rep < 25; ++rep) {
    const Tree t = test::small_random_tree(10, 12, rng);
    const Weight m = t.min_feasible_memory() + 1;
    const RecExpandResult r = full_rec_expand(t, m);
    EXPECT_LE(r.final_peak, m);
    EXPECT_LE(r.evaluation.io_volume, r.expansion_volume);
  }
}

TEST(RecExpand, RespectsLowerBounds) {
  util::Rng rng(521);
  for (int rep = 0; rep < 30; ++rep) {
    const Tree t = test::small_random_tree(11, 10, rng);
    const Weight m = t.min_feasible_memory() + 1;
    const Weight bound = core::io_lower_bound_peak_gap(t, m);
    EXPECT_GE(full_rec_expand(t, m).evaluation.io_volume, bound);
    EXPECT_GE(rec_expand2(t, m).evaluation.io_volume, bound);
  }
}

TEST(RecExpand, NeverBelowBruteForceOptimum) {
  util::Rng rng(523);
  for (int rep = 0; rep < 25; ++rep) {
    const Tree t = test::small_random_tree(8, 8, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    if (peak == lb) continue;
    const Weight m = (lb + peak) / 2;
    const Weight opt = core::brute_force_min_io(t, m).objective;
    EXPECT_GE(full_rec_expand(t, m).evaluation.io_volume, opt);
    EXPECT_GE(rec_expand2(t, m).evaluation.io_volume, opt);
  }
}

TEST(RecExpand, OftenMatchesOptimumOnSmallTrees) {
  // Not a guarantee — but on small instances the heuristic should hit the
  // exact optimum in the clear majority of cases; a collapse of this rate
  // signals a regression in victim selection.
  util::Rng rng(541);
  int total = 0, optimal = 0;
  for (int rep = 0; rep < 500 && total < 30; ++rep) {
    const Tree t = test::small_random_tree(8, 8, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    if (peak <= lb) continue;
    const Weight m = (lb + peak) / 2;
    const Weight opt = core::brute_force_min_io(t, m).objective;
    ++total;
    optimal += (full_rec_expand(t, m).evaluation.io_volume == opt) ? 1 : 0;
  }
  ASSERT_GT(total, 10);
  EXPECT_GE(optimal * 4, total * 3) << optimal << "/" << total << " optimal";
}

TEST(RecExpand, Fig6FullRecExpandIsOptimal) {
  const auto inst = treegen::fig6();
  const Weight opt = core::brute_force_min_io(inst.tree, inst.memory).objective;
  EXPECT_EQ(opt, 3);
  EXPECT_EQ(full_rec_expand(inst.tree, inst.memory).evaluation.io_volume, 3);
}

TEST(RecExpand, Fig7FullRecExpandIsSuboptimal) {
  // Appendix A: on Figure 7 no expansion-based strategy can reach the
  // optimal 3 because OptMinMem never schedules the tree the postorder way.
  const auto inst = treegen::fig7();
  EXPECT_EQ(core::brute_force_min_io(inst.tree, inst.memory).objective, 3);
  EXPECT_EQ(full_rec_expand(inst.tree, inst.memory).evaluation.io_volume, 4);
}

TEST(RecExpand, CapLimitsWork) {
  util::Rng rng(547);
  const Tree t = test::small_random_tree(40, 25, rng);
  const Weight m = t.min_feasible_memory();
  core::RecExpandOptions opts;
  opts.max_expansions_per_node = 2;
  opts.global_expansion_cap = 3;
  const RecExpandResult r = core::rec_expand(t, m, opts);
  EXPECT_LE(r.expansions, 3u);
  ASSERT_TRUE(r.evaluation.feasible);
  test::expect_valid_traversal(t, r.schedule, r.evaluation.io, m);
}

TEST(RecExpand, TwoIterationVariantCloseToFull) {
  // The paper reports RecExpand within a few percent of FullRecExpand; on
  // small instances require it within 50% (loose sanity bound) and never
  // invalid.
  util::Rng rng(557);
  for (int rep = 0; rep < 20; ++rep) {
    const Tree t = test::small_random_tree(12, 10, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    if (peak <= lb) continue;
    const Weight m = (lb + peak) / 2;
    const Weight io_full = full_rec_expand(t, m).evaluation.io_volume;
    const Weight io_two = rec_expand2(t, m).evaluation.io_volume;
    EXPECT_LE(io_two * 2, (io_full + m) * 3) << "RecExpand wildly off FullRecExpand";
  }
}

}  // namespace
}  // namespace ooctree
