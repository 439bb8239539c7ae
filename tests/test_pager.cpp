// Tests for the page-granular out-of-core simulator and its policies.
#include <gtest/gtest.h>

#include "src/core/fif_simulator.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/iosim/pager.hpp"
#include "test_support.hpp"

namespace ooctree {
namespace {

using core::EvictionPolicy;
using core::Tree;
using core::Weight;
using iosim::PagerConfig;
using iosim::PagerStats;
using iosim::run_pager;

PagerConfig config(Weight memory, EvictionPolicy p, Weight page = 1) {
  PagerConfig c;
  c.memory = memory;
  c.page_size = page;
  c.policy = p;
  return c;
}

TEST(Pager, BeladyUnitPagesMatchesAnalyticFif) {
  // The cornerstone cross-validation: with page_size = 1 the pager under
  // Belady must reproduce core::simulate_fif write-for-write.
  util::Rng rng(901);
  for (int rep = 0; rep < 40; ++rep) {
    const Tree t = (rep % 2 == 0) ? test::small_random_tree(14, 12, rng)
                                  : test::small_random_wide_tree(14, 12, rng);
    const auto schedule = core::opt_minmem(t).schedule;
    const Weight lb = t.min_feasible_memory();
    for (const Weight m : {lb, lb + 3, lb + 10}) {
      const auto fif = core::simulate_fif(t, schedule, m);
      const PagerStats pager = run_pager(t, schedule, config(m, EvictionPolicy::kBelady));
      ASSERT_EQ(pager.feasible, fif.feasible);
      if (fif.feasible) {
        EXPECT_EQ(pager.pages_written, fif.io_volume) << t.to_string() << " M=" << m;
        EXPECT_EQ(pager.pages_read, fif.io_volume) << "reads must mirror writes";
      }
    }
  }
}

TEST(Pager, NoIoWithAmpleMemory) {
  util::Rng rng(907);
  const Tree t = test::small_random_tree(20, 10, rng);
  const auto schedule = t.postorder();
  for (const EvictionPolicy p : {EvictionPolicy::kBelady, EvictionPolicy::kLru,
                                 EvictionPolicy::kRandom, EvictionPolicy::kLargestFirst}) {
    const PagerStats s = run_pager(t, schedule, config(100000, p));
    EXPECT_TRUE(s.feasible);
    EXPECT_EQ(s.pages_written, 0) << core::eviction_policy_name(p);
  }
}

TEST(Pager, BeladyIsNeverBeatenByOtherPolicies) {
  // Theorem 1 in practice: for a fixed schedule, Belady's write count is a
  // lower bound over all policies (page_size 1 so amounts are exact).
  util::Rng rng(911);
  for (int rep = 0; rep < 25; ++rep) {
    const Tree t = test::small_random_tree(16, 10, rng);
    const auto schedule = core::opt_minmem(t).schedule;
    const Weight m = t.min_feasible_memory() + 4;
    const auto belady = run_pager(t, schedule, config(m, EvictionPolicy::kBelady));
    ASSERT_TRUE(belady.feasible);
    for (const EvictionPolicy p :
         {EvictionPolicy::kLru, EvictionPolicy::kRandom, EvictionPolicy::kLargestFirst}) {
      const auto other = run_pager(t, schedule, config(m, p));
      ASSERT_TRUE(other.feasible) << core::eviction_policy_name(p);
      EXPECT_GE(other.pages_written, belady.pages_written) << core::eviction_policy_name(p);
    }
  }
}

TEST(Pager, PageGranularityRoundsUp) {
  // With pages of 4 units, a 6-unit datum occupies 2 pages; evicting it
  // writes page multiples.
  const Tree t = core::make_tree({{core::kNoNode, 1}, {0, 6}, {0, 2}, {2, 8}});
  // Schedule 1, 3, 2, 0. Units: at node 3, active {1:6} + wbar(3)=8.
  // In pages of 4: frames = M/4; datum 1 = 2 pages, leaf 8 = 2 pages.
  const PagerConfig c = config(14, EvictionPolicy::kBelady, 4);  // 3 frames
  const PagerStats s = run_pager(t, {1, 3, 2, 0}, c);
  ASSERT_TRUE(s.feasible);
  EXPECT_GT(s.pages_written, 0);
  EXPECT_EQ(s.pages_written % 1, 0);
  EXPECT_EQ(s.write_volume(c), s.pages_written * 4);
}

TEST(Pager, InfeasibleWhenWorkingSetExceedsFrames) {
  const Tree t = core::make_tree({{core::kNoNode, 1}, {0, 5}, {0, 6}});
  const PagerStats s = run_pager(t, {1, 2, 0}, config(10, EvictionPolicy::kBelady));
  EXPECT_FALSE(s.feasible);
}

TEST(Pager, RejectsBadSchedule) {
  const Tree t = core::make_tree({{core::kNoNode, 1}, {0, 5}});
  EXPECT_THROW((void)run_pager(t, {0, 1}, config(10, EvictionPolicy::kBelady)),
               std::invalid_argument);
  PagerConfig c = config(10, EvictionPolicy::kBelady);
  c.page_size = 0;
  EXPECT_THROW((void)run_pager(t, {1, 0}, c), std::invalid_argument);
}

TEST(Pager, RandomPolicyIsDeterministicPerSeed) {
  util::Rng rng(919);
  const Tree t = test::small_random_tree(16, 10, rng);
  const auto schedule = t.postorder();
  PagerConfig c = config(t.min_feasible_memory() + 2, EvictionPolicy::kRandom);
  c.seed = 77;
  const auto a = run_pager(t, schedule, c);
  const auto b = run_pager(t, schedule, c);
  EXPECT_EQ(a.pages_written, b.pages_written);
  EXPECT_EQ(a.eviction_events, b.eviction_events);
}

TEST(Pager, TransientReservationPinsPeak) {
  // The transient working space of a step is *reserved* in frames_used
  // (seed bug: step 2 only checked the head-room and folded it into
  // peak_frames_used without allocating it). The fixture is shared with
  // the paged parallel engine (tests/test_paged_parallel.cpp), so both
  // engines stay pinned to the same accounting.
  const auto fx = test::transient_reservation_fixture();
  const PagerStats s =
      run_pager(fx.tree, fx.schedule, config(fx.feasible_memory, EvictionPolicy::kBelady));
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.peak_frames_used, fx.expected_peak_frames);
  EXPECT_EQ(s.pages_written, 0);
  EXPECT_EQ(s.pages_read, 0);
  EXPECT_FALSE(run_pager(fx.tree, fx.schedule,
                         config(fx.infeasible_memory, EvictionPolicy::kBelady))
                   .feasible);
}

TEST(Pager, ThrashedDatumWritesEachPageOnce) {
  // Satellite bug: every eviction charged pages_written, conflating write
  // volume with eviction events (see test::thrash_fixture for the exact
  // construction, shared with the paged parallel engine).
  const auto fx = test::thrash_fixture();
  ASSERT_EQ(fx.tree.min_feasible_memory(), fx.memory);
  const PagerStats s =
      run_pager(fx.tree, fx.schedule, config(fx.memory, EvictionPolicy::kBelady));
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.eviction_events, fx.expected_eviction_events);
  EXPECT_EQ(s.pages_written, fx.expected_pages_written)
      << "each of B's evicted pages is written exactly once";
  EXPECT_EQ(s.pages_read, fx.expected_pages_read) << "reads mirror writes";
  EXPECT_EQ(s.pages_dropped_clean, 0);
  EXPECT_EQ(s.peak_frames_used, fx.expected_peak_frames);
  // The analytic FiF counter agrees with the per-page accounting.
  const auto fif = core::simulate_fif(fx.tree, fx.schedule, fx.memory);
  ASSERT_TRUE(fif.feasible);
  EXPECT_EQ(s.pages_written, fif.io_volume);
}

TEST(Pager, PeakFramesBounded) {
  util::Rng rng(929);
  const Tree t = test::small_random_tree(16, 10, rng);
  const Weight m = t.min_feasible_memory() + 5;
  const auto s = run_pager(t, t.postorder(), config(m, EvictionPolicy::kLru));
  ASSERT_TRUE(s.feasible);
  EXPECT_LE(s.peak_frames_used, m);  // page_size 1: frames == units
}

}  // namespace
}  // namespace ooctree
