// Tests for the sequential page-granular replay and its eviction policies.
// The properties run on the paged engine at one worker in a fixed
// schedule's order with strict priority (test::sequential_paged_replay)
// and check it against the analytic FiF counter. The PR 3 fixtures pin the
// sequential pager oracle (tests/oracles/pager_reference.hpp), and one
// differential holds the engine equal to that oracle.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "src/core/fif_simulator.hpp"
#include "src/core/minmem_optimal.hpp"
#include "test_support.hpp"
#include "tests/oracles/pager_reference.hpp"

namespace ooctree {
namespace {

using core::EvictionPolicy;
using core::MemoryModel;
using core::Tree;
using core::Weight;
using parallel::PagedParallelResult;
using parallel::oracle::PagerConfig;
using parallel::oracle::PagerStats;
using parallel::oracle::run_pager_reference;
using test::sequential_paged_replay;

PagerConfig oracle_config(Weight memory, EvictionPolicy p = EvictionPolicy::kBelady,
                          Weight page = 1, std::uint64_t seed = 1) {
  PagerConfig c;
  c.memory = memory;
  c.page_size = page;
  c.policy = p;
  c.seed = seed;
  return c;
}

TEST(Pager, NoIoWithAmpleMemory) {
  util::Rng rng(907);
  const Tree t = test::small_random_tree(20, 10, rng);
  const auto schedule = t.postorder();
  for (const EvictionPolicy p : {EvictionPolicy::kBelady, EvictionPolicy::kLru,
                                 EvictionPolicy::kRandom, EvictionPolicy::kLargestFirst}) {
    const PagedParallelResult s = sequential_paged_replay(t, schedule, 100000, 1, p);
    EXPECT_TRUE(s.base.feasible);
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
    const auto belady = sequential_paged_replay(t, schedule, m);
    ASSERT_TRUE(belady.base.feasible);
    for (const EvictionPolicy p :
         {EvictionPolicy::kLru, EvictionPolicy::kRandom, EvictionPolicy::kLargestFirst}) {
      const auto other = sequential_paged_replay(t, schedule, m, 1, p);
      ASSERT_TRUE(other.base.feasible) << core::eviction_policy_name(p);
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
  const PagedParallelResult s = sequential_paged_replay(t, {1, 3, 2, 0}, 14, 4);  // 3 frames
  ASSERT_TRUE(s.base.feasible);
  EXPECT_EQ(s.frames, 3);
  EXPECT_GT(s.pages_written, 0);
  EXPECT_EQ(s.base.io_volume, s.pages_written * 4);
}

TEST(Pager, InfeasibleWhenWorkingSetExceedsFrames) {
  const Tree t = core::make_tree({{core::kNoNode, 1}, {0, 5}, {0, 6}});
  EXPECT_FALSE(sequential_paged_replay(t, {1, 2, 0}, 10).base.feasible);
}

TEST(Pager, RejectsBadSchedule) {
  const Tree t = core::make_tree({{core::kNoNode, 1}, {0, 5}});
  EXPECT_THROW((void)sequential_paged_replay(t, {0, 1}, 10), std::invalid_argument);
  EXPECT_THROW((void)sequential_paged_replay(t, {1, 0}, 10, 0), std::invalid_argument);
}

TEST(Pager, RandomPolicyIsDeterministicPerSeed) {
  util::Rng rng(919);
  const Tree t = test::small_random_tree(16, 10, rng);
  const auto schedule = t.postorder();
  const Weight m = t.min_feasible_memory() + 2;
  const auto a = sequential_paged_replay(t, schedule, m, 1, EvictionPolicy::kRandom, 77);
  const auto b = sequential_paged_replay(t, schedule, m, 1, EvictionPolicy::kRandom, 77);
  EXPECT_EQ(a.pages_written, b.pages_written);
  EXPECT_EQ(a.eviction_events, b.eviction_events);
}

TEST(Pager, TransientReservationPinsPeak) {
  // The transient working space of a step is *reserved* in the frame
  // accounting (seed bug: the pager only checked the head-room and folded
  // it into peak_frames_used without allocating it). The engine runs the
  // same fixture in tests/test_paged_parallel.cpp; here it pins the oracle,
  // so the reference the engine is compared against is itself anchored.
  const auto fx = test::transient_reservation_fixture();
  const PagerStats s = run_pager_reference(fx.tree, fx.schedule, oracle_config(fx.feasible_memory));
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.peak_frames_used, fx.expected_peak_frames);
  EXPECT_EQ(s.pages_written, 0);
  EXPECT_EQ(s.pages_read, 0);
  EXPECT_FALSE(
      run_pager_reference(fx.tree, fx.schedule, oracle_config(fx.infeasible_memory)).feasible);
}

TEST(Pager, ThrashedDatumWritesEachPageOnce) {
  // Satellite bug: every eviction charged pages_written, conflating write
  // volume with eviction events (see test::thrash_fixture for the exact
  // construction, shared with the paged parallel engine's suite). Pins
  // the oracle, as above.
  const auto fx = test::thrash_fixture();
  ASSERT_EQ(fx.tree.min_feasible_memory(), fx.memory);
  const PagerStats s = run_pager_reference(fx.tree, fx.schedule, oracle_config(fx.memory));
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
  const auto s = sequential_paged_replay(t, t.postorder(), m, 1, EvictionPolicy::kLru);
  ASSERT_TRUE(s.base.feasible);
  EXPECT_LE(s.peak_frames_used, m);  // page_size 1: frames == units
}

// --- The sequential replay against its two references --------------------
//
// Each test below runs one comparison over two parameter sets, one from
// the pager's own sweep and one from the paged engine's anchors
// (tests/test_paged_parallel.cpp), so every assertion of either side holds
// on both trees, bounds and policy sets.

/// A sweep of small random trees: `reps` trees of `nodes` nodes drawn from
/// `seed`, alternating binary and high fan-in shapes when `wide`.
struct TreeSweep {
  const char* name;
  std::uint64_t seed;
  int reps;
  std::size_t nodes;
  bool wide;

  [[nodiscard]] Tree tree(int rep, util::Rng& rng) const {
    return (wide && rep % 2 == 1) ? test::small_random_wide_tree(nodes, 12, rng)
                                  : test::small_random_tree(nodes, 12, rng);
  }
};

struct UnitPageCase {
  TreeSweep sweep;
  std::vector<MemoryModel> models;
  std::vector<Weight> slacks;  // above LB
};

void PrintTo(const UnitPageCase& c, std::ostream* os) { *os << c.sweep.name; }

class SequentialReplayUnitPage : public ::testing::TestWithParam<UnitPageCase> {};

// The cornerstone cross-validation: with page_size = 1 the sequential
// replay under Belady must reproduce core::simulate_fif write for write,
// read for read, and reach the same peak.
TEST_P(SequentialReplayUnitPage, CollapsesToAnalyticFif) {
  const UnitPageCase& c = GetParam();
  util::Rng rng(c.sweep.seed);
  for (const MemoryModel model : c.models) {
    for (int rep = 0; rep < c.sweep.reps; ++rep) {
      const Tree t = c.sweep.tree(rep, rng).with_memory_model(model);
      const auto schedule = core::opt_minmem(t).schedule;
      const Weight lb = t.min_feasible_memory();
      for (const Weight slack : c.slacks) {
        const Weight m = lb + slack;
        const std::string label = "model=" + std::to_string(static_cast<int>(model)) +
                                  " rep=" + std::to_string(rep) + " M=" + std::to_string(m);
        const auto fif = core::simulate_fif(t, schedule, m);
        ASSERT_TRUE(fif.feasible) << label;
        const PagedParallelResult paged = sequential_paged_replay(t, schedule, m);
        ASSERT_EQ(paged.base.feasible, fif.feasible) << label;
        EXPECT_EQ(paged.pages_written, fif.io_volume) << t.to_string() << " " << label;
        EXPECT_EQ(paged.pages_read, fif.io_volume) << "reads must mirror writes; " << label;
        EXPECT_EQ(paged.base.io_volume, fif.io_volume) << label;
        EXPECT_EQ(paged.base.peak_resident, fif.peak_resident) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, SequentialReplayUnitPage,
    ::testing::Values(UnitPageCase{{"Pager", 901, 40, 14, true},
                                   {MemoryModel::kMaxInOut},
                                   {0, 3, 10}},
                      UnitPageCase{{"PagedParallel", 25031, 10, 30, false},
                                   {MemoryModel::kMaxInOut, MemoryModel::kSumInOut},
                                   {0, 4, 12}}),
    [](const ::testing::TestParamInfo<UnitPageCase>& info) {
      return std::string(info.param.sweep.name);
    });

struct OracleCase {
  TreeSweep sweep;
  std::vector<Weight> pages;
  std::vector<Weight> slacks;  // frames above the minimum feasible count
  std::vector<EvictionPolicy> policies;
  bool reseed;  // also replay with a per-tree RNG seed (kRandom draws)
};

void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.sweep.name; }

class SequentialReplayOracle : public ::testing::TestWithParam<OracleCase> {};

// The differential: the engine's one-worker replay against the step-loop
// oracle, every counter both report, for every page size and policy —
// kRandom included, so the two replays must also draw their victims from
// the RNG in the same sequence. The engine must also start the tasks in
// the schedule's order.
TEST_P(SequentialReplayOracle, MatchesSequentialPagerOracle) {
  const OracleCase& c = GetParam();
  util::Rng rng(c.sweep.seed);
  for (int rep = 0; rep < c.sweep.reps; ++rep) {
    const Tree t = c.sweep.tree(rep, rng);
    const auto schedule = core::opt_minmem(t).schedule;
    for (const Weight page : c.pages) {
      const Weight min_frames = parallel::min_feasible_frames(t, page);
      for (const Weight slack : c.slacks) {
        const Weight memory = (min_frames + slack) * page;
        for (const EvictionPolicy p : c.policies) {
          const std::uint64_t rep_seed = static_cast<std::uint64_t>(rep) + 40;
          std::vector<std::uint64_t> seeds = {1};
          if (c.reseed) seeds.push_back(rep_seed);
          for (const std::uint64_t seed : seeds) {
            const PagerConfig pc = oracle_config(memory, p, page, seed);
            const PagerStats oracle = run_pager_reference(t, schedule, pc);
            const auto engine = sequential_paged_replay(t, schedule, memory, page, p, seed);
            const std::string label = "rep=" + std::to_string(rep) +
                                      " page=" + std::to_string(page) +
                                      " slack=" + std::to_string(slack) +
                                      " policy=" + core::eviction_policy_name(p) +
                                      " seed=" + std::to_string(seed);
            ASSERT_EQ(engine.base.feasible, oracle.feasible) << label;
            if (!oracle.feasible) continue;
            EXPECT_EQ(engine.base.start_order, schedule) << label;
            EXPECT_EQ(engine.pages_written, oracle.pages_written) << label;
            EXPECT_EQ(engine.pages_read, oracle.pages_read) << label;
            EXPECT_EQ(engine.eviction_events, oracle.eviction_events) << label;
            EXPECT_EQ(engine.pages_dropped_clean, oracle.pages_dropped_clean) << label;
            EXPECT_EQ(engine.peak_frames_used, oracle.peak_frames_used) << label;
            EXPECT_EQ(engine.base.io_volume, oracle.write_volume(pc)) << label;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, SequentialReplayOracle,
    ::testing::Values(
        OracleCase{{"Pager", 937, 8, 24, true},
                   {1, 3, 5},
                   {-1, 0, 3},
                   {EvictionPolicy::kBelady, EvictionPolicy::kLru, EvictionPolicy::kRandom,
                    EvictionPolicy::kLargestFirst},
                   true},
        OracleCase{{"PagedParallel", 25013, 10, 28, true},
                   {1, 3, 4, 7},
                   {0, 2, 6},
                   {EvictionPolicy::kBelady, EvictionPolicy::kLru, EvictionPolicy::kLargestFirst},
                   false}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string(info.param.sweep.name);
    });

}  // namespace
}  // namespace ooctree
