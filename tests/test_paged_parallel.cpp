// Differential suite for the paged parallel engine (simulate_parallel_paged).
//
// The paged engine is the shared transactional-start core of the parallel
// subsystem; it has three anchors:
//   * page_size = 1 + no disk model  ==  simulate_parallel bit-identically
//     (the unit engine is that specialization — the test guards the
//     contract against future re-specialization);
//   * workers = 1 + sequential order + no backfill  ==  the sequential
//     pager oracle's (tests/oracles/pager_reference.hpp) page-I/O
//     accounting on the same schedule, for every page size;
//   * the same configuration at page_size = 1  ==  the sequential FiF
//     simulator's I/O volume and peak.
// The first is pinned here; the two sequential ones are the parameterized
// SequentialReplay* tests in tests/test_pager.cpp.
// It also reuses the pinned PR 3 fixtures (transient reservation,
// write-at-most-once thrashing) from test_support.hpp so the sequential
// replay and the paged parallel engine stay pinned to one accounting, and
// pins the read-cost model: spilled pages delay dependent task starts by
// exactly DiskModel::transfer_time. Finally it checks the engine against the
// heap-scan oracle (tests/oracles/paged_reference.hpp) field for field on
// the paths no other reference covers: the disk model, the residency-aware
// scan, the write queue and the prefetch prediction.
#include <gtest/gtest.h>

#include <climits>
#include <tuple>

#include "src/parallel/parallel_sim.hpp"
#include "src/treegen/random_binary.hpp"
#include "test_support.hpp"
#include "tests/oracles/paged_reference.hpp"

namespace ooctree {
namespace {

using core::EvictionPolicy;
using core::Tree;
using core::Weight;
using parallel::PagedParallelConfig;
using parallel::PagedParallelResult;
using parallel::ParallelConfig;
using parallel::ParallelResult;
using parallel::Priority;
using parallel::simulate_parallel;
using parallel::simulate_parallel_paged;
using test::expect_same_replay;

PagedParallelConfig paged_config(const ParallelConfig& base, Weight page_size) {
  PagedParallelConfig c;
  c.base = base;
  c.page_size = page_size;
  return c;
}

ParallelConfig sequential_config(Weight memory) {
  ParallelConfig c;
  c.workers = 1;
  c.memory = memory;
  c.priority = Priority::kSequentialOrder;
  c.backfill_depth = 1;
  return c;
}

// Anchor 1: at page_size = 1 with free reads the paged engine must equal
// the unit engine bit-for-bit across workers x priorities x policies
// (including kRandom — the eviction draw sequences must coincide).
TEST(PagedParallel, UnitPageMatchesUnitEngineAcrossSweep) {
  util::Rng rng(25001);
  const std::vector<Priority> priorities{Priority::kSequentialOrder, Priority::kCriticalPath,
                                         Priority::kHeaviestSubtree};
  const std::vector<EvictionPolicy> policies{EvictionPolicy::kBelady, EvictionPolicy::kLru,
                                             EvictionPolicy::kRandom};
  for (int rep = 0; rep < 8; ++rep) {
    const Tree t = (rep % 2 == 0) ? test::small_random_tree(40, 14, rng)
                                  : test::small_random_wide_tree(40, 14, rng);
    const Weight lb = t.min_feasible_memory();
    for (const Weight m : {lb, lb + 7}) {
      for (const int workers : {1, 2, 4}) {
        for (const Priority priority : priorities) {
          for (const EvictionPolicy policy : policies) {
            ParallelConfig c;
            c.workers = workers;
            c.memory = m;
            c.priority = priority;
            c.evict = policy;
            c.seed = 31u + static_cast<std::uint64_t>(rep);
            const PagedParallelResult paged = simulate_parallel_paged(t, paged_config(c, 1));
            const ParallelResult unit = simulate_parallel(t, c);
            expect_same_replay(paged.base, unit,
                               "rep=" + std::to_string(rep) + " w=" + std::to_string(workers) +
                                   " M=" + std::to_string(m) +
                                   " policy=" + core::eviction_policy_name(policy));
            // Page accounting degenerates exactly: every evicted page is
            // dirty in this control flow, and pages are units.
            EXPECT_EQ(paged.pages_written, unit.io_volume);
            EXPECT_EQ(paged.pages_dropped_clean, 0);
            EXPECT_EQ(paged.peak_frames_used, unit.peak_resident);
            EXPECT_EQ(paged.frames, m);
          }
        }
      }
    }
  }
}

// PR 3's transient-reservation pin, replayed against the paged engine
// through the shared fixture: working space is allocated, not head-room.
TEST(PagedParallel, TransientReservationSharedPin) {
  const auto fx = test::transient_reservation_fixture();
  const PagedParallelResult ok =
      test::sequential_paged_replay(fx.tree, fx.schedule, fx.feasible_memory);
  ASSERT_TRUE(ok.base.feasible);
  EXPECT_EQ(ok.peak_frames_used, fx.expected_peak_frames);
  EXPECT_EQ(ok.pages_written, 0);
  EXPECT_EQ(ok.pages_read, 0);
  const PagedParallelResult bad =
      test::sequential_paged_replay(fx.tree, fx.schedule, fx.infeasible_memory);
  EXPECT_FALSE(bad.base.feasible);
}

// PR 3's write-at-most-once pin through the shared thrash fixture: the
// paged engine charges 3 distinct dirty pages over 2 eviction events, and
// agrees with the pager and the analytic counter.
TEST(PagedParallel, ThrashSharedPinWritesEachPageOnce) {
  const auto fx = test::thrash_fixture();
  const PagedParallelResult r = test::sequential_paged_replay(fx.tree, fx.schedule, fx.memory);
  ASSERT_TRUE(r.base.feasible);
  EXPECT_EQ(r.pages_written, fx.expected_pages_written);
  EXPECT_EQ(r.pages_read, fx.expected_pages_read);
  EXPECT_EQ(r.eviction_events, fx.expected_eviction_events);
  EXPECT_EQ(r.peak_frames_used, fx.expected_peak_frames);
  EXPECT_EQ(r.pages_dropped_clean, 0);
}

// The read-cost model: spilled pages delay dependent task starts by
// exactly DiskModel::transfer_time(volume, transfers). On the thrash
// fixture all 3 read-back pages arrive in one transfer when the root
// starts, so the makespan grows by latency + volume/bandwidth while
// busy_time (useful work) is unchanged.
TEST(PagedParallel, ReadStallDelaysDependentStarts) {
  const auto fx = test::thrash_fixture();
  PagedParallelConfig free_reads = paged_config(sequential_config(fx.memory), 1);
  const PagedParallelResult base = simulate_parallel_paged(fx.tree, free_reads, fx.schedule);
  ASSERT_TRUE(base.base.feasible);
  ASSERT_EQ(base.pages_read, 3);

  PagedParallelConfig costed = free_reads;
  costed.disk = iosim::DiskModel{2.0, 1.0};  // latency 2, bandwidth 1 unit per time unit
  const PagedParallelResult r = simulate_parallel_paged(fx.tree, costed, fx.schedule);
  ASSERT_TRUE(r.base.feasible);
  EXPECT_EQ(r.read_transfers, 1);
  EXPECT_DOUBLE_EQ(r.read_stall, 2.0 + 3.0);
  EXPECT_DOUBLE_EQ(r.base.makespan, base.base.makespan + 5.0);
  EXPECT_DOUBLE_EQ(r.base.busy_time, base.base.busy_time);
  // Identical residency decisions: the stall changes time, not paging.
  EXPECT_EQ(r.pages_written, base.pages_written);
  EXPECT_EQ(r.pages_read, base.pages_read);
}

// In the fixed-order regime (one worker, sequential order, no backfill)
// the execution sequence cannot react to time, so every stall serializes:
// makespan decomposes exactly into the free-read makespan plus the total
// read stall, and a pointwise cheaper disk gives a pointwise smaller
// stall. (With several workers and backfill this is NOT an invariant —
// stalls shift completions, reorder the ready queue, and can produce
// Graham-style anomalies where a costlier disk finishes sooner.)
TEST(PagedParallel, ReadCostDecomposesInFixedOrderRegime) {
  util::Rng rng(25043);
  for (int rep = 0; rep < 6; ++rep) {
    const Tree t = test::small_random_tree(35, 12, rng);
    const ParallelConfig base = sequential_config(t.min_feasible_memory() + 2);
    PagedParallelConfig cheap = paged_config(base, 2);
    PagedParallelConfig costly = cheap;
    cheap.disk = iosim::DiskModel{0.1, 100.0};
    costly.disk = iosim::DiskModel{1.0, 10.0};
    const PagedParallelResult free_run = simulate_parallel_paged(t, paged_config(base, 2));
    const PagedParallelResult cheap_run = simulate_parallel_paged(t, cheap);
    const PagedParallelResult costly_run = simulate_parallel_paged(t, costly);
    ASSERT_TRUE(free_run.base.feasible);
    // Same order, same residency decisions, same page movement.
    EXPECT_EQ(cheap_run.base.start_order, free_run.base.start_order) << "rep=" << rep;
    EXPECT_EQ(cheap_run.pages_read, costly_run.pages_read) << "rep=" << rep;
    EXPECT_DOUBLE_EQ(cheap_run.base.makespan, free_run.base.makespan + cheap_run.read_stall)
        << "rep=" << rep;
    EXPECT_DOUBLE_EQ(costly_run.base.makespan, free_run.base.makespan + costly_run.read_stall)
        << "rep=" << rep;
    EXPECT_LE(cheap_run.read_stall, costly_run.read_stall) << "rep=" << rep;
  }
}

// Paged invariants across a sweep: write-at-most-once per page, I/O in
// page multiples, allocated frames bounded by the frame count, and reads
// never exceed what was spilled.
TEST(PagedParallel, PageAccountingInvariants) {
  util::Rng rng(25057);
  for (int rep = 0; rep < 8; ++rep) {
    const Tree t = (rep % 2 == 0) ? test::small_random_tree(40, 14, rng)
                                  : test::small_random_wide_tree(40, 14, rng);
    for (const Weight page : {Weight{1}, Weight{3}, Weight{8}}) {
      const Weight memory = (parallel::min_feasible_frames(t, page) + 2) * page;
      for (const int workers : {1, 2, 4}) {
        ParallelConfig base;
        base.workers = workers;
        base.memory = memory;
        const PagedParallelResult r = simulate_parallel_paged(t, paged_config(base, page));
        const std::string label = "rep=" + std::to_string(rep) + " page=" +
                                  std::to_string(page) + " w=" + std::to_string(workers);
        ASSERT_TRUE(r.base.feasible) << label;
        EXPECT_LE(r.peak_frames_used, r.frames) << label;
        EXPECT_EQ(r.base.io_volume, r.pages_written * page) << label;
        EXPECT_LE(r.pages_read, r.pages_written + r.pages_dropped_clean) << label;
        std::int64_t written_pages = 0;
        for (std::size_t i = 0; i < t.size(); ++i) {
          EXPECT_EQ(r.base.io[i] % page, 0) << label << " node " << i;
          const Weight cap = parallel::page_count(t.weight(static_cast<core::NodeId>(i)), page);
          EXPECT_LE(r.base.io[i] / page, cap) << label << " node " << i << " written twice";
          written_pages += r.base.io[i] / page;
        }
        EXPECT_EQ(written_pages, r.pages_written) << label;
      }
    }
  }
}

// Frame-level infeasibility: one frame below min_feasible_frames must be
// rejected even with backfill, at any worker count.
TEST(PagedParallel, InfeasibleBelowMinFeasibleFrames) {
  util::Rng rng(25071);
  const Tree t = test::small_random_tree(24, 10, rng);
  for (const Weight page : {Weight{2}, Weight{5}}) {
    const Weight min_frames = parallel::min_feasible_frames(t, page);
    for (const int workers : {1, 4}) {
      ParallelConfig base;
      base.workers = workers;
      base.memory = (min_frames - 1) * page;
      EXPECT_FALSE(simulate_parallel_paged(t, paged_config(base, page)).base.feasible);
      base.memory = min_frames * page;
      EXPECT_TRUE(simulate_parallel_paged(t, paged_config(base, page)).base.feasible);
    }
  }
}

TEST(PagedParallel, RejectsBadConfig) {
  const Tree t = core::make_tree({{core::kNoNode, 1}, {0, 1}});
  ParallelConfig base;
  base.memory = 10;
  EXPECT_THROW((void)simulate_parallel_paged(t, paged_config(base, 0)), std::invalid_argument);
  EXPECT_THROW((void)simulate_parallel_paged(t, paged_config(base, -3)), std::invalid_argument);
  PagedParallelConfig bad_workers = paged_config(base, 1);
  bad_workers.base.workers = 0;
  EXPECT_THROW((void)simulate_parallel_paged(t, bad_workers), std::invalid_argument);
}

// Knobs as large as INT_MAX must not overflow the engine's arithmetic (the
// prefetch scan adds the backfill window to the prefetch window). A window
// at least as large as the tree never binds, so INT_MAX must give exactly
// the result of a window of n; likewise a backfill window of INT_MAX scans
// every ready task, exactly as backfill_depth = 0 does when nothing else
// reads the depth.
TEST(PagedParallel, IntMaxKnobsMatchTheirUnboundedEquivalents) {
  util::Rng rng(25081);
  const Tree t = treegen::synth_instance(400, 1, 100, rng);
  const Weight page = 4;
  ParallelConfig base;
  base.workers = 4;
  base.memory = parallel::min_feasible_frames(t, page) * page * 3 / 2;
  base.backfill_depth = 8;
  base.write_queue_depth = 8;
  PagedParallelConfig huge = paged_config(base, page);
  huge.disk = iosim::DiskModel{0.5, 64.0};
  huge.base.prefetch_window = INT_MAX;
  PagedParallelConfig whole = huge;
  whole.base.prefetch_window = static_cast<int>(t.size());
  const PagedParallelResult a = simulate_parallel_paged(t, huge);
  ASSERT_TRUE(a.base.feasible);
  EXPECT_GT(a.prefetch_issued, 0);
  test::expect_same_paged_replay(a, simulate_parallel_paged(t, whole), "prefetch_window");

  PagedParallelConfig deep = paged_config(base, page);
  deep.disk = iosim::DiskModel{0.5, 64.0};
  deep.base.backfill_depth = INT_MAX;
  PagedParallelConfig unbounded = deep;
  unbounded.base.backfill_depth = 0;
  for (const bool residency : {false, true}) {
    deep.base.residency_aware = unbounded.base.residency_aware = residency;
    test::expect_same_paged_replay(simulate_parallel_paged(t, deep),
                                   simulate_parallel_paged(t, unbounded),
                                   residency ? "backfill_depth, residency" : "backfill_depth");
  }
}

// ---------------------------------------------------------------------------
// Engine vs heap-scan oracle. Each instance fixes a tree shape and an
// eviction policy and runs all 36 combinations of backfill_depth {0, 1, 8}
// x residency x prefetch_window {0, 4, 8} x write_queue_depth {0, 8} under
// a disk model. The 24 machines, workers {1, 2, 4, 8} x page_size {1, 32}
// x M in {1.1, 1.5, 2.0} x LB (LB = the paged lower bound
// min_feasible_frames x page), rotate through the combinations with a
// per-policy offset, as do the tree sizes 300, 900 and 2000 and the three
// priorities.

enum class Shape { kSynth, kCaterpillar, kSpider };

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::kSynth: return "synth";
    case Shape::kCaterpillar: return "caterpillar";
    case Shape::kSpider: return "spider";
  }
  return "?";
}

Tree oracle_tree(Shape shape, std::size_t n, util::Rng& rng) {
  switch (shape) {
    case Shape::kSynth:
      return treegen::synth_instance(n, 1, 100, rng);
    case Shape::kCaterpillar:
      return treegen::with_uniform_weights(treegen::caterpillar_tree(n / 4, 3, 1), 1, 100, rng);
    case Shape::kSpider:
      return treegen::with_uniform_weights(treegen::spider_tree(6, n / 6, 1), 1, 100, rng);
  }
  throw std::logic_error("unknown shape");
}

class PagedOracle : public ::testing::TestWithParam<std::tuple<Shape, EvictionPolicy>> {};

TEST_P(PagedOracle, EngineMatchesHeapScanReference) {
  const auto [shape, policy] = GetParam();
  const int policy_offset = static_cast<int>(policy) * 7;
  util::Rng rng(25091 + static_cast<std::uint64_t>(shape));
  const std::vector<Tree> trees{oracle_tree(shape, 300, rng), oracle_tree(shape, 900, rng),
                                oracle_tree(shape, 2000, rng)};
  const Priority priorities[] = {Priority::kSequentialOrder, Priority::kCriticalPath,
                                 Priority::kHeaviestSubtree};
  const int workers[] = {1, 2, 4, 8};
  const Weight pages[] = {1, 32};
  const double factors[] = {1.1, 1.5, 2.0};
  int combo = 0;
  for (const int depth : {0, 1, 8}) {
    for (const bool residency : {false, true}) {
      for (const int window : {0, 4, 8}) {
        for (const int queue : {0, 8}) {
          const int machine = (combo + policy_offset) % 24;
          const Tree& t = trees[static_cast<std::size_t>(combo % 3)];
          const Weight page = pages[machine % 2];
          const double factor = factors[(machine / 2) % 3];
          const Weight lb = parallel::min_feasible_frames(t, page) * page;
          PagedParallelConfig c;
          c.base.workers = workers[machine / 6];
          c.base.memory = static_cast<Weight>(factor * static_cast<double>(lb));
          c.base.priority = priorities[(combo / 3) % 3];
          c.base.evict = policy;
          c.base.seed = 17u + static_cast<std::uint64_t>(combo);
          c.base.backfill_depth = depth;
          c.base.residency_aware = residency;
          c.base.prefetch_window = window;
          c.base.write_queue_depth = queue;
          c.page_size = page;
          c.disk = iosim::DiskModel{0.5, 64.0};
          const std::string label =
              std::string(shape_name(shape)) + " n=" + std::to_string(t.size()) +
              " depth=" + std::to_string(depth) + " residency=" + std::to_string(residency) +
              " window=" + std::to_string(window) + " queue=" + std::to_string(queue) +
              " workers=" + std::to_string(c.base.workers) + " page=" + std::to_string(page) +
              " M=" + std::to_string(factor) + "LB";
          const PagedParallelResult engine = simulate_parallel_paged(t, c);
          ASSERT_TRUE(engine.base.feasible) << label;
          test::expect_same_paged_replay(
              engine, parallel::oracle::simulate_parallel_paged_reference(t, c), label);
          ++combo;
        }
      }
    }
  }
}

// The regime where the engine skips the prefetch prediction: at
// M = 1.5 x LB with 32-unit pages and 4 or 8 workers, rounds whose running
// tasks reserve every frame are common, and at full memory the prediction
// stops once the staging victim's consumer is predicted. The reference
// always runs the whole prediction and staging; both must agree field for
// field, kRandom's eviction draws included. One instance per policy.
class SkippedPredictionRounds : public ::testing::TestWithParam<EvictionPolicy> {};

TEST_P(SkippedPredictionRounds, MatchHeapScanReference) {
  const EvictionPolicy policy = GetParam();
  util::Rng rng(25101);
  const Tree t = treegen::synth_instance(3000, 1, 100, rng);
  const Weight page = 32;
  const Weight lb = parallel::min_feasible_frames(t, page) * page;
  for (const int workers : {4, 8}) {
    for (const int depth : {0, 8}) {
      for (const int queue : {0, 8}) {
        PagedParallelConfig c;
        c.base.workers = workers;
        c.base.memory = lb * 3 / 2;
        c.base.priority = Priority::kSequentialOrder;
        c.base.evict = policy;
        c.base.seed = 29u + static_cast<std::uint64_t>(workers + depth + queue);
        c.base.backfill_depth = depth;
        c.base.prefetch_window = 8;
        c.base.write_queue_depth = queue;
        c.page_size = page;
        c.disk = iosim::DiskModel{0.5, 64.0};
        const std::string label = "workers=" + std::to_string(workers) +
                                  " depth=" + std::to_string(depth) +
                                  " queue=" + std::to_string(queue);
        const PagedParallelResult engine = simulate_parallel_paged(t, c);
        ASSERT_TRUE(engine.base.feasible) << label;
        EXPECT_GT(engine.prefetch_issued, 0) << label;
        test::expect_same_paged_replay(
            engine, parallel::oracle::simulate_parallel_paged_reference(t, c), label);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, SkippedPredictionRounds,
                         ::testing::Values(EvictionPolicy::kBelady, EvictionPolicy::kLru,
                                           EvictionPolicy::kLargestFirst,
                                           EvictionPolicy::kRandom),
                         [](const auto& info) { return core::eviction_policy_name(info.param); });

INSTANTIATE_TEST_SUITE_P(
    ShapesAndPolicies, PagedOracle,
    ::testing::Combine(::testing::Values(Shape::kSynth, Shape::kCaterpillar, Shape::kSpider),
                       ::testing::Values(EvictionPolicy::kBelady, EvictionPolicy::kLru,
                                         EvictionPolicy::kLargestFirst,
                                         EvictionPolicy::kRandom)),
    [](const auto& info) {
      return std::string(shape_name(std::get<0>(info.param))) + "_" +
             core::eviction_policy_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ooctree
