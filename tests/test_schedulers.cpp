// Differential suite for the memory-aware schedulers: the bounded backfill
// look-ahead (ParallelConfig::backfill_depth) and residency-aware paged
// starts.
//
// Pins, in order:
//   * the heap engine equals the scan-based reference oracle across
//     priorities x workers x depths (both implement the depth-bounded scan
//     and its stats);
//   * workers = 1 + sequential order + strict scan still matches the
//     sequential FiF accounting whatever the other knobs default to;
//   * residency-aware starts keep every paged invariant (write-at-most-
//     once caps, page-multiple accounting, frames bound, determinism) —
//     under OOCTREE_AUDIT builds the in-engine reservation-balance and
//     residency-index audits run on every one of these simulations;
//   * residency is inert without a disk model, and scan stats stay sane
//     (hits can only come from scans; depth 1 forces both to zero).
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/core/fif_simulator.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/parallel/parallel_sim.hpp"
#include "test_support.hpp"
#include "tests/oracles/parallel_reference.hpp"

namespace ooctree {
namespace {

using core::EvictionPolicy;
using core::Schedule;
using core::Tree;
using core::Weight;
using parallel::PagedParallelConfig;
using parallel::PagedParallelResult;
using parallel::ParallelConfig;
using parallel::ParallelResult;
using parallel::Priority;
using parallel::simulate_parallel;
using parallel::simulate_parallel_paged;
using parallel::oracle::simulate_parallel_reference;
using test::expect_same_replay;

const std::vector<Priority> kPriorities{Priority::kSequentialOrder, Priority::kCriticalPath,
                                        Priority::kHeaviestSubtree};

// The heap engine and the scan-based reference oracle implement the
// depth-bounded scan independently; they must agree on results and stats
// across every priority, worker count and depth.
TEST(Schedulers, HeapEngineMatchesReferenceAcrossKnobs) {
  util::Rng rng(26013);
  for (int rep = 0; rep < 6; ++rep) {
    const Tree t = (rep % 2 == 0) ? test::small_random_tree(32, 12, rng)
                                  : test::small_random_wide_tree(32, 12, rng);
    const Weight lb = t.min_feasible_memory();
    for (const Priority priority : kPriorities) {
      for (const int workers : {1, 2, 4}) {
        for (const int depth : {1, 2, 3, 0}) {
          ParallelConfig c;
          c.workers = workers;
          c.memory = lb + 5;
          c.priority = priority;
          c.backfill_depth = depth;
          expect_same_replay(simulate_parallel(t, c), simulate_parallel_reference(t, c),
                             "rep=" + std::to_string(rep) +
                                 " priority=" + std::to_string(static_cast<int>(priority)) +
                                 " w=" + std::to_string(workers) +
                                 " d=" + std::to_string(depth));
        }
      }
    }
  }
}

// One worker on the reference order with the strict scan is the sequential
// execution: io and peak must match the FiF simulator regardless of the
// other knobs' defaults.
TEST(Schedulers, SingleWorkerSequentialStillMatchesFif) {
  util::Rng rng(26019);
  for (int rep = 0; rep < 8; ++rep) {
    const Tree t = (rep % 2 == 0) ? test::small_random_tree(30, 10, rng)
                                  : test::small_random_wide_tree(30, 10, rng);
    const Schedule schedule = core::opt_minmem(t).schedule;
    const Weight lb = t.min_feasible_memory();
    for (const Weight m : {lb, lb + 4}) {
      ParallelConfig c;
      c.workers = 1;
      c.memory = m;
      c.priority = Priority::kSequentialOrder;
      c.backfill_depth = 1;
      const ParallelResult r = simulate_parallel(t, c, schedule);
      const core::FifResult fif = core::simulate_fif(t, schedule, m);
      ASSERT_TRUE(r.feasible) << "rep=" + std::to_string(rep);
      EXPECT_EQ(r.io_volume, fif.io_volume) << "rep=" + std::to_string(rep);
      EXPECT_EQ(r.peak_resident, fif.peak_resident) << "rep=" + std::to_string(rep);
    }
  }
}

// Residency-aware paged starts across priorities, page sizes, depths and
// memory slack:
// every paged invariant holds (the in-engine OOCTREE_AUDIT checks run on
// audit builds), page totals stay within the write-at-most-once caps, and
// the simulation is deterministic.
TEST(Schedulers, ResidencyAwareKeepsPagedInvariants) {
  util::Rng rng(26027);
  const iosim::DiskModel disk{0.25, 16.0};
  for (int rep = 0; rep < 6; ++rep) {
    const Tree t = (rep % 2 == 0) ? test::small_random_tree(34, 12, rng)
                                  : test::small_random_wide_tree(34, 12, rng);
    for (const Weight page : {Weight{1}, Weight{3}, Weight{5}}) {
      const Weight min_frames = parallel::min_feasible_frames(t, page);
      // Total pages of the whole tree: the write-at-most-once cap.
      Weight total_pages = 0;
      for (std::size_t i = 0; i < t.size(); ++i)
        total_pages += parallel::page_count(t.weight(static_cast<core::NodeId>(i)), page);
      for (const Weight slack : {Weight{0}, Weight{3}}) {
        for (const int depth : {0, 2}) {
          for (const int workers : {2, 4}) {
            for (const Priority priority : kPriorities) {
              ParallelConfig base;
              base.workers = workers;
              base.memory = (min_frames + slack) * page;
              base.priority = priority;
              base.backfill_depth = depth;
              base.residency_aware = true;
              PagedParallelConfig c;
              c.base = base;
              c.page_size = page;
              c.disk = disk;
              const PagedParallelResult r = simulate_parallel_paged(t, c);
              const std::string label =
                  "rep=" + std::to_string(rep) + " page=" + std::to_string(page) +
                  " slack=" + std::to_string(slack) + " d=" + std::to_string(depth) +
                  " w=" + std::to_string(workers) +
                  " priority=" + std::to_string(static_cast<int>(priority));
              ASSERT_TRUE(r.base.feasible) << label;
              // Write-at-most-once: each page spills to disk at most once.
              EXPECT_LE(r.pages_written, total_pages) << label;
              // Only written pages can be read back or dropped clean.
              EXPECT_LE(r.pages_read, r.pages_written) << label;
              EXPECT_LE(r.pages_dropped_clean, total_pages) << label;
              EXPECT_LE(r.peak_frames_used, r.frames) << label;
              EXPECT_GE(r.read_stall, 0.0) << label;
              // Determinism: the same config replays bit-identically.
              const PagedParallelResult again = simulate_parallel_paged(t, c);
              expect_same_replay(again.base, r.base, label);
              EXPECT_EQ(again.pages_written, r.pages_written) << label;
              EXPECT_EQ(again.pages_read, r.pages_read) << label;
              EXPECT_EQ(again.read_stall, r.read_stall) << label;
            }
          }
        }
      }
    }
  }
}

// Without a disk model the residency rule must be inert: reads cost
// nothing, so the flag may not change results or stats. With a disk model
// it is inert at backfill_depth 1: the window holds one candidate, so
// there is nothing to choose.
TEST(Schedulers, ResidencyInertWithoutDisk) {
  util::Rng rng(26031);
  for (int rep = 0; rep < 6; ++rep) {
    const Tree t = test::small_random_tree(36, 12, rng);
    const Weight lb = t.min_feasible_memory();
    for (const int depth : {0, 4}) {
      ParallelConfig base;
      base.workers = 3;
      base.memory = lb + 6;
      base.priority = Priority::kCriticalPath;
      base.backfill_depth = depth;
      PagedParallelConfig plain;
      plain.base = base;
      plain.page_size = 2;
      PagedParallelConfig aware = plain;
      aware.base.residency_aware = true;
      const PagedParallelResult a = simulate_parallel_paged(t, aware);
      const PagedParallelResult b = simulate_parallel_paged(t, plain);
      test::expect_same_paged_replay(a, b, "rep=" + std::to_string(rep));
    }
    for (const Priority priority :
         {Priority::kSequentialOrder, Priority::kCriticalPath, Priority::kHeaviestSubtree}) {
      for (const EvictionPolicy evict : {EvictionPolicy::kBelady, EvictionPolicy::kLru,
                                         EvictionPolicy::kLargestFirst, EvictionPolicy::kRandom}) {
        PagedParallelConfig plain;
        plain.base.workers = 3;
        plain.base.memory = parallel::min_feasible_frames(t, 2) * 2;  // tight: reads happen
        plain.base.priority = priority;
        plain.base.evict = evict;
        plain.base.backfill_depth = 1;
        plain.page_size = 2;
        plain.disk = iosim::DiskModel{0.5, 2.0};
        PagedParallelConfig aware = plain;
        aware.base.residency_aware = true;
        const PagedParallelResult a = simulate_parallel_paged(t, aware);
        const PagedParallelResult b = simulate_parallel_paged(t, plain);
        ASSERT_TRUE(b.base.feasible);
        test::expect_same_paged_replay(a, b,
                                       "disk rep=" + std::to_string(rep) +
                                           " priority=" + std::to_string(static_cast<int>(priority)) +
                                           " evict=" + std::to_string(static_cast<int>(evict)));
      }
    }
  }
}

// Scan statistics: scans bound hits, strict scans record neither, and a
// bounded scan on a crafted instance records a hit when the head does not
// fit but a smaller ready task does.
TEST(Schedulers, BackfillStatsAreConsistent) {
  util::Rng rng(26037);
  for (int rep = 0; rep < 6; ++rep) {
    const Tree t = test::small_random_wide_tree(40, 14, rng);
    const Weight lb = t.min_feasible_memory();
    for (const int depth : {0, 1, 2, 8}) {
      ParallelConfig c;
      c.workers = 4;
      c.memory = lb + 4;
      c.priority = Priority::kCriticalPath;
      c.backfill_depth = depth;
      const ParallelResult r = simulate_parallel(t, c);
      EXPECT_LE(r.backfill_hits, r.backfill_scans)
          << "a hit needs at least one scanned candidate";
      if (depth == 1) {
        EXPECT_EQ(r.backfill_scans, 0);
        EXPECT_EQ(r.backfill_hits, 0);
      }
    }
  }

  // Three chains hanging off a light root; the ready leaves reserve 8, 6
  // and 3. With M = 12 and the 8-leaf running, the 6-leaf blocks the scan
  // head (8 + 6 > 12) while the 3-leaf fits — the bounded scan must start
  // it and record the hit.
  const Tree t = core::make_tree({{core::kNoNode, 1},
                                  {0, 1},
                                  {1, 8},
                                  {0, 1},
                                  {3, 6},
                                  {0, 1},
                                  {5, 3}});
  ParallelConfig c;
  c.workers = 2;
  c.memory = 12;
  c.priority = Priority::kHeaviestSubtree;
  c.backfill_depth = 4;
  const ParallelResult r = simulate_parallel(t, c);
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.backfill_scans, 0);
  EXPECT_GT(r.backfill_hits, 0);
  // Strict scan on the same instance: no look-ahead, so no hits.
  c.backfill_depth = 1;
  const ParallelResult strict = simulate_parallel(t, c);
  EXPECT_EQ(strict.backfill_hits, 0);
}

// Config validation: a negative depth is rejected up front by both engines.
TEST(Schedulers, RejectsInvalidKnobs) {
  const Tree t = core::make_tree({{core::kNoNode, 2}, {0, 1}});
  ParallelConfig c;
  c.workers = 2;
  c.memory = 4;
  c.backfill_depth = -1;
  EXPECT_THROW((void)simulate_parallel(t, c), std::invalid_argument);
  EXPECT_THROW((void)simulate_parallel_reference(t, c), std::invalid_argument);
}

}  // namespace
}  // namespace ooctree
