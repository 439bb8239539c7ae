// Differential suite for the paged engine's disk pipeline
// (write_queue_depth / prefetch_window on ParallelConfig).
//
// The pipeline is strictly additive: both knobs at zero must reproduce the
// synchronous engine bit-for-bit (same code path, same RNG draws), with a
// disk model and without one. On top of that baseline the suite pins the
// pipelined accounting contracts:
//   * the write queue never holds more than write_queue_depth pending
//     transfers, and an effectively unbounded queue never stalls a worker;
//   * device-time conservation — disk_read_time + disk_write_time is the
//     pure transfer time, read_stall + write_stall is what workers actually
//     waited, and the pipeline can only hide time, not invent it;
//   * the prefetch ledger balances (issued == useful + wasted) and
//     prefetched pages are real reads charged to the shared disk;
//   * page accounting (write-at-most-once, frame bounds) survives the
//     asynchronous paths unchanged.
// The knobs are validated identically in the unit engines
// (simulate_parallel / simulate_parallel_reference) but inert there — the
// suite pins that parity too, so a future unit-engine disk model cannot
// silently diverge from the scan oracle.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/parallel/parallel_sim.hpp"
#include "test_support.hpp"
#include "tests/oracles/parallel_reference.hpp"

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
using parallel::oracle::simulate_parallel_reference;
using test::expect_same_paged_replay;
using test::expect_same_replay;

PagedParallelConfig paged_config(const ParallelConfig& base, Weight page_size) {
  PagedParallelConfig c;
  c.base = base;
  c.page_size = page_size;
  return c;
}

std::int64_t total_pages_of(const Tree& t, Weight page) {
  std::int64_t total = 0;
  for (const core::NodeId v : t.postorder()) total += parallel::page_count(t.weight(v), page);
  return total;
}

// Both knobs zero is the synchronous engine bit-for-bit: explicit zeros
// against a config that never mentions the pipeline, with a disk model
// attached, across workers x policies x memory levels (kRandom included —
// the eviction draw sequences must coincide, so the pipeline gate may not
// consume RNG state). The synchronous stall contract rides along: every
// transfer charges its full device time to the consuming worker.
TEST(DiskPipeline, ZeroKnobsBitIdenticalToSynchronousEngine) {
  util::Rng rng(27001);
  const std::vector<EvictionPolicy> policies{EvictionPolicy::kBelady, EvictionPolicy::kLru,
                                             EvictionPolicy::kRandom};
  for (int rep = 0; rep < 6; ++rep) {
    const Tree t = (rep % 2 == 0) ? test::small_random_tree(40, 14, rng)
                                  : test::small_random_wide_tree(40, 14, rng);
    const Weight page = 3;
    const Weight min_frames = parallel::min_feasible_frames(t, page);
    for (const Weight slack : {Weight{0}, Weight{4}}) {
      for (const int workers : {1, 2, 4, 8}) {
        for (const EvictionPolicy policy : policies) {
          ParallelConfig base;
          base.workers = workers;
          base.memory = (min_frames + slack) * page;
          base.evict = policy;
          base.seed = 91u + static_cast<std::uint64_t>(rep);
          PagedParallelConfig plain = paged_config(base, page);
          plain.disk = iosim::DiskModel{0.5, 8.0};
          PagedParallelConfig zeros = plain;
          zeros.base.write_queue_depth = 0;
          zeros.base.prefetch_window = 0;
          const PagedParallelResult a = simulate_parallel_paged(t, plain);
          const PagedParallelResult b = simulate_parallel_paged(t, zeros);
          const std::string label = "rep=" + std::to_string(rep) +
                                    " w=" + std::to_string(workers) +
                                    " slack=" + std::to_string(slack) +
                                    " policy=" + core::eviction_policy_name(policy);
          expect_same_paged_replay(a, b, label);
          // Synchronous stall contract: reads charge the worker their full
          // device time, writes are free and nothing is ever queued.
          EXPECT_EQ(a.read_stall, a.disk_read_time) << label;
          EXPECT_EQ(a.disk_write_time, 0.0) << label;
          EXPECT_EQ(a.write_stall, 0.0) << label;
          EXPECT_EQ(a.write_queue_peak, 0) << label;
          EXPECT_EQ(a.prefetch_issued, 0) << label;
        }
      }
    }
  }
}

// Without a disk model the knobs are validated but inert — in the paged
// engine and in both unit engines, which must also stay bit-identical to
// each other (the scan oracle) for every knob value.
TEST(DiskPipeline, KnobsInertWithoutDiskAcrossEngines) {
  util::Rng rng(27011);
  for (int rep = 0; rep < 4; ++rep) {
    const Tree t = test::small_random_tree(36, 12, rng);
    ParallelConfig base;
    base.workers = 3;
    base.memory = t.min_feasible_memory() + 5;
    base.seed = 7u + static_cast<std::uint64_t>(rep);
    for (const int depth : {0, 2, 64}) {
      for (const int window : {0, 3, 64}) {
        ParallelConfig knobs = base;
        knobs.write_queue_depth = depth;
        knobs.prefetch_window = window;
        const std::string label = "rep=" + std::to_string(rep) + " d=" + std::to_string(depth) +
                                  " pf=" + std::to_string(window);
        expect_same_replay(simulate_parallel(t, knobs), simulate_parallel(t, base), label);
        expect_same_replay(simulate_parallel_reference(t, knobs), simulate_parallel(t, knobs),
                           label + " (scan oracle)");
        const PagedParallelResult paged = simulate_parallel_paged(t, paged_config(knobs, 2));
        expect_same_paged_replay(paged, simulate_parallel_paged(t, paged_config(base, 2)), label);
        EXPECT_EQ(paged.write_queue_peak, 0) << label;
        EXPECT_EQ(paged.prefetch_issued, 0) << label;
      }
    }
  }
}

// Negative knobs are rejected by every engine with the shared message.
TEST(DiskPipeline, NegativeKnobsRejectedByAllEngines) {
  util::Rng rng(27013);
  const Tree t = test::small_random_tree(12, 6, rng);
  for (const bool negative_window : {false, true}) {
    ParallelConfig c;
    c.memory = t.min_feasible_memory();
    if (negative_window)
      c.prefetch_window = -1;
    else
      c.write_queue_depth = -1;
    EXPECT_THROW(simulate_parallel(t, c), std::invalid_argument);
    EXPECT_THROW(simulate_parallel_reference(t, c), std::invalid_argument);
    EXPECT_THROW(simulate_parallel_paged(t, paged_config(c, 2)), std::invalid_argument);
  }
}

// The write queue is bounded by its knob: after any enqueue at most
// write_queue_depth transfers are pending (write_queue_peak ledger), and
// an effectively unbounded queue never back-pressures a worker. Page
// accounting survives the asynchronous path: write-at-most-once (written
// plus dropped-clean never exceeds the page population per eviction
// history), frames stay bounded, and the device-time ledgers are
// non-negative and consistent with the transfer counts.
TEST(DiskPipeline, WriteQueueBoundedAndConserving) {
  util::Rng rng(27017);
  for (int rep = 0; rep < 6; ++rep) {
    const Tree t = (rep % 2 == 0) ? test::small_random_tree(40, 14, rng)
                                  : test::small_random_wide_tree(40, 14, rng);
    const Weight page = 2;
    const Weight memory = parallel::min_feasible_frames(t, page) * page;
    for (const int workers : {1, 2, 4}) {
      for (const int depth : {1, 2, 4, 1 << 20}) {
        ParallelConfig base;
        base.workers = workers;
        base.memory = memory;
        base.seed = 5u + static_cast<std::uint64_t>(rep);
        base.write_queue_depth = depth;
        PagedParallelConfig cfg = paged_config(base, page);
        cfg.disk = iosim::DiskModel{0.25, 4.0};
        const PagedParallelResult r = simulate_parallel_paged(t, cfg);
        const std::string label = "rep=" + std::to_string(rep) + " w=" + std::to_string(workers) +
                                  " depth=" + std::to_string(depth);
        ASSERT_TRUE(r.base.feasible) << label;
        EXPECT_LE(r.write_queue_peak, depth) << label;
        if (depth == 1 << 20) {
          EXPECT_EQ(r.write_stall, 0.0) << label;
        }
        EXPECT_GE(r.write_stall, 0.0) << label;
        // Dirty pages flush exactly once: the written count can never
        // exceed the page population, however the queue reorders flushes.
        EXPECT_LE(r.pages_written, total_pages_of(t, page)) << label;
        EXPECT_LE(r.peak_frames_used, r.frames) << label;
        // Every queued flush is pure device time on the shared disk.
        if (r.pages_written > 0) {
          EXPECT_GT(r.disk_write_time, 0.0) << label;
        } else {
          EXPECT_EQ(r.disk_write_time, 0.0) << label;
        }
      }
    }
  }
}

// Device-time conservation: with a single worker the pipeline can hide
// transfer time under compute but never invent capacity — stall time is
// bounded by the pure device time of all transfers. (With several workers
// one busy device can stall many workers at once, so no such bound holds;
// only the single-worker ledger is an invariant.) The prefetch ledger
// balances exactly for every worker count: each page fetched ahead is
// later consumed or evicted, never both, never neither.
TEST(DiskPipeline, StallConservationAndPrefetchLedger) {
  util::Rng rng(27023);
  std::int64_t issued_total = 0;
  for (int rep = 0; rep < 8; ++rep) {
    const Tree t = (rep % 2 == 0) ? test::small_random_tree(48, 14, rng)
                                  : test::small_random_wide_tree(48, 14, rng);
    const Weight page = 2;
    const Weight memory = (parallel::min_feasible_frames(t, page) + 2) * page;
    for (const int workers : {1, 2, 4}) {
      ParallelConfig base;
      base.workers = workers;
      base.memory = memory;
      base.seed = 11u + static_cast<std::uint64_t>(rep);
      base.write_queue_depth = 4;
      base.prefetch_window = 4;
      PagedParallelConfig cfg = paged_config(base, page);
      cfg.disk = iosim::DiskModel{0.5, 4.0};
      const PagedParallelResult r = simulate_parallel_paged(t, cfg);
      const std::string label = "rep=" + std::to_string(rep) + " w=" + std::to_string(workers);
      ASSERT_TRUE(r.base.feasible) << label;
      if (workers == 1) {
        EXPECT_LE(r.read_stall + r.write_stall, r.disk_read_time + r.disk_write_time + 1e-9)
            << label;
      }
      EXPECT_EQ(r.prefetch_issued, r.prefetch_useful + r.prefetch_wasted) << label;
      // Prefetched pages are real reads on the shared device, so they are
      // part of the read ledger, not free.
      EXPECT_LE(r.prefetch_issued, r.pages_read) << label;
      issued_total += r.prefetch_issued;
    }
  }
  // The sweep runs at tight memory with a window: prefetching must have
  // actually happened somewhere or the suite is vacuous.
  EXPECT_GT(issued_total, 0);
}

// Under memory pressure with an aggressive window some prefetched pages
// get evicted before their consumer starts — the wasted ledger must see
// them. Aggregated across the sweep so the pin does not hinge on one
// seed's eviction history.
TEST(DiskPipeline, AggressivePrefetchProducesWaste) {
  util::Rng rng(27029);
  std::int64_t wasted_total = 0;
  std::int64_t useful_total = 0;
  for (int rep = 0; rep < 10; ++rep) {
    const Tree t = (rep % 2 == 0) ? test::small_random_tree(48, 14, rng)
                                  : test::small_random_wide_tree(48, 14, rng);
    const Weight page = 2;
    ParallelConfig base;
    base.workers = 4;
    base.memory = parallel::min_feasible_frames(t, page) * page;
    base.seed = 3u + static_cast<std::uint64_t>(rep);
    base.write_queue_depth = 4;
    base.prefetch_window = 8;
    PagedParallelConfig cfg = paged_config(base, page);
    cfg.disk = iosim::DiskModel{0.5, 2.0};
    const PagedParallelResult r = simulate_parallel_paged(t, cfg);
    ASSERT_TRUE(r.base.feasible) << "rep=" << rep;
    EXPECT_EQ(r.prefetch_issued, r.prefetch_useful + r.prefetch_wasted) << "rep=" << rep;
    wasted_total += r.prefetch_wasted;
    useful_total += r.prefetch_useful;
  }
  EXPECT_GT(wasted_total, 0);
  EXPECT_GT(useful_total, 0);
}

// The point of the pipeline: across a stall-heavy sweep the pipelined
// engine recovers read stall relative to the synchronous configuration
// (same config, knobs zeroed). Individual instances may regress —
// Graham-style anomalies are real — so the pin is aggregate.
TEST(DiskPipeline, PipelineRecoversReadStallInAggregate) {
  util::Rng rng(27031);
  double sync_stall = 0.0;
  double piped_stall = 0.0;
  for (int rep = 0; rep < 8; ++rep) {
    const Tree t = (rep % 2 == 0) ? test::small_random_tree(56, 14, rng)
                                  : test::small_random_wide_tree(56, 14, rng);
    const Weight page = 2;
    for (const int workers : {2, 4}) {
      ParallelConfig base;
      base.workers = workers;
      base.memory = std::max<Weight>(static_cast<Weight>(workers) * t.min_feasible_memory(),
                                     parallel::min_feasible_frames(t, page) * page);
      base.priority = Priority::kSequentialOrder;
      base.backfill_depth = 8;
      base.seed = 17u + static_cast<std::uint64_t>(rep);
      PagedParallelConfig sync = paged_config(base, page);
      sync.disk = iosim::DiskModel{0.5, 2.0};
      PagedParallelConfig piped = sync;
      piped.base.write_queue_depth = 4;
      piped.base.prefetch_window = 4;
      const PagedParallelResult s = simulate_parallel_paged(t, sync);
      const PagedParallelResult p = simulate_parallel_paged(t, piped);
      ASSERT_TRUE(s.base.feasible && p.base.feasible) << "rep=" << rep;
      sync_stall += s.read_stall;
      piped_stall += p.read_stall + p.write_stall;
    }
  }
  ASSERT_GT(sync_stall, 0.0);
  EXPECT_LT(piped_stall, sync_stall);
}

}  // namespace
}  // namespace ooctree
