// Parallel out-of-core tree execution — the paper's declared next step
// (Section 7: "moving to parallel out-of-core execution").
//
// A pool of identical workers processes the task tree under a *shared*
// memory bound M. While task i runs it holds its transient wbar(i); its
// children's outputs are consumed at start (after reading back any evicted
// parts) and its own output stays resident until its parent starts. When a
// start does not fit, active outputs are evicted (partially, paging model)
// — or the start is delayed. The simulator is event-driven and reports
// makespan, written volume and the full execution trace, so the
// parallelism-vs-I/O tradeoff that motivates the paper's future work can
// be measured (bench_parallel_tradeoff, bench_parallel_scaling,
// bench_paged_parallel).
//
// Units. The *unit-granular* API (simulate_parallel) accounts residency in
// abstract memory units, exactly like core::simulate_fif; the *paged* API
// (simulate_parallel_paged) accounts in fixed-size pages the way a real
// paging runtime would: memory is frames = M / page_size, every datum
// occupies page_count(weight) = ceil(weight / page_size) frames, and a
// running task holds task_frames = max(sum of child pages, ceil(wbar /
// page_size)) frames (the page geometry declared below). With page_size = 1
// the two accountings coincide unit-for-unit. At one worker in a fixed
// sequential order it is the sequential pager: Belady eviction at
// page_size = 1 then writes exactly what core::simulate_fif counts, and the
// other policies show how far from Theorem 1's bound they land
// (bench_ablation_eviction, bench_paged_parallel).
//
// One engine implements both: simulate_parallel is the page_size = 1,
// free-read specialization of the paged core, so the two APIs cannot
// drift. The core is a class local to parallel_sim.cpp (PagedEngine) that
// holds one replay's state — per-node page arrays, the ready set, the
// eviction index, the device clock and the per-round scratch — and runs
// each scheduling round as phases:
//   * slot scan — every free worker slot walks the ready set in priority
//     order, at most backfill_depth tasks deep (0 = all), and starts the
//     fitting task of its window with the fewest child pages to read back,
//     ties to priority. Without residency-aware starts (or without a disk
//     model, where reads are free) every candidate counts as fully
//     resident, so the first fitting task starts: the strict/backfill rule.
//     There is one scan for both;
//   * start, spill and read — a start evicts until it fits (each spill
//     writes only never-written pages, through the write queue when one is
//     set) and reads its children's evicted pages back, demand reads and
//     prefetch reads alike through one device timeline;
//   * predict and stage — with prefetch_window > 0, replay the start rule
//     against the in-flight completions and stage the predicted starts'
//     evicted pages;
//   * complete — advance to the next finish event and ready its parent;
//   * audit — under OOCTREE_AUDIT builds only (below).
// Invariants of the core:
//   * transactional starts — fitting reduces to the O(1) check
//     running_frames + task_frames(i) <= frames (every live output except
//     i's own children is fully evictable), so a start that cannot fit
//     mutates nothing and eviction I/O is charged exactly once per real
//     spill;
//   * write-at-most-once — dirtiness is tracked per page; evicting a page
//     whose disk copy exists is free, so a datum's written volume never
//     exceeds its page-rounded size;
//   * indexed eviction and ready set — victims come from
//     core::EvictionIndex and ready tasks from a segment tree over their
//     fixed priority ranks (ReadySet, src/parallel/ready_set.hpp), each in
//     O(log n), never from a scan of all n nodes. Under kSequentialOrder
//     the ranks are the reference positions, taken as they are in O(n);
//     the other priorities sort once, O(n log n). The set is built in O(n)
//     from the initially ready leaves. A slot's scan jumps to the next
//     ready task that fits and counts the ready tasks it passed as failed
//     starts, so failures cost nothing per task: without residency the
//     scans run in O((n + evictions) log n) per simulation. With it a slot
//     also weighs its window's fitting candidates, O(window) per slot
//     (backfill_depth tasks, or every fitting ready task at depth 0). The
//     prefetch prediction replays the start rule against the in-flight
//     completions, O(prefetch_window · (depth + workers)) per round that
//     has an unreserved frame. It reads its candidates by a word scan of
//     the set's ready-rank bitset, and the per-round scratch (the replayed
//     event heap and the write queue's ring included) reuses its buffers,
//     so a round allocates nothing. A round whose running tasks reserve
//     every frame has no free frame to stage into and no resident output
//     to evict, so it skips the prediction; at full memory it also stops
//     predicting once the consumer of the staging victim is predicted,
//     which pins the victim so that nothing would be staged (not under
//     kRandom, whose victim draw consumes the RNG).
// Under OOCTREE_AUDIT builds (the dev preset) the audit phase re-checks
// these invariants after every completion event — reservation balance,
// frames conservation, write-at-most-once, mutation-free failed starts —
// and, every round, that a full reservation coincides with full memory and
// an empty eviction index, throwing core::AuditError on drift
// (src/core/check.hpp; exercised plus fault-injected by
// tests/test_audit.cpp). Outside audit builds the checks and the fault
// hooks compile away.
// Three engines in tests/oracles/, outside the shipped library, are the
// differential oracles; the two parallel ones rank tasks through the same
// prepare_replay().
// The scan-based unit engine (parallel::oracle::simulate_parallel_reference,
// O(n) victim scan + sort per start) is pinned bit-identical by
// tests/test_parallel_incremental.cpp. The heap-scan paged engine
// (parallel::oracle::simulate_parallel_paged_reference, a binary-heap ready
// queue that pops every failed start) covers the disk model, the residency
// scan and the pipeline: tests/test_paged_parallel.cpp checks every
// PagedParallelResult field against it. The sequential pager
// (parallel::oracle::run_pager_reference, one task per step in a fixed
// schedule) pins the paged accounting at one worker, and the sequential FiF
// counter pins it at page_size = 1 (tests/test_pager.cpp,
// tests/test_paged_parallel.cpp).
//
// Read costs. The unit engine keeps the paper's convention that reads
// mirror writes and cost no time. The paged engine optionally folds the
// iosim::DiskModel disk-cost model into the makespan: reading spilled
// pages back stalls the consuming worker for transfer_time(volume,
// transfers) before compute begins, so spills delay dependent task starts
// (the ROADMAP read-cost item). The default — no disk model — keeps reads
// free and makes the paged engine reproduce simulate_parallel bit-for-bit
// at page_size = 1.
//
// Disk pipeline. On top of the disk model the paged engine models an
// asynchronous two-sided pipeline (the ROADMAP "Asynchronous disk
// pipeline" item): ParallelConfig::write_queue_depth bounds a queue of
// lazy eviction write-backs (a full queue backpressures the evicting
// worker — write_stall), and ParallelConfig::prefetch_window issues
// look-ahead reads for the evicted child pages of the tasks the scheduler
// will start next. The prediction replays the engine's own start rule —
// priority order, first-fit within the backfill window, parents activated
// by in-flight completions — so prefetch targets what will actually run,
// not the raw head of the ready set. All transfers serialize through one
// device timeline with demand and prefetch reads taking priority over the
// unstarted write backlog (a started write is never preempted), so
// overlap hides transfer time under compute but never exceeds DiskModel
// capacity. Both knobs at 0 (the default) reproduce the synchronous
// engine bit-for-bit; tests/test_disk_pipeline.cpp pins that baseline
// plus the queue-depth, conservation and prefetch-accounting contracts.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/eviction.hpp"
#include "src/core/traversal.hpp"
#include "src/core/tree.hpp"
#include "src/iosim/trace.hpp"

namespace ooctree::parallel {

/// How a task's duration is derived from the tree.
enum class CostModel {
  kWbar,    ///< duration = wbar(i): front size drives the flop count
  kWeight,  ///< duration = w(i)
  kUnit,    ///< duration = 1
};

/// Which ready task starts first when a worker frees up.
enum class Priority {
  kSequentialOrder,  ///< follow a reference sequential schedule's order
  kCriticalPath,     ///< longest remaining path to the root first
  kHeaviestSubtree,  ///< largest remaining subtree work first
};

/// Simulation knobs.
struct ParallelConfig {
  int workers = 2;
  core::Weight memory = 0;
  CostModel cost = CostModel::kWbar;
  Priority priority = Priority::kCriticalPath;
  /// Backfill look-ahead: when the best-priority ready task does not fit in
  /// memory even after evicting every evictable byte, lower-priority ready
  /// tasks may start instead. At most this many ready tasks are examined
  /// per free worker slot before the round gives up. A failed look costs
  /// nothing: one O(log n) walk of the ready set skips every ready task
  /// that does not fit, and the scan charges the ones it skipped to
  /// failed_starts and backfill_scans by count, capped at this depth.
  /// 0 = scan every ready task; 1 = strict priority order (the pool idles
  /// until memory frees up).
  /// Starts within one round only shrink the memory slack, so a bounded
  /// scan never misses a task that a later scan of the same round could
  /// have started.
  int backfill_depth = 0;
  /// Residency-aware starts (paged engine with a DiskModel only): among the
  /// fitting tasks of a slot's backfill window, start the one whose child
  /// pages are most resident (fewest pages to read back), ties broken by
  /// priority. Turns the read-stall charge into schedule input. Inert — the
  /// engines stay bit-identical with it on or off — when reads are free.
  bool residency_aware = false;
  /// Disk-pipeline write side (paged engine with a DiskModel only).
  /// 0 (the default) keeps the synchronous model — evictions write for
  /// free, bit-identical to the pre-pipeline engine. > 0 bounds an
  /// asynchronous write queue: every eviction that flushes dirty pages
  /// enqueues one transfer on the shared disk timeline; when all slots
  /// hold pending transfers the evicting worker stalls until the oldest
  /// drains (accounted as write_stall, separate from read_stall). Inert
  /// without a disk model.
  int write_queue_depth = 0;
  /// Disk-pipeline read side (paged engine with a DiskModel only). > 0
  /// makes every scheduling round predict the next prefetch_window starts
  /// (by replaying the start rule against the in-flight completions) and
  /// issue asynchronous reads for their evicted child pages, overlapping
  /// the transfer with compute: pages that arrive before the consuming
  /// start are read-stall-free. Staging may evict — clean pages first,
  /// never the children of predicted starts, and never past write-queue
  /// backpressure. Rounds in which staging provably moves nothing skip
  /// the prediction (see the invariants above). 0 disables look-ahead —
  /// every read-back is a demand read at task start. Inert without a disk
  /// model.
  int prefetch_window = 0;
  /// Which live output loses units when a start needs room. kBelady evicts
  /// the output whose parent runs furthest in the *reference* order — the
  /// rule the paper proves optimal for a fixed sequential schedule.
  core::EvictionPolicy evict = core::EvictionPolicy::kBelady;
  std::uint64_t seed = 1;  ///< for EvictionPolicy::kRandom
};

/// Outcome of a parallel simulation.
struct ParallelResult {
  bool feasible = false;
  double makespan = 0.0;
  core::Weight io_volume = 0;        ///< written volume (reads mirror writes)
  core::IoFunction io;               ///< per-output written amounts
  core::Schedule start_order;        ///< tasks by start time
  std::vector<double> start_time;    ///< per task
  std::vector<double> finish_time;   ///< per task
  core::Weight peak_resident = 0;    ///< never exceeds memory when feasible
  double busy_time = 0.0;            ///< sum of task durations
  std::int64_t failed_starts = 0;    ///< tries rejected for lack of memory
  /// Backfill accounting: `backfill_scans` counts ready tasks examined
  /// beyond the first of each slot scan; `backfill_hits` counts starts that
  /// were not the best-priority candidate of their scan. Both are 0 at
  /// backfill_depth = 1 (strict priority never looks past the head).
  std::int64_t backfill_scans = 0;
  std::int64_t backfill_hits = 0;

  /// Worker utilization in [0, 1].
  [[nodiscard]] double utilization(int workers) const {
    return makespan > 0 ? busy_time / (makespan * workers) : 1.0;
  }
};

/// Pages needed to hold `units` memory units (ceil division): the page
/// geometry of a datum.
[[nodiscard]] inline core::Weight page_count(core::Weight units, core::Weight page_size) {
  return (units + page_size - 1) / page_size;
}

/// Frames a task occupies while executing: its children's page-rounded
/// outputs plus the transient extra, i.e. max(sum of child pages,
/// ceil(wbar / page_size)). At page_size = 1 this is wbar(node) under both
/// memory models (wbar >= sum of child weights by construction).
[[nodiscard]] core::Weight task_frames(const core::Tree& tree, core::NodeId node,
                                       core::Weight page_size);

/// The page-granular analogue of Tree::min_feasible_memory(): the smallest
/// frame count under which every single task's working set fits (per-child
/// page rounding makes this larger than ceil(LB / page_size)).
[[nodiscard]] core::Weight min_feasible_frames(const core::Tree& tree, core::Weight page_size);

/// Paged-engine knobs: the unit-granular config plus the page geometry and
/// an optional disk-cost model. `base.memory` stays in memory units; the
/// engine runs on frames = base.memory / page_size.
struct PagedParallelConfig {
  ParallelConfig base;
  core::Weight page_size = 1;  ///< memory units per page (> 0)
  /// When set, reading evicted pages back at a task start stalls the
  /// consuming worker for DiskModel::transfer_time(volume, transfers)
  /// before compute begins — spilled pages delay dependent starts. When
  /// absent (the default) reads cost no time, matching simulate_parallel.
  std::optional<iosim::DiskModel> disk;
};

/// Outcome of a paged parallel simulation. `base.io` / `base.io_volume`
/// report *written* volume in memory units (pages written x page_size);
/// `base.peak_resident` is peak_frames_used x page_size. With the disk
/// model set, `base.makespan` includes read stalls while `base.busy_time`
/// stays compute-only, so utilization() reports useful work.
struct PagedParallelResult {
  ParallelResult base;
  core::Weight frames = 0;                ///< memory / page_size
  std::int64_t pages_written = 0;         ///< dirty pages flushed (once per page)
  std::int64_t pages_read = 0;            ///< read-backs of evicted pages
  std::int64_t pages_dropped_clean = 0;   ///< evicted pages with a disk copy
  std::int64_t eviction_events = 0;       ///< victim picks that freed frames
  std::int64_t peak_frames_used = 0;      ///< never exceeds frames when feasible
  std::int64_t read_transfers = 0;        ///< read-back operations (per child datum)
  double read_stall = 0.0;                ///< total worker time waiting on reads

  // Disk pipeline (write_queue_depth / prefetch_window under a disk model;
  // all zero on the synchronous path). The conservation contract pinned by
  // tests/test_disk_pipeline.cpp: disk_read_time + disk_write_time is the
  // pure device time of every transfer, read_stall + write_stall is the
  // worker time the device actually cost, and the difference is the time
  // the pipeline hid under compute (>= 0 with one worker; on the
  // synchronous path read_stall == disk_read_time exactly).
  double write_stall = 0.0;           ///< worker time stalled on a full write queue
  std::int64_t write_queue_peak = 0;  ///< max pending write transfers after any enqueue
  std::int64_t prefetch_issued = 0;   ///< pages fetched ahead of their consuming start
  std::int64_t prefetch_useful = 0;   ///< prefetched pages still resident when consumed
  std::int64_t prefetch_wasted = 0;   ///< prefetched pages evicted before use
  double disk_read_time = 0.0;        ///< pure device time of all read transfers
  double disk_write_time = 0.0;       ///< pure device time of all write transfers
};

/// Runs the simulation. `reference` supplies the order for
/// Priority::kSequentialOrder and the Belady eviction key (furthest in the
/// reference order is evicted first); pass an empty schedule to use a
/// postorder computed internally. Throws std::invalid_argument on bad
/// configs. Equivalent to simulate_parallel_paged at page_size = 1 with no
/// disk model (it is that call).
[[nodiscard]] ParallelResult simulate_parallel(const core::Tree& tree,
                                               const ParallelConfig& config,
                                               const core::Schedule& reference = {});

/// The paged engine: residency tracked in pages with per-page dirtiness,
/// shared-memory worker pool semantics as simulate_parallel. Anchors
/// (pinned by tests/test_paged_parallel.cpp):
///   * page_size = 1, no disk model  -> bit-identical to simulate_parallel;
///   * workers = 1, sequential order, backfill_depth 1 -> page I/O identical to
///     the sequential pager oracle (parallel::oracle::run_pager_reference)
///     on the same schedule (and, at page_size = 1, I/O volume and peak
///     identical to core::simulate_fif).
[[nodiscard]] PagedParallelResult simulate_parallel_paged(const core::Tree& tree,
                                                          const PagedParallelConfig& config,
                                                          const core::Schedule& reference = {});

/// Validated inputs of one replay: the reference order, each task's
/// position in it, and each task's priority key (higher starts first, ties
/// to the earlier reference position). The engine and both test oracles
/// rank through this one function.
struct PreparedReplay {
  core::Schedule ref;
  std::vector<std::size_t> ref_pos;
  std::vector<double> priority_key;
};

/// Validates `config` and derives the PreparedReplay; `reference` as for
/// simulate_parallel. Throws std::invalid_argument on bad configs or a
/// non-topological reference.
[[nodiscard]] PreparedReplay prepare_replay(const core::Tree& tree, const ParallelConfig& config,
                                            const core::Schedule& reference);

/// Duration of task `node` under the cost model.
[[nodiscard]] double task_cost(const core::Tree& tree, core::NodeId node, CostModel cost);

/// Critical-path length under the cost model: a makespan lower bound.
[[nodiscard]] double critical_path(const core::Tree& tree, CostModel cost);

/// Total work under the cost model: busy_time of any feasible run.
[[nodiscard]] double total_work(const core::Tree& tree, CostModel cost);

}  // namespace ooctree::parallel
