#include "src/parallel/parallel_sim.hpp"

#include <algorithm>
#include <deque>
#include <queue>
#include <stdexcept>

#include "src/core/check.hpp"
#include "src/core/minmem_postorder.hpp"
#include "src/parallel/ready_set.hpp"
#include "src/util/rng.hpp"

namespace ooctree::parallel {

using core::EvictionPolicy;
using core::kNoNode;
using core::NodeId;
using core::Schedule;
using core::Tree;
using core::Weight;

namespace {

std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }

/// Policy key of a live output, normalized the way EvictionIndex expects
/// raw keys (the index flips LRU internally; the reference engine flips in
/// its comparator). In this simulator outputs are written once and only
/// read back at consumption, so a datum's LRU clock is the completion clock
/// of the producing task (or of its latest prefetch).
std::int64_t policy_key(EvictionPolicy policy, const Tree& tree, NodeId node, Weight resident,
                        std::int64_t clock, const std::vector<std::size_t>& ref_pos) {
  switch (policy) {
    case EvictionPolicy::kBelady:
      return static_cast<std::int64_t>(ref_pos[idx(tree.parent(node))]);
    case EvictionPolicy::kLru:
      return clock;
    case EvictionPolicy::kLargestFirst:
      return resident;
    case EvictionPolicy::kRandom:
      return 0;
  }
  throw std::invalid_argument("simulate_parallel: unknown eviction policy");
}

/// Checks that `ref` is a topological order of `tree` and records each
/// task's position in it in the same pass (n marks a task not yet seen).
bool fill_positions(const Tree& tree, const Schedule& ref, std::vector<std::size_t>& pos) {
  const std::size_t n = tree.size();
  pos.assign(n, n);
  if (ref.size() != n) return false;
  for (std::size_t t = 0; t < n; ++t) {
    const NodeId node = ref[t];
    if (node < 0 || idx(node) >= n || pos[idx(node)] != n) return false;
    for (const NodeId c : tree.children(node))
      if (pos[idx(c)] == n) return false;
    pos[idx(node)] = t;
  }
  return true;
}

}  // namespace

double task_cost(const Tree& tree, NodeId node, CostModel cost) {
  switch (cost) {
    case CostModel::kWbar: return static_cast<double>(tree.wbar(node));
    case CostModel::kWeight: return static_cast<double>(tree.weight(node));
    case CostModel::kUnit: return 1.0;
  }
  throw std::invalid_argument("task_cost: unknown cost model");
}

PreparedReplay prepare_replay(const Tree& tree, const ParallelConfig& config,
                              const Schedule& reference) {
  if (config.workers < 1) throw std::invalid_argument("simulate_parallel: need >= 1 worker");
  if (config.backfill_depth < 0)
    throw std::invalid_argument("simulate_parallel: backfill_depth must be >= 0");
  if (config.write_queue_depth < 0)
    throw std::invalid_argument("simulate_parallel: write_queue_depth must be >= 0");
  if (config.prefetch_window < 0)
    throw std::invalid_argument("simulate_parallel: prefetch_window must be >= 0");

  PreparedReplay p;
  p.ref = reference.empty() ? core::postorder_minmem(tree).schedule : reference;
  if (!fill_positions(tree, p.ref, p.ref_pos))
    throw std::invalid_argument("simulate_parallel: reference is not a topological order");

  // The aggregates walk the validated reference, which lists every child
  // before its parent, and accumulate in place.
  std::vector<double>& key = p.priority_key;
  key.assign(tree.size(), 0.0);
  switch (config.priority) {
    case Priority::kSequentialOrder:
      for (std::size_t i = 0; i < tree.size(); ++i) key[i] = -static_cast<double>(p.ref_pos[i]);
      break;
    case Priority::kCriticalPath:  // longest cost path down to a leaf
      for (const NodeId v : p.ref) {
        double deepest = 0.0;
        for (const NodeId c : tree.children(v)) deepest = std::max(deepest, key[idx(c)]);
        key[idx(v)] = deepest + task_cost(tree, v, config.cost);
      }
      break;
    case Priority::kHeaviestSubtree:  // cost of the whole subtree
      for (const NodeId v : p.ref) {
        double work = task_cost(tree, v, config.cost);
        for (const NodeId c : tree.children(v)) work += key[idx(c)];
        key[idx(v)] = work;
      }
      break;
  }
  return p;
}

double critical_path(const Tree& tree, CostModel cost) {
  std::vector<double> up(tree.size(), 0.0);
  double best = 0.0;
  for (const NodeId v : tree.postorder()) {
    double deepest_child = 0.0;
    for (const NodeId c : tree.children(v)) deepest_child = std::max(deepest_child, up[idx(c)]);
    up[idx(v)] = deepest_child + task_cost(tree, v, cost);
    best = std::max(best, up[idx(v)]);
  }
  return best;
}

double total_work(const Tree& tree, CostModel cost) {
  double total = 0.0;
  for (std::size_t i = 0; i < tree.size(); ++i)
    total += task_cost(tree, static_cast<NodeId>(i), cost);
  return total;
}

Weight task_frames(const Tree& tree, NodeId node, Weight page_size) {
  if (page_size <= 0) throw std::invalid_argument("task_frames: bad page size");
  Weight child_pages = 0;
  for (const NodeId c : tree.children(node)) child_pages += page_count(tree.weight(c), page_size);
  return std::max(child_pages, page_count(tree.wbar(node), page_size));
}

Weight min_feasible_frames(const Tree& tree, Weight page_size) {
  if (page_size <= 0) throw std::invalid_argument("min_feasible_frames: bad page size");
  Weight frames = 0;
  for (std::size_t i = 0; i < tree.size(); ++i)
    frames = std::max(frames, task_frames(tree, static_cast<NodeId>(i), page_size));
  return frames;
}

ParallelResult simulate_parallel(const Tree& tree, const ParallelConfig& config,
                                 const Schedule& reference) {
  // The unit-granular engine IS the paged core at page_size = 1 with free
  // reads: pages coincide with memory units, task_frames(i) collapses to
  // wbar(i), and every evicted page is dirty — so the paged accounting
  // degenerates to the unit accounting exactly (no divergence possible).
  PagedParallelConfig paged;
  paged.base = config;
  paged.page_size = 1;
  return simulate_parallel_paged(tree, paged, reference).base;
}

PagedParallelResult simulate_parallel_paged(const Tree& tree, const PagedParallelConfig& config,
                                            const Schedule& reference) {
  if (config.page_size <= 0)
    throw std::invalid_argument("simulate_parallel_paged: page_size must be positive");
  PreparedReplay prep = prepare_replay(tree, config.base, reference);
  const std::vector<std::size_t>& ref_pos = prep.ref_pos;
  const std::vector<double>& priority_key = prep.priority_key;
  const ParallelConfig& base = config.base;
  const Weight page = config.page_size;

  PagedParallelResult paged;
  paged.frames = base.memory / page;
  const Weight frames = paged.frames;
  ParallelResult& result = paged.base;
  result.io.assign(tree.size(), 0);
  result.start_time.assign(tree.size(), -1.0);
  result.finish_time.assign(tree.size(), -1.0);
  result.start_order.reserve(tree.size());

  // Page geometry: a datum occupies total_pages frames; a running task
  // holds work_frames = task_frames (children's page-rounded outputs +
  // transient extra).
  std::vector<Weight> total_pages(tree.size(), 0);
  std::vector<Weight> work_frames(tree.size(), 0);
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    total_pages[i] = page_count(tree.weight(id), page);
    work_frames[i] = task_frames(tree, id, page);
  }

  // State. Liveness needs no flags here: a live output with resident pages
  // is exactly an EvictionIndex entry, and `resident` covers the rest.
  // Dirtiness is per page: resident - dirty pages have a disk copy and are
  // dropped for free on eviction (write-at-most-once).
  std::vector<Weight> resident(tree.size(), 0);  // in-memory pages of outputs
  std::vector<Weight> dirty(tree.size(), 0);     // resident pages with no disk copy
  std::vector<std::size_t> missing_children(tree.size(), 0);
  for (std::size_t i = 0; i < tree.size(); ++i)
    missing_children[i] = tree.num_children(static_cast<NodeId>(i));

  // Ready tasks in the rank-indexed set. Rank order is priority order:
  // higher priority key first, ties to the earlier reference position.
  // Under kSequentialOrder the keys are -ref_pos, all distinct, so the
  // reference is already in rank order and ref_pos is the rank. Otherwise
  // the order is a strict total one, so sorting the reference gives the
  // same ranks as sorting any other permutation.
  const std::size_t n = tree.size();
  std::vector<NodeId> by_rank = std::move(prep.ref);
  std::vector<std::size_t> sorted_rank_of;
  if (base.priority != Priority::kSequentialOrder) {
    std::sort(by_rank.begin(), by_rank.end(), [&](NodeId a, NodeId b) {
      const double ka = priority_key[idx(a)];
      const double kb = priority_key[idx(b)];
      return ka != kb ? ka > kb : ref_pos[idx(a)] < ref_pos[idx(b)];
    });
    sorted_rank_of.resize(n);
    for (std::size_t r = 0; r < n; ++r) sorted_rank_of[idx(by_rank[r])] = r;
  }
  const std::vector<std::size_t>& rank_of =
      base.priority == Priority::kSequentialOrder ? ref_pos : sorted_rank_of;
  // The leaves are the initially ready tasks: placed, then built in O(n).
  ReadySet ready(n);
  for (std::size_t i = 0; i < n; ++i)
    if (missing_children[i] == 0) ready.place(rank_of[i], work_frames[i]);
  ready.build();

  // Running tasks as (finish_time, node) events.
  using Event = std::pair<double, NodeId>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> running;
  int idle = base.workers;
  double now = 0.0;
  Weight frames_used = 0;     // running reservations + live output pages
  Weight running_frames = 0;  // sum of work_frames over running tasks
  std::int64_t clock = 0;     // completion clock (LRU keys)

  util::Rng rng(base.seed);
  core::EvictionIndex index(base.evict, tree.size(),
                            base.evict == EvictionPolicy::kRandom ? &rng : nullptr);

  // Disk pipeline. Engaged only under a disk model with a nonzero knob:
  // both knobs at 0 leave every branch below dead, so the synchronous
  // engine is reproduced bit-for-bit (pinned by tests/test_disk_pipeline).
  const bool pipelined =
      config.disk.has_value() && (base.write_queue_depth > 0 || base.prefetch_window > 0);
  const bool async_writes = pipelined && base.write_queue_depth > 0;
  const bool prefetching = pipelined && base.prefetch_window > 0;
  // One device shared by prefetch reads, demand reads and queued writes,
  // with read priority: reads serialize against each other and against
  // any write the device already started, but jump ahead of the queued
  // write backlog (write-back is lazy and latency-insensitive; reads gate
  // compute). `disk_free` is the single-server busy-until clock, so the
  // device never does two transfers at once — DiskModel capacity holds by
  // construction. A pending write starts whenever the device is idle and
  // then blocks later arrivals (non-preemptive, work-conserving).
  double disk_free = 0.0;
  std::deque<std::pair<double, Weight>> write_queue;  // pending write-backs: (enqueue time, pages)
  const auto drain_writes = [&](double t) {
    while (!write_queue.empty()) {
      const double start = std::max(disk_free, write_queue.front().first);
      if (start >= t) break;  // not started by t: unstarted backlog yields to reads
      disk_free = start + config.disk->transfer_time(write_queue.front().second * page, 1);
      write_queue.pop_front();
    }
  };
  const auto issue_read = [&](double at, Weight pages_moved) -> double {
    drain_writes(at);
    const double pure = config.disk->transfer_time(pages_moved * page, 1);
#if OOCTREE_AUDIT_ENABLED
    const double device_was = disk_free;
    // Test-only fault: double-book the device — the transfer "completes"
    // before the serial timeline has room for it.
    if (core::fault::parallel_engine.load(std::memory_order_relaxed) & 16) {
      disk_free = std::min(device_was, at) - pure;
    } else {
      disk_free = std::max(disk_free, at) + pure;
    }
    core::audit_check(disk_free >= device_was && disk_free >= at + pure,
                      "simulate_parallel_paged: disk transfer exceeds DiskModel capacity");
#else
    disk_free = std::max(disk_free, at) + pure;
#endif
    return disk_free;
  };
  // Prefetch bookkeeping: pages that arrived ahead of their consuming
  // start sit resident but clean (their disk copy persists), tracked per
  // child along with the completion time of the latest in-flight read.
  std::vector<Weight> prefetched(prefetching ? tree.size() : 0, 0);
  std::vector<double> prefetch_ready(prefetching ? tree.size() : 0, 0.0);
  // Children of the current look-ahead window: never prefetch-eviction
  // victims (staging must not thrash pages the next starts consume).
  std::vector<char> prefetch_pinned(prefetching ? tree.size() : 0, 0);

#if OOCTREE_AUDIT_ENABLED
  // Audit-only running set (the event queue is not iterable): lets the
  // audit recompute the reservation sum independently of running_frames.
  std::vector<NodeId> audit_running;
  // Invariants of the shared transactional-start core, checked after every
  // completion event and at the end of the run (see parallel_sim.hpp):
  //   * reservation balance — running_frames is exactly the sum of
  //     work_frames over running tasks;
  //   * conservation — frames_used is exactly running reservations plus
  //     resident output pages, and never exceeds the frame count;
  //   * write-at-most-once — a datum's written volume never exceeds its
  //     page-rounded size, and the aggregate equals the per-node sum.
  const auto audit_state = [&] {
    Weight resident_total = 0;
    Weight io_total = 0;
    for (std::size_t i = 0; i < tree.size(); ++i) {
      core::audit_check(dirty[i] >= 0 && dirty[i] <= resident[i],
                        "simulate_parallel_paged: dirty pages outside [0, resident]");
      core::audit_check(resident[i] <= total_pages[i],
                        "simulate_parallel_paged: resident pages exceed the datum size");
      core::audit_check(result.io[i] <= total_pages[i] * page,
                        "simulate_parallel_paged: datum written beyond its size (write-once)");
      // Every clean resident page of this engine arrived via prefetch
      // (outputs are produced fully dirty and demand reads are consumed on
      // arrival), so the prefetch ledger must equal the clean residency.
      if (prefetching)
        core::audit_check(prefetched[i] == resident[i] - dirty[i],
                          "simulate_parallel_paged: prefetch ledger out of sync with "
                          "clean residency");
      resident_total += resident[i];
      io_total += result.io[i];
    }
    if (async_writes)
      core::audit_check(static_cast<int>(write_queue.size()) <= base.write_queue_depth,
                        "simulate_parallel_paged: pending writes exceed write_queue_depth");
    core::audit_check(io_total == result.io_volume,
                      "simulate_parallel_paged: io_volume != sum of per-node I/O");
    // The ready set holds exactly the tasks whose children all completed
    // and that have not started.
    ready.audit();
    for (std::size_t i = 0; i < n; ++i)
      core::audit_check(ready.contains(rank_of[i]) ==
                            (missing_children[i] == 0 && result.start_time[i] < 0.0),
                        "simulate_parallel_paged: ready set out of sync with the task states");
    Weight reservation_total = 0;
    for (const NodeId r : audit_running) reservation_total += work_frames[idx(r)];
    core::audit_check(reservation_total == running_frames,
                      "simulate_parallel_paged: running reservation out of balance");
    core::audit_check(resident_total + running_frames == frames_used,
                      "simulate_parallel_paged: frames conservation broken");
    core::audit_check(frames_used <= frames,
                      "simulate_parallel_paged: frames_used exceeds the frame count");
    index.audit();
  };
#endif

  // Transactional start: the O(1) fit check below is exact — every live
  // output except i's children is fully evictable (dirty pages cost a
  // write, clean ones are dropped free), so i fits (after eviction) iff
  // the running reservations plus work_frames(i) do. A task that fails it
  // is never touched, and eviction I/O is charged exactly once per real
  // spill (the seed engine flushed victims and charged io_volume even when
  // the start then failed, making results depend on how often backfill
  // retried).
  const auto fits = [&](NodeId i) -> bool {
    return running_frames + work_frames[idx(i)] <= frames;
  };
  // Failed starts are counted, not replayed: a scan charges the ready tasks
  // it passed over in one step, and every charge goes through this hook.
  const auto charge_failed_starts = [&](std::int64_t count) {
    if (count == 0) return;
    result.failed_starts += count;
#if OOCTREE_AUDIT_ENABLED
    // Snapshot-free transactional check: a failure charge runs before any
    // mutation, so the accounting aggregates must be exactly what the
    // scan saw. The fault below re-introduces the seed engine's bug
    // (failed starts charged I/O) for tests/test_audit.cpp to catch.
    const Weight io_before = result.io_volume;
    if (core::fault::parallel_engine.load(std::memory_order_relaxed) & 1)
      result.io_volume += page;
    core::audit_check(result.io_volume == io_before,
                      "simulate_parallel_paged: failed start mutated I/O accounting");
#endif
  };

  // One victim spill, shared by start-time eviction and prefetch staging:
  // take `take` pages from live output v at the caller's local clock
  // `at_clock`. Clean pages drop free; only never-written pages cost a
  // write-back (write-at-most-once). Under async writes a full queue
  // stalls the caller slot-by-slot when `may_stall`; otherwise the spill
  // is refused with no state touched (prefetch is opportunistic — it must
  // never block or charge anything the demand path would not).
  const auto spill = [&](NodeId v, Weight take, double& at_clock, bool may_stall) -> bool {
    // Clean pages are dropped first; only never-written pages cost I/O.
    const Weight clean = resident[idx(v)] - dirty[idx(v)];
    const Weight written = std::max<Weight>(0, take - clean);
    if (async_writes && written > 0) {
      // Slots whose transfers the device completed by the caller's clock
      // are free again.
      drain_writes(at_clock);
      bool backpressure = true;
#if OOCTREE_AUDIT_ENABLED
      // Test-only fault: ignore backpressure so pending writes overflow
      // the queue's slots — the conservation audit must convict.
      if (core::fault::parallel_engine.load(std::memory_order_relaxed) & 4)
        backpressure = false;
#endif
      if (!may_stall && backpressure &&
          static_cast<int>(write_queue.size()) >= base.write_queue_depth)
        return false;
      // A full queue stalls the evicting worker until the oldest pending
      // transfer is forced through the device — one slot, not the whole
      // queue (write_stall).
      while (backpressure && static_cast<int>(write_queue.size()) >= base.write_queue_depth) {
        const double start = std::max(disk_free, std::max(write_queue.front().first, at_clock));
        const double completion =
            start + config.disk->transfer_time(write_queue.front().second * page, 1);
        paged.write_stall += completion - at_clock;
        at_clock = completion;
        disk_free = completion;
        write_queue.pop_front();
      }
    }
    resident[idx(v)] -= take;
    dirty[idx(v)] -= written;
    frames_used -= take;
    paged.pages_written += written;
    paged.pages_dropped_clean += take - written;
    ++paged.eviction_events;
    result.io[idx(v)] += written * page;
    result.io_volume += written * page;
    // Dropped clean pages are exactly prefetched-but-unconsumed pages
    // (outputs are produced fully dirty): they count as wasted prefetch.
    if (prefetching && take > written) {
      const Weight wasted = std::min(prefetched[idx(v)], take - written);
      prefetched[idx(v)] -= wasted;
      paged.prefetch_wasted += wasted;
    }
    if (async_writes && written > 0) {
      paged.disk_write_time += config.disk->transfer_time(written * page, 1);
      write_queue.emplace_back(at_clock, written);
      paged.write_queue_peak = std::max<std::int64_t>(
          paged.write_queue_peak, static_cast<std::int64_t>(write_queue.size()));
#if OOCTREE_AUDIT_ENABLED
      // Queue-slot conservation: an enqueue never leaves more pending
      // transfers than the queue has slots.
      core::audit_check(static_cast<int>(write_queue.size()) <= base.write_queue_depth,
                        "simulate_parallel_paged: pending writes exceed write_queue_depth");
#endif
    }
    if (resident[idx(v)] == 0) {
      index.erase(v);
    } else if (base.evict == EvictionPolicy::kLargestFirst) {
      index.insert(v, resident[idx(v)]);  // re-key after the partial spill
    }
    return true;
  };

  // Starts ready task i, which the caller's scan found to fit.
  const auto start = [&](NodeId i) {
#if OOCTREE_AUDIT_ENABLED
    core::audit_check(fits(i), "simulate_parallel_paged: start without a passing fit check");
#endif
    ready.erase(rank_of[idx(i)]);
    Weight child_resident = 0;
    for (const NodeId c : tree.children(i)) child_resident += resident[idx(c)];
    // Frame delta of starting i: children read back to their full page
    // counts, then their pages fold into the reservation work_frames(i);
    // the reservation dominates because work_frames >= sum of child pages.
    const Weight delta = work_frames[idx(i)] - child_resident;

    // The children are consumed by this start: never eviction victims.
    for (const NodeId c : tree.children(i))
      if (resident[idx(c)] > 0) index.erase(c);

    // Committed: evict live outputs (furthest-consumer first under Belady)
    // until the start fits. The precheck guarantees the index suffices.
    // `start_at` is this worker's local clock: write-queue backpressure
    // pushes it past `now` before any read is issued or compute begins.
    const Weight target = frames - delta;
    double start_at = now;
    while (frames_used > target) {
      const NodeId v = index.pick();
      spill(v, std::min(resident[idx(v)], frames_used - target), start_at,
            /*may_stall=*/true);
    }

    // Consume the children: read evicted pages back (read-back pages come
    // off disk unmodified — they would stay clean) and fold their outputs
    // into the reservation. With a disk model the consuming worker stalls
    // for the transfer before compute begins: spills delay this start.
    Weight read_pages = 0;
    std::int64_t transfers = 0;
    double io_ready = start_at;  // completion of the last transfer this start waits on
    for (const NodeId c : tree.children(i)) {
      const Weight missing = total_pages[idx(c)] - resident[idx(c)];
      if (missing > 0) {
        read_pages += missing;
        ++transfers;
        if (pipelined) {
          // Demand read on the shared device timeline: queues behind any
          // pending transfer instead of assuming a free disk.
          paged.disk_read_time += config.disk->transfer_time(missing * page, 1);
          io_ready = std::max(io_ready, issue_read(start_at, missing));
        }
      }
      if (prefetching && prefetched[idx(c)] > 0) {
        // Pages fetched ahead of this start pay only their residual
        // transfer time (zero once the read completed under compute).
        paged.prefetch_useful += prefetched[idx(c)];
        io_ready = std::max(io_ready, prefetch_ready[idx(c)]);
        prefetched[idx(c)] = 0;
      }
      frames_used -= resident[idx(c)];
      resident[idx(c)] = 0;
      dirty[idx(c)] = 0;
    }
    paged.pages_read += read_pages;
    paged.read_transfers += transfers;
    double stall = 0.0;
    if (pipelined) {
      stall = io_ready - start_at;
      paged.read_stall += stall;
    } else if (config.disk.has_value() && read_pages > 0) {
      stall = config.disk->transfer_time(read_pages * page, transfers);
      paged.read_stall += stall;
      paged.disk_read_time += stall;  // synchronous: the wait IS the device time
    }
    frames_used += work_frames[idx(i)];
    running_frames += work_frames[idx(i)];
    paged.peak_frames_used = std::max<std::int64_t>(paged.peak_frames_used, frames_used);
    result.peak_resident = std::max(result.peak_resident, frames_used * page);

    result.start_time[idx(i)] = now;
    result.start_order.push_back(i);
    const double cost = task_cost(tree, i, base.cost);
    result.busy_time += cost;  // compute only: read/write stalls are not useful work
    running.emplace(start_at + stall + cost, i);
    --idle;
#if OOCTREE_AUDIT_ENABLED
    audit_running.push_back(i);
#endif
  };

  // Backfill contract: each free worker slot examines at most `depth` ready
  // tasks (0 = every ready task, 1 = strict priority) before the round
  // gives up. Starts within a round only grow running_frames, so a task
  // that failed the fit check cannot fit later in the same round: a scan
  // passes it for the rest of the round, and it is looked at again only
  // after a completion frees memory.
  const int depth = base.backfill_depth;
  const bool residency = base.residency_aware && config.disk.has_value();
  std::size_t completed = 0;
  std::vector<std::size_t> losers;      // residency scan: ranks that fit but lost a window
  std::vector<std::size_t> window;      // residency scan: fitting candidates' ranks
  std::vector<std::int64_t> window_at;  // examined index of each window entry
  std::vector<NodeId> pinned;           // prefetch scan: marked window children
  std::vector<NodeId> cands;            // prefetch scan: candidates in scan order
  std::vector<NodeId> predicted;        // prefetch scan: predicted next starts
  std::vector<char> taken;              // prefetch scan: candidates already predicted
  std::vector<std::pair<NodeId, int>> sim_dec;  // prefetch scan: replayed completions
  decltype(running) run_copy;                   // prefetch scan: replayed event heap
  while (completed < n) {
    if (!residency) {
      // Start ready tasks in priority order: the first fitting task of the
      // (depth-bounded) scan is the best-priority fitting one. One ready-set
      // walk from the cursor finds it, and the ready tasks it passed over
      // are the slot's failed starts.
      std::size_t cursor = 0;
      while (idle > 0) {
        std::int64_t passed = 0;
        const std::size_t r = ready.first_fit(cursor, frames - running_frames, passed);
        if (depth > 0 && passed >= depth) {  // the window fills with failures
          charge_failed_starts(depth);
          result.backfill_scans += depth - 1;
          break;
        }
        charge_failed_starts(passed);
        if (r == n) {  // nothing left fits this round
          if (passed > 0) result.backfill_scans += passed - 1;
          break;
        }
        result.backfill_scans += passed;
        if (passed > 0) ++result.backfill_hits;
        start(by_rank[r]);
        cursor = r + 1;
      }
    } else {
      // Residency-aware slot scan: collect the fitting tasks of the backfill
      // window and start the one with the fewest child pages to read back
      // (ties: best priority, i.e. scan order). A fully resident candidate
      // ends the scan — nothing can beat zero missing pages. Fitting tasks
      // that lose the tie stay ready without counting as failures; when
      // reads cost nothing the rule never fires (missing pages are free),
      // and the gate above keeps the free-read engines bit-identical.
      // Scan order is priority order over what the round has not passed:
      // first the window losers still ready (sorted ranks below
      // `frontier`), then the ranks from `frontier` on, which no slot of
      // this round has looked at yet.
      losers.clear();
      std::size_t frontier = 0;
      while (idle > 0) {
        window.clear();
        window_at.clear();
        std::size_t best = 0;
        Weight best_missing = -1;
        std::int64_t examined = 0;
        // Adds a fitting candidate to the window; true once one is fully
        // resident.
        const auto consider = [&](std::size_t rank) {
          Weight missing = 0;
          for (const NodeId c : tree.children(by_rank[rank])) {
            missing += total_pages[idx(c)] - resident[idx(c)];
#if OOCTREE_AUDIT_ENABLED
            // A live output with resident pages is exactly an EvictionIndex
            // entry — the residency signal and the victim index must agree.
            core::audit_check(index.contains(c) == (resident[idx(c)] > 0),
                              "simulate_parallel_paged: residency scan out of sync with "
                              "the eviction index");
#endif
          }
          if (best_missing < 0 || missing < best_missing) {
            best_missing = missing;
            best = window.size();
          }
          window.push_back(rank);
          window_at.push_back(examined);
          return best_missing == 0;
        };
        // The losers come first, and the scan always examines all of them:
        // a slot leaves at most depth - 1 losers, and none is fully
        // resident (a fully resident candidate wins its slot, and residency
        // only drops within a round).
        bool done = false;
        for (const std::size_t rank : losers) {
          ++examined;
          if (fits(by_rank[rank])) {
            done = consider(rank);
          } else {
            charge_failed_starts(1);
          }
        }
#if OOCTREE_AUDIT_ENABLED
        core::audit_check(!done && (depth == 0 || examined < depth),
                          "simulate_parallel_paged: a window loser ended the residency scan");
#endif
        while (!done && (depth == 0 || examined < depth)) {
          std::int64_t passed = 0;
          const std::size_t r = ready.first_fit(frontier, frames - running_frames, passed);
          if (depth > 0 && examined + passed >= depth) {  // the window fills with failures
            const std::int64_t failing = depth - examined;
            charge_failed_starts(failing);
            examined = depth;
            frontier = ready.kth(frontier, failing) + 1;
            break;
          }
          charge_failed_starts(passed);
          examined += passed;
          if (r == n) {
            frontier = n;
            break;
          }
          ++examined;
          frontier = r + 1;
          done = consider(r);
        }
        if (examined > 0) result.backfill_scans += examined - 1;
        if (window.empty()) break;  // nothing in the window fits: round over
        // The window's losers stay ready; the next slot examines them first.
        losers.clear();
        for (std::size_t k = 0; k < window.size(); ++k)
          if (k != best) losers.push_back(window[k]);
        start(by_rank[window[best]]);
        if (window_at[best] != 1) ++result.backfill_hits;
      }
    }

#if OOCTREE_AUDIT_ENABLED
    // The look-ahead guard below relies on this equivalence, which follows
    // from frame conservation (frames_used = resident pages +
    // running_frames) and from resident outputs being the index entries.
    core::audit_check((running_frames == frames) == (frames_used >= frames && index.empty()),
                      "simulate_parallel_paged: full reservation disagrees with an empty "
                      "eviction index at full memory");
#endif

    // When running tasks reserve every frame, no output has a resident
    // page: staging would find no free frame and an empty eviction index
    // at its first child that needs pages, and stop there with no state
    // touched. The round skips the prediction instead of computing it.
    if (prefetching && !running.empty() && running_frames < frames) {
      // Look-ahead prefetch: peek the top prefetch_window ready tasks —
      // the next starts in priority order — and stage their evicted child
      // pages back in before the consuming start, overlapping the reads
      // with the compute currently running. Staging may evict through the
      // shared index: the victim it picks is the one the demand start
      // would spill anyway, just earlier. Two guards keep it opportunistic
      // rather than disruptive: it never evicts a child of the peeked
      // window itself (that would thrash pages the upcoming starts are
      // about to consume), and when the write queue is full it gives up
      // the round instead of stalling. Fetched pages land clean (their
      // disk copy persists), join the eviction index (an eviction before
      // use counts them prefetch_wasted), and their transfers run on the
      // shared device timeline.
      // Prediction: raw priority order mispredicts badly at tight memory
      // (the top ready tasks usually fail the fit check and backfill
      // starts deeper candidates — failed_starts dwarfs starts; worse,
      // most reads happen at parents that only become ready at an
      // upcoming completion, so they are not even ready yet). The
      // staging target list therefore replays the scheduler's own rule
      // against the known future: completions free worker reservations in
      // finish order (the running heap is visible), each one may activate
      // a parent (missing_children bookkeeping), and each round starts
      // the first ready task of the backfill window whose reservation
      // fits — all deterministic from here. The first predicted start is
      // exact; later ones degrade gracefully.
      // The candidates start as the first scan_cap ready ranks, read in
      // place by the bitset's word scan. The sum is 64-bit: both knobs may
      // be as large as INT_MAX.
      const std::int64_t scan_cap =
          std::int64_t{base.prefetch_window} + (depth > 0 ? depth : 16);
      cands.clear();
      for (std::size_t r = ready.next(0); r < n; r = ready.next(r + 1)) {
        cands.push_back(by_rank[r]);
        if (static_cast<std::int64_t>(cands.size()) >= scan_cap) break;
      }
      predicted.clear();
      taken.assign(cands.size(), 0);
      sim_dec.clear();
      // At full memory staging spills index.pick() for its first child
      // that needs pages, and stops there if that victim is pinned, i.e. if
      // the victim's consumer is a predicted start. Once the prediction
      // reaches the consumer nothing would be staged, so the round stops
      // predicting. kRandom is excluded: its pick() draws from the RNG.
      const NodeId victim_consumer =
          frames_used >= frames && base.evict != EvictionPolicy::kRandom
              ? tree.parent(index.pick())
              : kNoNode;
      bool consumer_predicted = false;
      {
        // The replay is self-extending: a predicted start's completion
        // (round time + cost, both known) re-enters the event heap and can
        // activate further parents, so the horizon is bounded by the
        // window, not by the current running set. Copy-assigning reuses
        // the heap's buffer, so a prediction round allocates nothing.
        run_copy = running;
        Weight run_frames_pred = running_frames;
        int idle_pred = idle;
        while (!consumer_predicted && !run_copy.empty() &&
               static_cast<int>(predicted.size()) < base.prefetch_window) {
          const auto [done_at, done] = run_copy.top();
          run_copy.pop();
          run_frames_pred -= work_frames[idx(done)];
          ++idle_pred;
          const NodeId par = tree.parent(done);
          if (par != kNoNode) {
            int seen = 1;
            for (auto& [p, cnt] : sim_dec)
              if (p == par) seen = ++cnt;
            if (seen == 1) sim_dec.emplace_back(par, 1);
            if (static_cast<std::size_t>(seen) == missing_children[idx(par)]) {
              // The parent becomes ready at this completion: merge it into
              // the candidate list at its scan position.
              std::size_t pos = 0;
              while (pos < cands.size() && rank_of[idx(cands[pos])] < rank_of[idx(par)]) ++pos;
              cands.insert(cands.begin() + static_cast<std::ptrdiff_t>(pos), par);
              taken.insert(taken.begin() + static_cast<std::ptrdiff_t>(pos), 0);
            }
          }
          // One scheduling round after this completion: priority order,
          // at most `depth` examined per start, started tasks leave the
          // scan (deferred candidates return only between rounds).
          std::int64_t examined = 0;
          for (std::size_t k2 = 0; k2 < cands.size() && idle_pred > 0 &&
                                   static_cast<int>(predicted.size()) < base.prefetch_window;
               ++k2) {
            if (taken[k2]) continue;
            ++examined;
            if (run_frames_pred + work_frames[idx(cands[k2])] <= frames) {
              taken[k2] = 1;
              predicted.push_back(cands[k2]);
              run_frames_pred += work_frames[idx(cands[k2])];
              run_copy.emplace(done_at + task_cost(tree, cands[k2], base.cost), cands[k2]);
              --idle_pred;
              examined = 0;
              if (cands[k2] == victim_consumer) {
                consumer_predicted = true;
                break;
              }
            } else if (depth > 0 && examined >= depth) {
              break;
            }
          }
        }
      }
      if (consumer_predicted) predicted.clear();
      pinned.clear();
      for (const NodeId tgt : predicted)
        for (const NodeId c : tree.children(tgt))
          if (!prefetch_pinned[idx(c)]) {
            prefetch_pinned[idx(c)] = 1;
            pinned.push_back(c);
          }
      bool open = true;  // staging stops for the round at the first refusal
      for (const NodeId tgt : predicted) {
        if (!open) break;
        for (const NodeId c : tree.children(tgt)) {
          if (!open) break;
          // A child that has not completed yet has no on-disk copy to
          // read — its output materializes in memory at completion.
          if (result.finish_time[idx(c)] < 0.0) continue;
          Weight missing = total_pages[idx(c)] - resident[idx(c)];
#if OOCTREE_AUDIT_ENABLED
          // Test-only fault: size the read from the datum's full page
          // count, re-fetching resident pages — the audit must convict
          // before any state is touched.
          if (core::fault::parallel_engine.load(std::memory_order_relaxed) & 8)
            missing = total_pages[idx(c)];
#endif
          while (missing > 0) {
            const Weight free_frames = frames - frames_used;
            if (free_frames <= 0) {
              // No head-room: stage the upcoming start's own eviction
              // early, unless the victim is pinned or the queue is full.
              if (index.empty()) {
                open = false;
                break;
              }
              const NodeId v = index.pick();
              if (prefetch_pinned[idx(v)]) {
                open = false;
                break;
              }
              double at = now;
              if (!spill(v, std::min(resident[idx(v)], missing), at,
                         /*may_stall=*/false)) {
                open = false;
                break;
              }
              continue;  // frames freed: re-check the head-room
            }
            const Weight take = std::min(missing, free_frames);
#if OOCTREE_AUDIT_ENABLED
            core::audit_check(resident[idx(c)] + take <= total_pages[idx(c)],
                              "simulate_parallel_paged: prefetch of already-resident pages");
#endif
            paged.disk_read_time += config.disk->transfer_time(take * page, 1);
            prefetch_ready[idx(c)] =
                std::max(prefetch_ready[idx(c)], issue_read(now, take));
            resident[idx(c)] += take;
            prefetched[idx(c)] += take;
            frames_used += take;
            paged.peak_frames_used = std::max<std::int64_t>(paged.peak_frames_used, frames_used);
            result.peak_resident = std::max(result.peak_resident, frames_used * page);
            paged.prefetch_issued += take;
            paged.pages_read += take;
            ++paged.read_transfers;
            // A live output with resident pages is an EvictionIndex entry;
            // insert() upserts, re-keying partially resident outputs (the
            // prefetch counts as a touch under LRU).
            index.insert(c, policy_key(base.evict, tree, c, resident[idx(c)], clock, ref_pos));
            missing -= take;
          }
        }
      }
      for (const NodeId c : pinned) prefetch_pinned[idx(c)] = 0;
    }

    if (running.empty()) {
      // No task running and nothing startable: with all evictable pages
      // flushed the smallest work_frames must fit, so this means the frame
      // count is below min_feasible_frames.
      result.feasible = false;
      return paged;
    }

    // Advance to the next completion.
    const auto [finish, node] = running.top();
    running.pop();
    now = finish;
    result.finish_time[idx(node)] = now;
    ++idle;
    ++completed;
    ++clock;

    // Reservation work_frames collapses to the output's page count; the
    // output is produced in memory, so every page starts dirty.
    frames_used -= work_frames[idx(node)];
    running_frames -= work_frames[idx(node)];
#if OOCTREE_AUDIT_ENABLED
    audit_running.erase(std::find(audit_running.begin(), audit_running.end(), node));
    // Test-only seed-bug class: completion leaks one frame of its
    // reservation — the conservation audit below must catch it.
    if (core::fault::parallel_engine.load(std::memory_order_relaxed) & 2) ++frames_used;
#endif
    if (node != tree.root()) {
      frames_used += total_pages[idx(node)];
      resident[idx(node)] = total_pages[idx(node)];
      dirty[idx(node)] = total_pages[idx(node)];
      if (total_pages[idx(node)] > 0)
        index.insert(node, policy_key(base.evict, tree, node, total_pages[idx(node)], clock,
                                      ref_pos));
    }

    const NodeId parent = tree.parent(node);
    if (parent != kNoNode && --missing_children[idx(parent)] == 0)
      ready.insert(rank_of[idx(parent)], work_frames[idx(parent)]);

#if OOCTREE_AUDIT_ENABLED
    audit_state();
#endif
  }

#if OOCTREE_AUDIT_ENABLED
  audit_state();
  core::audit_check(frames_used == 0 && running_frames == 0,
                    "simulate_parallel_paged: frames still allocated after the root completed");
  // Every prefetched page ends consumed or evicted: the wasted/useful
  // split conserves against the issue count once the root completed.
  core::audit_check(paged.prefetch_issued == paged.prefetch_useful + paged.prefetch_wasted,
                    "simulate_parallel_paged: prefetched pages neither consumed nor evicted");
#endif
  result.makespan = now;
  result.feasible = true;
  return paged;
}

}  // namespace ooctree::parallel
