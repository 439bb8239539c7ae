#include "src/parallel/parallel_sim.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

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

namespace {

/// A running task as its (finish time, node) completion event. The running
/// set is a min-heap of these on a plain vector, driven by std::push_heap /
/// std::pop_heap exactly as std::priority_queue would drive it, so the
/// audit and the prefetch prediction can read and copy it.
using Event = std::pair<double, NodeId>;

void push_event(std::vector<Event>& heap, Event event) {
  heap.push_back(event);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

Event pop_event(std::vector<Event>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  const Event event = heap.back();
  heap.pop_back();
  return event;
}

/// Pending write-backs in FIFO order on one reused buffer: a ring that
/// doubles when full, so a replay allocates O(log peak) times however many
/// writes it enqueues. It is never sized from write_queue_depth, which a
/// request may set as large as INT_MAX.
class WriteQueue {
 public:
  struct Entry {
    double enqueued = 0.0;
    Weight pages = 0;
  };

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const Entry& front() const { return slots_[head_]; }
  void pop_front() {
    if (++head_ == slots_.size()) head_ = 0;
    --size_;
  }
  void push_back(Entry entry) {
    if (size_ == slots_.size()) {  // full: unroll the ring, then double it
      std::rotate(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                  slots_.end());
      slots_.resize(std::max<std::size_t>(8, 2 * size_));
      head_ = 0;
    }
    slots_[(head_ + size_) % slots_.size()] = entry;
    ++size_;
  }

 private:
  std::vector<Entry> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// One paged replay: the state of simulate_parallel_paged and one method
/// per phase of a scheduling round (see parallel_sim.hpp). The caller runs
/// the rounds: scan_slots(), prefetch(), complete_next().
class PagedEngine {
 public:
  PagedEngine(const Tree& tree, const PagedParallelConfig& config, const Schedule& reference)
      : tree_(tree), config_(config), prep_(prepare_replay(tree, config.base, reference)) {
    paged_.frames = frames_;
    result_.io.assign(n_, 0);
    result_.start_time.assign(n_, -1.0);
    result_.finish_time.assign(n_, -1.0);
    result_.start_order.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      const auto id = static_cast<NodeId>(i);
      total_pages_[i] = page_count(tree.weight(id), page_);
      work_frames_[i] = task_frames(tree, id, page_);
      missing_children_[i] = tree.num_children(id);
    }
    if (base_.priority != Priority::kSequentialOrder) {
      const std::vector<std::size_t>& ref_pos = prep_.ref_pos;
      const std::vector<double>& key = prep_.priority_key;
      std::sort(by_rank_.begin(), by_rank_.end(), [&](NodeId a, NodeId b) {
        return key[idx(a)] != key[idx(b)] ? key[idx(a)] > key[idx(b)]
                                          : ref_pos[idx(a)] < ref_pos[idx(b)];
      });
      sorted_rank_of_.resize(n_);
      for (std::size_t r = 0; r < n_; ++r) sorted_rank_of_[idx(by_rank_[r])] = r;
    }
    // The leaves are the initially ready tasks: placed, then built in O(n).
    for (std::size_t i = 0; i < n_; ++i)
      if (missing_children_[i] == 0) ready_.place(rank_of_[i], work_frames_[i]);
    ready_.build();
  }
  // The eviction index points at rng_ and result_ into paged_: no copies.
  PagedEngine(const PagedEngine&) = delete;
  PagedEngine& operator=(const PagedEngine&) = delete;
  PagedEngine(PagedEngine&&) = delete;
  PagedEngine& operator=(PagedEngine&&) = delete;
  ~PagedEngine() = default;

  [[nodiscard]] bool pending() const { return completed_ < n_; }

  // The slot scan. Backfill contract: each free worker slot examines at
  // most `depth_` ready tasks (0 = every ready task, 1 = strict priority)
  // before the round gives up. Starts within a round only grow
  // running_frames_, so a task that failed the fit check cannot fit later
  // in the same round: a scan passes it for the rest of the round, and it
  // is looked at again only after a completion frees memory.
  //
  // Each slot collects the fitting tasks of its window and starts the one
  // with the fewest child pages to read back, ties to the best priority
  // (scan order). A fully resident candidate ends the scan, since nothing
  // beats zero missing pages; without residency-aware starts every
  // candidate counts as fully resident, so the first fitting task starts
  // and the scan is the strict/backfill one. Fitting tasks that lose stay
  // ready without counting as failures. Scan order is priority order over
  // what the round has not passed: first the window losers still ready,
  // then the ranks from `frontier` on, which no slot of this round has
  // looked at yet. One ready-set walk from the frontier skips every task
  // that does not fit and charges them as the slot's failed starts.
  void scan_slots() {
    losers_.clear();
    std::size_t frontier = 0;
    while (idle_ > 0) {
      window_.clear();
      std::size_t best = 0;
      Weight best_missing = -1;
      std::int64_t examined = 0;
      // Adds a fitting candidate to the window; true once one is fully
      // resident.
      const auto consider = [&](std::size_t rank) {
        const Weight missing = missing_pages(by_rank_[rank]);
        if (best_missing < 0 || missing < best_missing) {
          best_missing = missing;
          best = window_.size();
        }
        window_.push_back({rank, examined});
        return best_missing == 0;
      };
      // The losers come first, and the scan always examines all of them: a
      // slot leaves at most depth - 1 losers, and none is fully resident (a
      // fully resident candidate wins its slot, and residency only drops
      // within a round).
      bool done = false;
      for (const std::size_t rank : losers_) {
        ++examined;
        if (fits(by_rank_[rank])) {
          done = consider(rank);
        } else {
          charge_failed_starts(1);
        }
      }
      OOCTREE_AUDIT_CHECK(!done && (depth_ == 0 || examined < depth_),
                          "simulate_parallel_paged: a window loser ended the residency scan");
      while (!done && (depth_ == 0 || examined < depth_)) {
        std::int64_t passed = 0;
        const std::size_t r = ready_.first_fit(frontier, frames_ - running_frames_, passed);
        if (depth_ > 0 && examined + passed >= depth_) {  // the window fills with failures
          const std::int64_t failing = depth_ - examined;
          charge_failed_starts(failing);
          examined = depth_;
          // Only a slot that still starts a candidate hands the round on,
          // and the next slot resumes past the failures.
          if (!window_.empty()) frontier = ready_.kth(frontier, failing) + 1;
          break;
        }
        charge_failed_starts(passed);
        examined += passed;
        if (r == n_) {
          frontier = n_;
          break;
        }
        ++examined;
        frontier = r + 1;
        done = consider(r);
      }
      if (examined > 0) result_.backfill_scans += examined - 1;
      if (window_.empty()) break;  // nothing in the window fits: round over
      // The window's losers stay ready; the next slot examines them first.
      losers_.clear();
      for (std::size_t k = 0; k < window_.size(); ++k)
        if (k != best) losers_.push_back(window_[k].rank);
      start(by_rank_[window_[best].rank]);
      if (window_[best].examined != 1) ++result_.backfill_hits;
    }
  }

  // Look-ahead prefetch: predict the next starts and stage their evicted
  // child pages back in before the consuming start, overlapping the reads
  // with the compute currently running. Staging may evict through the
  // shared index: the victim it picks is the one the demand start would
  // spill anyway, just earlier. Two guards keep it opportunistic rather
  // than disruptive: it never evicts a child of a predicted start (that
  // would thrash pages the upcoming starts are about to consume), and when
  // the write queue is full it gives up the round instead of stalling.
  // Fetched pages land clean (their disk copy persists), join the eviction
  // index (an eviction before use counts them prefetch_wasted), and their
  // transfers run on the shared device timeline.
  void prefetch() {
    // The guard below relies on this equivalence, which follows from frame
    // conservation (frames_used = resident pages + running_frames) and from
    // resident outputs being the index entries.
    OOCTREE_AUDIT_CHECK(
        (running_frames_ == frames_) == (frames_used_ >= frames_ && index_.empty()),
        "simulate_parallel_paged: full reservation disagrees with an empty eviction index at "
        "full memory");
    // When running tasks reserve every frame, no output has a resident
    // page: staging would find no free frame and an empty eviction index at
    // its first child that needs pages, and stop there with no state
    // touched. The round skips the prediction instead of computing it.
    if (!prefetching_ || running_.empty() || running_frames_ >= frames_) return;
    predict_starts();
    for (const NodeId tgt : predicted_)
      for (const NodeId c : tree_.children(tgt)) prefetch_pinned_[idx(c)] = 1;
    // Staging stops for the round at the first refusal.
    for (const NodeId tgt : predicted_) {
      const auto children = tree_.children(tgt);
      if (!std::all_of(children.begin(), children.end(), [&](NodeId c) { return stage(c); }))
        break;
    }
    for (const NodeId tgt : predicted_)
      for (const NodeId c : tree_.children(tgt)) prefetch_pinned_[idx(c)] = 0;
  }

  // Advances to the next completion; false when no task is running.
  bool complete_next() {
    if (running_.empty()) return false;
    const auto [finish, node] = pop_event(running_);
    now_ = finish;
    result_.finish_time[idx(node)] = now_;
    ++idle_;
    ++completed_;
    ++clock_;

    // Reservation work_frames collapses to the output's page count; the
    // output is produced in memory, so every page starts dirty.
    frames_used_ -= work_frames_[idx(node)];
    running_frames_ -= work_frames_[idx(node)];
    // Fault 2 leaks one frame of the reservation — the conservation audit
    // below must catch it.
    if (core::parallel_engine_fault(2)) ++frames_used_;
    if (node != tree_.root()) {
      const Weight pages = total_pages_[idx(node)];
      frames_used_ += pages;
      resident_[idx(node)] = pages;
      dirty_[idx(node)] = pages;
      if (pages > 0)
        index_.insert(node, policy_key(base_.evict, tree_, node, pages, clock_, prep_.ref_pos));
    }

    const NodeId parent = tree_.parent(node);
    if (parent != kNoNode && --missing_children_[idx(parent)] == 0)
      ready_.insert(rank_of_[idx(parent)], work_frames_[idx(parent)]);

    if constexpr (OOCTREE_AUDIT_ENABLED) audit();
    return true;
  }

  PagedParallelResult finish(bool feasible) {
    if (feasible) {
      if constexpr (OOCTREE_AUDIT_ENABLED) audit();
      OOCTREE_AUDIT_CHECK(frames_used_ == 0 && running_frames_ == 0,
                          "simulate_parallel_paged: frames still allocated after the root "
                          "completed");
      // Every prefetched page ends consumed or evicted: the wasted/useful
      // split conserves against the issue count once the root completed.
      OOCTREE_AUDIT_CHECK(
          paged_.prefetch_issued == paged_.prefetch_useful + paged_.prefetch_wasted,
          "simulate_parallel_paged: prefetched pages neither consumed nor evicted");
      result_.makespan = now_;
      result_.feasible = true;
    }
    return std::move(paged_);
  }

 private:
  struct Candidate {
    std::size_t rank = 0;
    std::int64_t examined = 0;  ///< its 1-based position in the slot's scan
  };

  [[nodiscard]] bool fits(NodeId i) const {
    return running_frames_ + work_frames_[idx(i)] <= frames_;
  }

  // Child pages task i would read back if it started now: the residency
  // scan's signal. Without residency-aware starts every task counts as
  // fully resident.
  [[nodiscard]] Weight missing_pages(NodeId i) const {
    Weight missing = 0;
    if (!residency_) return missing;
    for (const NodeId c : tree_.children(i)) {
      missing += total_pages_[idx(c)] - resident_[idx(c)];
      // A live output with resident pages is exactly an EvictionIndex
      // entry — the residency signal and the victim index must agree.
      OOCTREE_AUDIT_CHECK(index_.contains(c) == (resident_[idx(c)] > 0),
                          "simulate_parallel_paged: residency scan out of sync with the "
                          "eviction index");
    }
    return missing;
  }

  // Failed starts are counted, not replayed: a scan charges the ready tasks
  // it passed over in one step, and every charge goes through here.
  void charge_failed_starts(std::int64_t count) {
    if (count == 0) return;
    result_.failed_starts += count;
    // Snapshot-free transactional check: a failure charge runs before any
    // mutation, so the accounting aggregates must be exactly what the scan
    // saw. Fault 1 re-introduces the seed engine's bug (failed starts
    // charged I/O) for tests/test_audit.cpp to catch.
    [[maybe_unused]] const Weight io_before = result_.io_volume;
    if (core::parallel_engine_fault(1)) result_.io_volume += page_;
    OOCTREE_AUDIT_CHECK(result_.io_volume == io_before,
                        "simulate_parallel_paged: failed start mutated I/O accounting");
  }

  // Transactional start of ready task i, which the slot scan found to fit.
  // The O(1) fit check is exact: every live output except i's children is
  // fully evictable (dirty pages cost a write, clean ones are dropped
  // free), so i fits (after eviction) iff the running reservations plus
  // work_frames(i) do. A task that fails it is never touched, and eviction
  // I/O is charged exactly once per real spill.
  void start(NodeId i) {
    OOCTREE_AUDIT_CHECK(fits(i), "simulate_parallel_paged: start without a passing fit check");
    ready_.erase(rank_of_[idx(i)]);
    Weight child_resident = 0;
    for (const NodeId c : tree_.children(i)) child_resident += resident_[idx(c)];
    // Frame delta of starting i: children read back to their full page
    // counts, then their pages fold into the reservation work_frames(i);
    // the reservation dominates because work_frames >= sum of child pages.
    const Weight delta = work_frames_[idx(i)] - child_resident;

    // The children are consumed by this start: never eviction victims.
    for (const NodeId c : tree_.children(i))
      if (resident_[idx(c)] > 0) index_.erase(c);

    // Committed: evict live outputs (furthest-consumer first under Belady)
    // until the start fits. The fit check guarantees the index suffices.
    // `start_at` is this worker's local clock: write-queue backpressure
    // pushes it past `now_` before any read is issued or compute begins.
    const Weight target = frames_ - delta;
    double start_at = now_;
    while (frames_used_ > target) {
      const NodeId v = index_.pick();
      spill(v, std::min(resident_[idx(v)], frames_used_ - target), start_at, /*may_stall=*/true);
    }
    const double stall = read_children(i, start_at);
    occupy(work_frames_[idx(i)]);
    running_frames_ += work_frames_[idx(i)];

    result_.start_time[idx(i)] = now_;
    result_.start_order.push_back(i);
    const double cost = task_cost(tree_, i, base_.cost);
    result_.busy_time += cost;  // compute only: read/write stalls are not useful work
    push_event(running_, {start_at + stall + cost, i});
    --idle_;
  }

  // Consumes the children of a starting task: reads evicted pages back
  // (read-back pages come off disk unmodified — they would stay clean) and
  // folds their outputs into the reservation. Returns the read stall: with
  // a disk model the consuming worker waits for the transfer before
  // compute begins, so spills delay this start.
  double read_children(NodeId i, double start_at) {
    Weight read_pages = 0;
    std::int64_t transfers = 0;
    double io_ready = start_at;  // completion of the last transfer this start waits on
    for (const NodeId c : tree_.children(i)) {
      const Weight missing = total_pages_[idx(c)] - resident_[idx(c)];
      if (missing > 0) {
        read_pages += missing;
        ++transfers;
        // Demand read on the shared device timeline: queues behind any
        // pending transfer instead of assuming a free disk.
        if (pipelined_) io_ready = std::max(io_ready, issue_read(start_at, missing));
      }
      if (prefetching_ && prefetched_[idx(c)] > 0) {
        // Pages fetched ahead of this start pay only their residual
        // transfer time (zero once the read completed under compute).
        paged_.prefetch_useful += prefetched_[idx(c)];
        io_ready = std::max(io_ready, prefetch_ready_[idx(c)]);
        prefetched_[idx(c)] = 0;
      }
      frames_used_ -= resident_[idx(c)];
      resident_[idx(c)] = 0;
      dirty_[idx(c)] = 0;
    }
    paged_.pages_read += read_pages;
    paged_.read_transfers += transfers;
    double stall = 0.0;
    if (pipelined_) {
      stall = io_ready - start_at;
      paged_.read_stall += stall;
    } else if (config_.disk.has_value() && read_pages > 0) {
      stall = config_.disk->transfer_time(read_pages * page_, transfers);
      paged_.read_stall += stall;
      paged_.disk_read_time += stall;  // synchronous: the wait IS the device time
    }
    return stall;
  }

  // One victim spill, shared by start-time eviction and prefetch staging:
  // take `take` pages from live output v at the caller's local clock
  // `at_clock`. Clean pages drop free; only never-written pages cost a
  // write-back (write-at-most-once). Under async writes a full queue
  // stalls the caller slot-by-slot when `may_stall`; otherwise the spill is
  // refused with no state touched (prefetch is opportunistic — it must
  // never block or charge anything the demand path would not).
  bool spill(NodeId v, Weight take, double& at_clock, bool may_stall) {
    const Weight clean = resident_[idx(v)] - dirty_[idx(v)];
    const Weight written = std::max<Weight>(0, take - clean);
    const auto slots = static_cast<std::size_t>(base_.write_queue_depth);
    if (async_writes_ && written > 0) {
      // Slots whose transfers the device completed by the caller's clock
      // are free again.
      drain_writes(at_clock);
      // Fault 4 ignores backpressure so pending writes overflow the
      // queue's slots — the conservation audit must convict.
      const bool backpressure = !core::parallel_engine_fault(4);
      if (!may_stall && backpressure && write_queue_.size() >= slots) return false;
      // A full queue stalls the evicting worker until the oldest pending
      // transfer is forced through the device — one slot, not the whole
      // queue (write_stall).
      while (backpressure && write_queue_.size() >= slots) {
        const double completion = write_oldest(at_clock);
        paged_.write_stall += completion - at_clock;
        at_clock = completion;
      }
    }
    resident_[idx(v)] -= take;
    dirty_[idx(v)] -= written;
    frames_used_ -= take;
    paged_.pages_written += written;
    paged_.pages_dropped_clean += take - written;
    ++paged_.eviction_events;
    result_.io[idx(v)] += written * page_;
    result_.io_volume += written * page_;
    // Dropped clean pages are exactly prefetched-but-unconsumed pages
    // (outputs are produced fully dirty): they count as wasted prefetch.
    if (prefetching_ && take > written) {
      const Weight wasted = std::min(prefetched_[idx(v)], take - written);
      prefetched_[idx(v)] -= wasted;
      paged_.prefetch_wasted += wasted;
    }
    if (async_writes_ && written > 0) {
      paged_.disk_write_time += config_.disk->transfer_time(written * page_, 1);
      write_queue_.push_back({at_clock, written});
      paged_.write_queue_peak =
          std::max(paged_.write_queue_peak, static_cast<std::int64_t>(write_queue_.size()));
      // Queue-slot conservation: an enqueue never leaves more pending
      // transfers than the queue has slots.
      OOCTREE_AUDIT_CHECK(write_queue_.size() <= slots,
                          "simulate_parallel_paged: pending writes exceed write_queue_depth");
    }
    if (resident_[idx(v)] == 0) {
      index_.erase(v);
    } else if (base_.evict == EvictionPolicy::kLargestFirst) {
      index_.insert(v, resident_[idx(v)]);  // re-key after the partial spill
    }
    return true;
  }

  // Runs the oldest queued write on the device, starting no earlier than
  // `at`, and returns its completion.
  double write_oldest(double at) {
    const WriteQueue::Entry& oldest = write_queue_.front();
    disk_free_ = std::max({disk_free_, oldest.enqueued, at}) +
                 config_.disk->transfer_time(oldest.pages * page_, 1);
    write_queue_.pop_front();
    return disk_free_;
  }

  // Runs every queued write the device begins before `t`; the unstarted
  // backlog yields to reads issued at `t`.
  void drain_writes(double t) {
    while (!write_queue_.empty() && std::max(disk_free_, write_queue_.front().enqueued) < t)
      write_oldest(0.0);
  }

  // One read transfer of `pages` on the device timeline, demand or
  // prefetch, issued at `at`: charges its device time and returns its
  // completion.
  double issue_read(double at, Weight pages) {
    drain_writes(at);
    const double pure = config_.disk->transfer_time(pages * page_, 1);
    paged_.disk_read_time += pure;
    const double device_was = disk_free_;
    // Fault 16 double-books the device: the transfer "completes" before
    // the serial timeline has room for it.
    disk_free_ = core::parallel_engine_fault(16) ? std::min(device_was, at) - pure
                                                 : std::max(device_was, at) + pure;
    OOCTREE_AUDIT_CHECK(disk_free_ >= device_was && disk_free_ >= at + pure,
                        "simulate_parallel_paged: disk transfer exceeds DiskModel capacity");
    return disk_free_;
  }

  // Takes `added` frames and records the peak.
  void occupy(Weight added) {
    frames_used_ += added;
    paged_.peak_frames_used = std::max<std::int64_t>(paged_.peak_frames_used, frames_used_);
    result_.peak_resident = std::max(result_.peak_resident, frames_used_ * page_);
  }

  // Fills predicted_ with the next starts. Raw priority order mispredicts
  // badly at tight memory (the top ready tasks usually fail the fit check
  // and backfill starts deeper candidates; worse, most reads happen at
  // parents that only become ready at an upcoming completion). So the
  // prediction replays the scheduler's own rule against the known future:
  // completions free worker reservations in finish order (the running heap
  // is visible), each one may activate a parent (missing_children
  // bookkeeping), and each round starts the first ready task of the
  // backfill window whose reservation fits — all deterministic from here.
  // The first predicted start is exact; later ones degrade gracefully.
  void predict_starts() {
    // The candidates start as the first scan_cap ready ranks, read in place
    // by the bitset's word scan. The sum is 64-bit: both knobs may be as
    // large as INT_MAX.
    const std::int64_t scan_cap =
        std::int64_t{base_.prefetch_window} + (depth_ > 0 ? depth_ : 16);
    cands_.clear();
    for (std::size_t r = ready_.next(0); r < n_; r = ready_.next(r + 1)) {
      cands_.push_back(by_rank_[r]);
      if (static_cast<std::int64_t>(cands_.size()) >= scan_cap) break;
    }
    predicted_.clear();
    taken_.assign(cands_.size(), 0);
    sim_dec_.clear();
    // At full memory staging spills index_.pick() for its first child that
    // needs pages, and stops there if that victim is pinned, i.e. if the
    // victim's consumer is a predicted start. Once the prediction reaches
    // the consumer nothing would be staged, so the round stops predicting.
    // kRandom is excluded: its pick() draws from the RNG.
    const NodeId victim_consumer =
        frames_used_ >= frames_ && base_.evict != EvictionPolicy::kRandom
            ? tree_.parent(index_.pick())
            : kNoNode;
    bool consumer_predicted = false;
    // The replay is self-extending: a predicted start's completion (round
    // time + cost, both known) re-enters the event heap and can activate
    // further parents, so the horizon is bounded by the window, not by the
    // current running set. Copy-assigning reuses the heap's buffer.
    run_copy_ = running_;
    Weight run_frames_pred = running_frames_;
    int idle_pred = idle_;
    while (!consumer_predicted && !run_copy_.empty() &&
           static_cast<int>(predicted_.size()) < base_.prefetch_window) {
      const auto [done_at, done] = pop_event(run_copy_);
      run_frames_pred -= work_frames_[idx(done)];
      ++idle_pred;
      const NodeId par = tree_.parent(done);
      if (par != kNoNode) {
        int seen = 1;
        for (auto& [p, cnt] : sim_dec_)
          if (p == par) seen = ++cnt;
        if (seen == 1) sim_dec_.emplace_back(par, 1);
        if (static_cast<std::size_t>(seen) == missing_children_[idx(par)]) {
          // The parent becomes ready at this completion: merge it into the
          // candidate list at its scan position.
          std::size_t pos = 0;
          while (pos < cands_.size() && rank_of_[idx(cands_[pos])] < rank_of_[idx(par)]) ++pos;
          cands_.insert(cands_.begin() + static_cast<std::ptrdiff_t>(pos), par);
          taken_.insert(taken_.begin() + static_cast<std::ptrdiff_t>(pos), 0);
        }
      }
      // One scheduling round after this completion: priority order, at
      // most `depth_` examined per start, started tasks leave the scan
      // (deferred candidates return only between rounds).
      std::int64_t examined = 0;
      for (std::size_t k = 0; k < cands_.size() && idle_pred > 0 &&
                              static_cast<int>(predicted_.size()) < base_.prefetch_window;
           ++k) {
        if (taken_[k]) continue;
        ++examined;
        const NodeId cand = cands_[k];
        if (run_frames_pred + work_frames_[idx(cand)] <= frames_) {
          taken_[k] = 1;
          predicted_.push_back(cand);
          run_frames_pred += work_frames_[idx(cand)];
          push_event(run_copy_, {done_at + task_cost(tree_, cand, base_.cost), cand});
          --idle_pred;
          examined = 0;
          if (cand == victim_consumer) {
            consumer_predicted = true;
            break;
          }
        } else if (depth_ > 0 && examined >= depth_) {
          break;
        }
      }
    }
    if (consumer_predicted) predicted_.clear();
  }

  // Stages the evicted pages of `child`, a child of a predicted start;
  // false when staging refuses and stops for the round.
  bool stage(NodeId child) {
    const auto c = idx(child);
    // A child that has not completed yet has no on-disk copy to read — its
    // output materializes in memory at completion.
    if (result_.finish_time[c] < 0.0) return true;
    Weight missing = total_pages_[c] - resident_[c];
    // Fault 8 sizes the read from the datum's full page count, re-fetching
    // resident pages — the audit must convict before any state is touched.
    if (core::parallel_engine_fault(8)) missing = total_pages_[c];
    while (missing > 0) {
      const Weight free_frames = frames_ - frames_used_;
      if (free_frames <= 0) {
        // No head-room: stage the upcoming start's own eviction early,
        // unless the victim is pinned or the queue is full.
        if (index_.empty()) return false;
        const NodeId v = index_.pick();
        if (prefetch_pinned_[idx(v)]) return false;
        double at = now_;
        if (!spill(v, std::min(resident_[idx(v)], missing), at, /*may_stall=*/false)) return false;
        continue;  // frames freed: re-check the head-room
      }
      const Weight take = std::min(missing, free_frames);
      OOCTREE_AUDIT_CHECK(resident_[c] + take <= total_pages_[c],
                          "simulate_parallel_paged: prefetch of already-resident pages");
      prefetch_ready_[c] = std::max(prefetch_ready_[c], issue_read(now_, take));
      resident_[c] += take;
      prefetched_[c] += take;
      occupy(take);
      paged_.prefetch_issued += take;
      paged_.pages_read += take;
      ++paged_.read_transfers;
      // A live output with resident pages is an EvictionIndex entry;
      // insert() upserts, re-keying partially resident outputs (the
      // prefetch counts as a touch under LRU).
      index_.insert(child,
                    policy_key(base_.evict, tree_, child, resident_[c], clock_, prep_.ref_pos));
      missing -= take;
    }
    return true;
  }

  // Invariants of the transactional-start core, checked after every
  // completion and at the end of the run (audit builds only; see
  // parallel_sim.hpp):
  //   * reservation balance — running_frames_ is exactly the sum of
  //     work_frames over running tasks;
  //   * conservation — frames_used_ is exactly running reservations plus
  //     resident output pages, and never exceeds the frame count;
  //   * write-at-most-once — a datum's written volume never exceeds its
  //     page-rounded size, and the aggregate equals the per-node sum.
  void audit() const {
    Weight resident_total = 0;
    Weight io_total = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      core::audit_check(dirty_[i] >= 0 && dirty_[i] <= resident_[i],
                        "simulate_parallel_paged: dirty pages outside [0, resident]");
      core::audit_check(resident_[i] <= total_pages_[i],
                        "simulate_parallel_paged: resident pages exceed the datum size");
      core::audit_check(result_.io[i] <= total_pages_[i] * page_,
                        "simulate_parallel_paged: datum written beyond its size (write-once)");
      // Every clean resident page of this engine arrived via prefetch
      // (outputs are produced fully dirty and demand reads are consumed on
      // arrival), so the prefetch ledger must equal the clean residency.
      if (prefetching_)
        core::audit_check(prefetched_[i] == resident_[i] - dirty_[i],
                          "simulate_parallel_paged: prefetch ledger out of sync with clean "
                          "residency");
      resident_total += resident_[i];
      io_total += result_.io[i];
    }
    if (async_writes_)
      core::audit_check(write_queue_.size() <= static_cast<std::size_t>(base_.write_queue_depth),
                        "simulate_parallel_paged: pending writes exceed write_queue_depth");
    core::audit_check(io_total == result_.io_volume,
                      "simulate_parallel_paged: io_volume != sum of per-node I/O");
    // The ready set holds exactly the tasks whose children all completed
    // and that have not started.
    ready_.audit();
    for (std::size_t i = 0; i < n_; ++i)
      core::audit_check(ready_.contains(rank_of_[i]) ==
                            (missing_children_[i] == 0 && result_.start_time[i] < 0.0),
                        "simulate_parallel_paged: ready set out of sync with the task states");
    Weight reservation_total = 0;
    for (const Event& event : running_) reservation_total += work_frames_[idx(event.second)];
    core::audit_check(reservation_total == running_frames_,
                      "simulate_parallel_paged: running reservation out of balance");
    core::audit_check(resident_total + running_frames_ == frames_used_,
                      "simulate_parallel_paged: frames conservation broken");
    core::audit_check(frames_used_ <= frames_,
                      "simulate_parallel_paged: frames_used exceeds the frame count");
    index_.audit();
  }

  const Tree& tree_;
  const PagedParallelConfig& config_;
  const ParallelConfig& base_ = config_.base;
  const Weight page_ = config_.page_size;
  const std::size_t n_ = tree_.size();
  const Weight frames_ = base_.memory / page_;
  const int depth_ = base_.backfill_depth;  // 0 = every ready task, 1 = strict
  // Residency-aware starts need a read cost; without one every candidate
  // counts as fully resident and the slot scan is the strict/backfill one.
  const bool residency_ = base_.residency_aware && config_.disk.has_value();
  // The disk pipeline is engaged only under a disk model with a nonzero
  // knob: both knobs at 0 leave every pipeline branch dead, so the
  // synchronous engine is reproduced bit-for-bit (tests/test_disk_pipeline).
  const bool pipelined_ =
      config_.disk.has_value() && (base_.write_queue_depth > 0 || base_.prefetch_window > 0);
  const bool async_writes_ = pipelined_ && base_.write_queue_depth > 0;
  const bool prefetching_ = pipelined_ && base_.prefetch_window > 0;

  PreparedReplay prep_;
  // Ready tasks live in the rank-indexed set. Rank order is priority order:
  // higher priority key first, ties to the earlier reference position.
  // Under kSequentialOrder the keys are -ref_pos, all distinct, so the
  // reference is already in rank order and ref_pos is the rank. Otherwise
  // the order is a strict total one, so sorting the reference gives the
  // same ranks as sorting any other permutation.
  std::vector<NodeId> by_rank_ = std::move(prep_.ref);
  std::vector<std::size_t> sorted_rank_of_;
  const std::vector<std::size_t>& rank_of_ =
      base_.priority == Priority::kSequentialOrder ? prep_.ref_pos : sorted_rank_of_;

  // Page geometry: a datum occupies total_pages frames; a running task
  // holds work_frames = task_frames (children's page-rounded outputs +
  // transient extra). Liveness needs no flags: a live output with resident
  // pages is exactly an EvictionIndex entry, and `resident_` covers the
  // rest. Dirtiness is per page: resident - dirty pages have a disk copy
  // and are dropped for free on eviction (write-at-most-once).
  std::vector<Weight> total_pages_ = std::vector<Weight>(n_);
  std::vector<Weight> work_frames_ = std::vector<Weight>(n_);
  std::vector<Weight> resident_ = std::vector<Weight>(n_);
  std::vector<Weight> dirty_ = std::vector<Weight>(n_);
  std::vector<std::size_t> missing_children_ = std::vector<std::size_t>(n_);
  ReadySet ready_{n_};
  std::vector<Event> running_;
  int idle_ = base_.workers;
  std::size_t completed_ = 0;
  double now_ = 0.0;
  Weight frames_used_ = 0;     // running reservations + live output pages
  Weight running_frames_ = 0;  // sum of work_frames over running tasks
  std::int64_t clock_ = 0;     // completion clock (LRU keys)
  util::Rng rng_{base_.seed};
  core::EvictionIndex index_{base_.evict, n_,
                             base_.evict == EvictionPolicy::kRandom ? &rng_ : nullptr};

  // One device shared by prefetch reads, demand reads and queued writes,
  // with read priority: reads serialize against each other and against
  // any write the device already started, but jump ahead of the queued
  // write backlog (write-back is lazy and latency-insensitive; reads gate
  // compute). `disk_free_` is the single-server busy-until clock, so the
  // device never does two transfers at once — DiskModel capacity holds by
  // construction. A pending write starts whenever the device is idle and
  // then blocks later arrivals (non-preemptive, work-conserving).
  double disk_free_ = 0.0;
  WriteQueue write_queue_;
  // Prefetch bookkeeping: pages that arrived ahead of their consuming
  // start sit resident but clean (their disk copy persists), tracked per
  // child along with the completion time of the latest in-flight read.
  std::vector<Weight> prefetched_ = std::vector<Weight>(prefetching_ ? n_ : 0);
  std::vector<double> prefetch_ready_ = std::vector<double>(prefetching_ ? n_ : 0);
  // Children of the predicted starts: never prefetch-eviction victims
  // (staging must not thrash pages the next starts consume).
  std::vector<char> prefetch_pinned_ = std::vector<char>(prefetching_ ? n_ : 0);

  // Per-round scratch, reused so that a round allocates nothing.
  std::vector<std::size_t> losers_;  // slot scan: ranks that fit but lost a window
  std::vector<Candidate> window_;    // slot scan: the slot's fitting candidates
  std::vector<NodeId> cands_;        // prediction: candidates in scan order
  std::vector<char> taken_;          // prediction: candidates already predicted
  std::vector<std::pair<NodeId, int>> sim_dec_;  // prediction: replayed completions
  std::vector<Event> run_copy_;                  // prediction: replayed event heap
  std::vector<NodeId> predicted_;                // prediction: the predicted next starts

  PagedParallelResult paged_;
  ParallelResult& result_ = paged_.base;
};

}  // namespace

PagedParallelResult simulate_parallel_paged(const Tree& tree, const PagedParallelConfig& config,
                                            const Schedule& reference) {
  if (config.page_size <= 0)
    throw std::invalid_argument("simulate_parallel_paged: page_size must be positive");
  PagedEngine engine(tree, config, reference);
  while (engine.pending()) {
    engine.scan_slots();
    engine.prefetch();
    // No task running and nothing startable: with all evictable pages
    // flushed the smallest work_frames must fit, so the frame count is
    // below min_feasible_frames.
    if (!engine.complete_next()) return engine.finish(false);
  }
  return engine.finish(true);
}

}  // namespace ooctree::parallel
