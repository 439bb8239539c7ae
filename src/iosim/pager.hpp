// Page-granular out-of-core execution simulator (sequential replay).
//
// Units. The analytic FiF counter in core/ works in abstract memory units
// and counts writes only, as the paper does. This module simulates the
// same executions the way a real paging runtime would: data are split into
// fixed-size pages (a datum of weight w occupies page_count(w, page_size)
// pages), memory is a set of frames = memory / page_size, and all I/O is
// counted in pages. page_count() and task_frames() below define the page
// geometry; the paged parallel engine (src/parallel/parallel_sim.hpp,
// simulate_parallel_paged) shares them, so the two simulators agree on
// what a page is and run_pager is exactly its workers = 1 /
// sequential-order special case (pinned by tests/test_paged_parallel.cpp).
//
// Invariants:
//   * write-at-most-once — dirtiness is tracked per datum, so a page is
//     written at most once (a page whose disk copy exists is dropped for
//     free) rather than once per eviction event;
//   * reserved transients — the working space of a step is reserved in
//     frames_used for the duration of the task, so nothing can evict into
//     the head-room and peak_frames_used reports frames the pager actually
//     allocated (step 3 of the replay provably never evicts);
//   * indexed eviction — victims are found through core::EvictionIndex in
//     O(log n) per pick, never a per-eviction scan of every datum; a
//     replay is O((n + evictions) log n).
//
// Under OOCTREE_AUDIT builds (the dev preset) the replay re-checks the
// first two invariants after every step — frames conservation against the
// resident pages, dirty-within-resident, per-datum size bounds — throwing
// core::AuditError on drift (src/core/check.hpp; exercised plus
// fault-injected by tests/test_audit.cpp).
//
// Two uses:
//   * cross-validation — with page_size = 1 and the Belady policy, the
//     pager's write count must equal core::simulate_fif exactly;
//   * the eviction-policy ablation (bench_ablation_eviction,
//     bench_paged_parallel), which shows how far LRU/random-style
//     policies are from Belady's bound, i.e. the practical content of the
//     paper's Theorem 1.
#pragma once

#include <cstdint>

#include "src/core/eviction.hpp"
#include "src/core/traversal.hpp"
#include "src/core/tree.hpp"

namespace ooctree::iosim {

/// Pages needed to hold `units` memory units (ceil division). The page
/// geometry shared by run_pager and simulate_parallel_paged.
[[nodiscard]] inline core::Weight page_count(core::Weight units, core::Weight page_size) {
  return (units + page_size - 1) / page_size;
}

/// Frames a task occupies while executing: its children's page-rounded
/// outputs plus the transient extra, i.e. max(sum of child pages,
/// ceil(wbar / page_size)). At page_size = 1 this is wbar(node) under both
/// memory models (wbar >= sum of child weights by construction).
[[nodiscard]] core::Weight task_frames(const core::Tree& tree, core::NodeId node,
                                       core::Weight page_size);

/// Pager configuration.
struct PagerConfig {
  core::Weight page_size = 1;     ///< memory units per page
  core::Weight memory = 0;        ///< memory bound in units (frames = memory / page_size)
  /// Which active datum loses pages (shared with the parallel engine).
  core::EvictionPolicy policy = core::EvictionPolicy::kBelady;
  std::uint64_t seed = 1;         ///< for EvictionPolicy::kRandom
};

/// Aggregate statistics of one simulated execution.
struct PagerStats {
  bool feasible = false;
  std::int64_t pages_written = 0;  ///< dirty pages flushed (once per distinct page)
  std::int64_t pages_read = 0;     ///< read-backs of previously evicted pages
  std::int64_t eviction_events = 0;
  std::int64_t pages_dropped_clean = 0;  ///< evicted pages whose disk copy already existed
  std::int64_t peak_frames_used = 0;

  /// Write volume in memory units (pages_written * page_size).
  [[nodiscard]] core::Weight write_volume(const PagerConfig& c) const {
    return pages_written * c.page_size;
  }
};

/// Runs `schedule` through the pager. The schedule must be topological
/// (throws std::invalid_argument otherwise). Infeasible configurations
/// (some node's working set exceeds the frame count) return
/// feasible = false.
[[nodiscard]] PagerStats run_pager(const core::Tree& tree, const core::Schedule& schedule,
                                   const PagerConfig& config);

/// The page-granular analogue of Tree::min_feasible_memory(): the smallest
/// frame count under which every single task's working set fits (per-child
/// page rounding makes this larger than ceil(LB / page_size)).
[[nodiscard]] core::Weight min_feasible_frames(const core::Tree& tree, core::Weight page_size);

}  // namespace ooctree::iosim
