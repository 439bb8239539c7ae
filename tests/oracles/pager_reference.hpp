// Test oracle: the sequential pager. It replays a fixed schedule one task
// per step with page-granular residency, the model the paged parallel
// engine (parallel::simulate_parallel_paged) reduces to at one worker in
// the schedule's order with backfill_depth 1. It is written as a plain
// step loop — read back the children, reserve the working space, run —
// with no worker pool, ready set or event queue, so the engine's
// one-worker accounting has an independent reference
// (tests/test_paged_parallel.cpp and tests/test_pager.cpp compare them).
// It shares only page_count (the page geometry of a datum) and
// core::EvictionIndex with the engine.
//
// Invariants:
//   * write-at-most-once — dirtiness is tracked per datum, so a page is
//     written at most once (a page whose disk copy exists is dropped for
//     free) rather than once per eviction event;
//   * reserved transients — the working space of a step is reserved in
//     frames_used for the duration of the task, so nothing can evict into
//     the head-room and peak_frames_used reports frames the pager actually
//     allocated (step 3 of the replay provably never evicts).
//
// Under OOCTREE_AUDIT builds (the dev preset) the replay re-checks both
// invariants after every step — frames conservation against the resident
// pages, dirty-within-resident, per-datum size bounds — throwing
// core::AuditError on drift; core::fault::pager re-introduces the
// unreserved-transient bug so tests/test_audit.cpp can prove the check
// bites.
#pragma once

#include <cstdint>

#include "src/core/eviction.hpp"
#include "src/core/traversal.hpp"
#include "src/core/tree.hpp"
#include "src/parallel/parallel_sim.hpp"

namespace ooctree::parallel::oracle {

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
[[nodiscard]] PagerStats run_pager_reference(const core::Tree& tree,
                                             const core::Schedule& schedule,
                                             const PagerConfig& config);

}  // namespace ooctree::parallel::oracle
