// Shared helpers for the test suites.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/fif_simulator.hpp"
#include "src/core/traversal.hpp"
#include "src/core/tree.hpp"
#include "src/parallel/parallel_sim.hpp"
#include "src/treegen/catalan.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/treegen/shapes.hpp"
#include "src/treegen/weights.hpp"
#include "src/util/rng.hpp"

namespace ooctree::test {

/// A small random tree: uniform binary shape (exact Catalan sampling) with
/// weights uniform in [1, w_hi].
inline core::Tree small_random_tree(std::size_t n, core::Weight w_hi, util::Rng& rng) {
  // Exact Catalan sampling tops out at n = 65 (128-bit counts); we switch
  // to the O(n) Rémy-based sampler — just as uniform — at n = 60 already,
  // comfortably below that limit.
  const core::Tree shape = n <= 60 ? treegen::uniform_binary_tree_exact(n, rng)
                                   : treegen::uniform_binary_tree(n, rng);
  return treegen::with_uniform_weights(shape, 1, w_hi, rng);
}

/// A random tree with unbounded degree (recursive attachment), weights in
/// [1, w_hi] — exercises high fan-in nodes the binary sampler cannot reach.
inline core::Tree small_random_wide_tree(std::size_t n, core::Weight w_hi, util::Rng& rng) {
  const core::Tree shape = treegen::random_recursive_tree(n, rng);
  return treegen::with_uniform_weights(shape, 1, w_hi, rng);
}

/// A broom: a chain of `handle` nodes above a hub (node `handle`; the hub is
/// the root when handle == 0, a star) with `legs` two-node legs, a node
/// above a leaf. The chain nodes weigh 1, a leg's node [1, w_hi], and its
/// leaf outweighs it by [1, w_hi], so under either memory model even
/// OptMinMem's schedule needs more than LB: memory binds while many active
/// siblings share the hub's step.
inline core::Tree broom_tree(std::size_t handle, std::size_t legs, core::Weight w_hi,
                             util::Rng& rng) {
  std::vector<core::NodeId> parent;
  std::vector<core::Weight> weight;
  for (std::size_t k = 0; k <= handle; ++k) {
    parent.push_back(k == 0 ? core::kNoNode : static_cast<core::NodeId>(k - 1));
    weight.push_back(1);
  }
  for (std::size_t k = 0; k < legs; ++k) {
    parent.push_back(static_cast<core::NodeId>(handle));
    weight.push_back(rng.uniform_int(1, w_hi));
    parent.push_back(static_cast<core::NodeId>(parent.size() - 1));
    weight.push_back(weight.back() + rng.uniform_int(1, w_hi));
  }
  return core::Tree::from_parents(std::move(parent), std::move(weight));
}

/// Asserts that (schedule, io) is a valid traversal under `memory`.
inline void expect_valid_traversal(const core::Tree& tree, const core::Schedule& schedule,
                                   const core::IoFunction& io, core::Weight memory) {
  const auto problem = core::validate_traversal(tree, schedule, io, memory);
  EXPECT_FALSE(problem.has_value()) << *problem;
}

/// FiF-evaluates a schedule and asserts the result is a valid traversal.
inline core::Weight checked_fif_io(const core::Tree& tree, const core::Schedule& schedule,
                                   core::Weight memory) {
  const core::FifResult r = core::simulate_fif(tree, schedule, memory);
  EXPECT_TRUE(r.feasible);
  expect_valid_traversal(tree, schedule, r.io, memory);
  return r.io_volume;
}

/// The sequential paged replay: the paged engine at one worker following
/// `schedule` with strict priority (backfill_depth 1), the model of the
/// sequential pager oracle (tests/oracles/pager_reference.hpp).
inline parallel::PagedParallelResult sequential_paged_replay(
    const core::Tree& tree, const core::Schedule& schedule, core::Weight memory,
    core::Weight page_size = 1, core::EvictionPolicy policy = core::EvictionPolicy::kBelady,
    std::uint64_t seed = 1) {
  parallel::PagedParallelConfig c;
  c.base.workers = 1;
  c.base.memory = memory;
  c.base.priority = parallel::Priority::kSequentialOrder;
  c.base.backfill_depth = 1;
  c.base.evict = policy;
  c.base.seed = seed;
  c.page_size = page_size;
  return parallel::simulate_parallel_paged(tree, c, schedule);
}

/// Pinned fixture for the transient-reservation accounting fix (PR 3),
/// shared by the sequential replay (tests/test_pager.cpp), the pager
/// oracle and the paged parallel engine (tests/test_paged_parallel.cpp,
/// tests/test_audit.cpp): working space must be
/// *reserved* in the frame accounting, not just checked as head-room. With
/// root wbar = 10 the leaf output (2) plus the root's transient extra (8)
/// peaks at exactly 10 allocated frames with zero I/O — and one unit less
/// memory is infeasible.
struct TransientReservationFixture {
  core::Tree tree;
  core::Schedule schedule;
  core::Weight feasible_memory;    ///< peak == this, no I/O
  core::Weight infeasible_memory;  ///< one unit below: must be rejected
  std::int64_t expected_peak_frames;
};

inline TransientReservationFixture transient_reservation_fixture() {
  return {core::make_tree({{core::kNoNode, 10}, {0, 2}}), {1, 0}, 10, 9, 10};
}

/// Pinned fixture for write-at-most-once accounting (PR 3), shared by both
/// engines: datum B (4 pages at page_size 1) is partially evicted twice on
/// the way down a chain — 2 pages, then 1 more — so the correct write
/// count is 3 distinct dirty pages across 2 eviction events, not "whole
/// datum per event" (8) nor the event count (2).
/// ids: 0=root(w1); 1=B(w4); 2=s4(w1); 3=s3(w4); 4=s2(w1); 5=s1(w3);
/// chain s1 -> s2 -> s3 -> s4 -> root, B -> root. LB = wbar(root) = 5.
struct ThrashFixture {
  core::Tree tree;
  core::Schedule schedule;
  core::Weight memory;
  std::int64_t expected_pages_written;
  std::int64_t expected_pages_read;
  std::int64_t expected_eviction_events;
  std::int64_t expected_peak_frames;
};

inline ThrashFixture thrash_fixture() {
  return {core::make_tree({{core::kNoNode, 1}, {0, 4}, {0, 1}, {2, 4}, {3, 1}, {4, 3}}),
          {1, 5, 4, 3, 2, 0},
          5,
          3,
          3,
          2,
          5};
}

/// Asserts two parallel replays agree on every reported quantity — the
/// bit-identity contract of the differential suites.
inline void expect_same_replay(const parallel::ParallelResult& a,
                               const parallel::ParallelResult& b, const std::string& label) {
  ASSERT_EQ(a.feasible, b.feasible) << label;
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.io_volume, b.io_volume) << label;
  EXPECT_EQ(a.io, b.io) << label;
  EXPECT_EQ(a.peak_resident, b.peak_resident) << label;
  EXPECT_EQ(a.start_order, b.start_order) << label;
  EXPECT_EQ(a.start_time, b.start_time) << label;
  EXPECT_EQ(a.finish_time, b.finish_time) << label;
  EXPECT_EQ(a.busy_time, b.busy_time) << label;
  EXPECT_EQ(a.failed_starts, b.failed_starts) << label;
  EXPECT_EQ(a.backfill_scans, b.backfill_scans) << label;
  EXPECT_EQ(a.backfill_hits, b.backfill_hits) << label;
}

/// Asserts two paged replays agree on every PagedParallelResult field: the
/// base replay plus the page, stall and pipeline counters.
inline void expect_same_paged_replay(const parallel::PagedParallelResult& a,
                                     const parallel::PagedParallelResult& b,
                                     const std::string& label) {
  expect_same_replay(a.base, b.base, label);
  EXPECT_EQ(a.frames, b.frames) << label;
  EXPECT_EQ(a.pages_written, b.pages_written) << label;
  EXPECT_EQ(a.pages_read, b.pages_read) << label;
  EXPECT_EQ(a.pages_dropped_clean, b.pages_dropped_clean) << label;
  EXPECT_EQ(a.eviction_events, b.eviction_events) << label;
  EXPECT_EQ(a.peak_frames_used, b.peak_frames_used) << label;
  EXPECT_EQ(a.read_transfers, b.read_transfers) << label;
  EXPECT_EQ(a.read_stall, b.read_stall) << label;
  EXPECT_EQ(a.write_stall, b.write_stall) << label;
  EXPECT_EQ(a.write_queue_peak, b.write_queue_peak) << label;
  EXPECT_EQ(a.prefetch_issued, b.prefetch_issued) << label;
  EXPECT_EQ(a.prefetch_useful, b.prefetch_useful) << label;
  EXPECT_EQ(a.prefetch_wasted, b.prefetch_wasted) << label;
  EXPECT_EQ(a.disk_read_time, b.disk_read_time) << label;
  EXPECT_EQ(a.disk_write_time, b.disk_write_time) << label;
}

}  // namespace ooctree::test
