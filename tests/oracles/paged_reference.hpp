// Test oracle: the heap-scan paged replay. Same results as
// parallel::simulate_parallel_paged, computed the way the engine did before
// its rank-indexed ready set: the ready tasks sit in a binary heap, every
// failed fit check pops its task into a deferred list that is pushed back
// at the end of the round, and the prefetch prediction pops and re-pushes
// the head of the heap. It ranks tasks through the engine's own
// prepare_replay(), evicts through the same core::EvictionIndex and has the
// full disk model, so the residency-aware scan, the write queue and the
// prefetch prediction all have an independent reference
// (tests/test_paged_parallel.cpp checks every PagedParallelResult field).
#pragma once

#include "src/parallel/parallel_sim.hpp"

namespace ooctree::parallel::oracle {

[[nodiscard]] PagedParallelResult simulate_parallel_paged_reference(
    const core::Tree& tree, const PagedParallelConfig& config,
    const core::Schedule& reference = {});

}  // namespace ooctree::parallel::oracle
