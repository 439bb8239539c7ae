// Test oracle: the scan-based parallel replay. Same results as
// parallel::simulate_parallel, computed the pre-index way (O(n) victim scan
// + sort per eviction round, a sorted ready vector); it ranks tasks through
// the engine's own prepare_replay(), so the two share one priority rule.
// The unit API has no disk model: the pipeline knobs are validated, inert.
#pragma once

#include "src/parallel/parallel_sim.hpp"

namespace ooctree::parallel::oracle {

[[nodiscard]] ParallelResult simulate_parallel_reference(const core::Tree& tree,
                                                         const ParallelConfig& config,
                                                         const core::Schedule& reference = {});

}  // namespace ooctree::parallel::oracle
