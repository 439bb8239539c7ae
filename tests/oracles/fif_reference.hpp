// Test oracle: the Furthest-in-the-Future simulator as a plain step loop
// over a std::set active set.
//
// core::simulate_fif keeps its active set in a lazy-deletion heap, skips
// the steps before memory first binds and builds the heap only then. This
// oracle does none of that: every executed output enters an ordered set,
// every consumed one leaves it, and each eviction takes the set's maximum.
// tests/test_fif.cpp compares the two on every FifResult field.
#pragma once

#include "src/core/fif_simulator.hpp"

namespace ooctree::core::oracle {

/// simulate_fif with a std::set of (parent step, node) keys: the same
/// victims (latest parent first, then the larger id), the same partial
/// result on an infeasible step, and std::invalid_argument on a schedule
/// that is not topological.
[[nodiscard]] FifResult fif_reference(const Tree& tree, const Schedule& schedule, Weight memory);

}  // namespace ooctree::core::oracle
