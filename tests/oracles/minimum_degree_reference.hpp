// Test oracle: the original vector-of-vectors exact minimum degree.
//
// sparse::minimum_degree must return exactly this permutation on every
// pattern; tests/test_ordering_md.cpp checks it element for element. The
// oracle is linked by the tests only, never by the shipped library.
#pragma once

#include <vector>

#include "src/sparse/csc.hpp"

namespace ooctree::sparse::oracle {

/// Exact minimum (exterior) degree: eliminates the argmin of (exact
/// external degree, vertex id), recomputing each neighbour's reachable set
/// from scratch after every pivot.
[[nodiscard]] std::vector<Index> minimum_degree_reference(const SymPattern& pattern);

}  // namespace ooctree::sparse::oracle
