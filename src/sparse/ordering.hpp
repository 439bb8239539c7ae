// Fill-reducing orderings for symmetric patterns.
//
// Each function returns a permutation `perm` with perm[new] = old, meant to
// be applied via SymPattern::permuted. Three classic families:
//   * reverse Cuthill-McKee: bandwidth reduction, produces deep, skinny
//     elimination trees;
//   * minimum degree (exact external degree on a quotient graph): the
//     classical fill heuristic, bushy trees;
//   * nested dissection for structured grids (geometric separators):
//     balanced trees, the standard choice for large PDE problems.
#pragma once

#include <vector>

#include "src/sparse/csc.hpp"

namespace ooctree::sparse {

/// Reverse Cuthill-McKee starting from a pseudo-peripheral vertex.
[[nodiscard]] std::vector<Index> reverse_cuthill_mckee(const SymPattern& pattern);

/// Exact minimum degree. Each step eliminates the argmin of (exact external
/// degree, vertex id): the degree is the vertex's neighbour count in the
/// current elimination graph, ties go to the smaller id. That rule fixes the
/// permutation completely, and tests/test_ordering_md.cpp holds it equal,
/// element for element, to the original kernel kept as a test oracle
/// (tests/oracles/minimum_degree_reference.hpp). So assembly trees,
/// canonical hashes and persisted plan keys stay stable. Degrees are exact,
/// not AMD's approximations: an approximate degree would change the trees.
///
/// The graph is a quotient graph in one flat Index pool (AMD's iw/pe/len/
/// elen layout): each variable lists its adjacent elements, then its
/// adjacent variables; each element e lists L_e, the variables of its
/// clique. Eliminating p builds L_p at the pool's tail, compacting when full.
/// It absorbs every element whose list L_p covers, prunes the variable links
/// L_p covers, and marks L_p once. Each u in L_p then gets degree |L_p| - 1
/// plus the number of variables outside L_p that u reaches. The neighbours
/// with none would be the next pivots, in id order, so they are eliminated
/// with p. Per pivot the cost is O(|L_p| + sum over u in L_p of |list(u)| +
/// |L_e| for u's other elements e), with no |L_p|^2 term. Stamps are 64-bit
/// and cannot wrap.
[[nodiscard]] std::vector<Index> minimum_degree(const SymPattern& pattern);

/// Geometric nested dissection for an nx-by-ny 5- or 9-point grid: middle
/// separators, recursing until blocks of <= leaf_size vertices, which are
/// ordered locally. Returns a permutation for the grid's natural numbering
/// (vertex y*nx + x).
[[nodiscard]] std::vector<Index> nested_dissection_2d(Index nx, Index ny, Index leaf_size = 8);

/// Geometric nested dissection for an nx-by-ny-by-nz 7-point grid.
[[nodiscard]] std::vector<Index> nested_dissection_3d(Index nx, Index ny, Index nz,
                                                      Index leaf_size = 8);

/// The identity (natural) ordering.
[[nodiscard]] std::vector<Index> natural_order(Index n);

}  // namespace ooctree::sparse
