// Fill-reducing orderings for symmetric patterns.
//
// Each function returns a permutation `perm` with perm[new] = old, meant to
// be applied via SymPattern::permuted. Three classic families:
//   * reverse Cuthill-McKee: bandwidth reduction, produces deep, skinny
//     elimination trees;
//   * minimum degree (exact external degree on a quotient graph, found
//     through lower-bound heap keys): the classical fill heuristic, bushy
//     trees;
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
/// adjacent variables A_u; each element e lists L_e, the variables of its
/// clique. Eliminating p builds L_p at the pool's tail, compacting when
/// full. It absorbs every element whose list L_p covers and prunes the
/// variable links L_p covers. The neighbours with no other element and no
/// variable left have no external neighbour: they would be the next
/// pivots, in id order, so they are eliminated with p.
///
/// Lower-bound keys. The heap is keyed by a lower bound on each degree, not
/// by the degree. After pivot p, with m vertices mass-eliminated and w(e) =
/// |L_e \ L_p| counted once per pivot, each surviving u in L_p gets
///   key = max(|L_p| - 1 + max(max_e w(e), |A_u \ L_p|), old key - 1 - m).
/// The first term holds because u's external set contains each of those
/// lists; the second because u loses at most p and the m vertices. The key
/// is flagged exact when u has no other element (the external set is
/// A_u \ L_p) or one element and no variable (it is L_e \ L_p). When a
/// vertex's key reaches the top of the heap, building its L_p counts its
/// degree: if the count equals the key, it is the pivot; otherwise it goes
/// back with the count as an exact key. Every key is at most its vertex's
/// degree, and the popped key equals its own, so the popped (key, id) is
/// the argmin of (degree, id): the permutation is the exact rule's.
///
/// Cost. Per pivot O(|L_p| + sum over u in L_p of |list(u)|); the union
/// over u's other elements, which the exact rule paid for every u in every
/// L_p, is now paid once per vertex that reaches the top with an inexact
/// key. On sparse random patterns, where fill makes most neighbourhoods
/// large and most updates non-final, that is several times cheaper; on
/// grids the gain is smaller. Under OOCTREE_AUDIT each popped vertex's
/// degree is also recounted from scratch on the original pattern and
/// checked against its key. Stamps are 64-bit and cannot wrap.
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
