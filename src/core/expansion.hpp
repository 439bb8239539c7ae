// Node expansion (paper, Figure 3) and schedule-from-tau (Theorem 2).
//
// Expanding node i by an I/O amount tau replaces i with a three-node chain
//   i1 (weight w_i)  ->  i2 (weight w_i - tau)  ->  i3 (weight w_i),
// where i1 keeps i's children and i3 takes i's parent. The chain makes the
// write (i1 -> i2) and the read-back (i2 -> i3) explicit in the tree
// structure, so an in-core scheduling algorithm run on the expanded tree
// "sees" the I/O. Only i1 represents a real computation; i2 and i3 are
// bookkeeping nodes.
#pragma once

#include <utility>
#include <vector>

#include "src/core/traversal.hpp"
#include "src/core/tree.hpp"

namespace ooctree::core {

/// Role of a node of an expanded tree relative to the original tree.
enum class ExpansionRole : std::uint8_t {
  kCompute,  ///< performs the original node's computation (original or i1)
  kShrunk,   ///< i2: the datum after tau units were written out
  kRestored, ///< i3: the datum after reading the tau units back
};

/// A tree derived from an original tree by a sequence of node expansions,
/// with enough bookkeeping to map schedules back.
struct ExpandedTree {
  Tree tree;
  std::vector<NodeId> origin;        ///< origin[k]: original-tree node of k
  std::vector<ExpansionRole> role;   ///< role[k] of each node
  Weight expansion_volume = 0;       ///< sum of all tau amounts applied

  /// Wraps an unexpanded tree (identity mapping).
  static ExpandedTree identity(Tree t);

  /// Expands node `i` (an id of `tree`) by `tau` in [0, w_i]. The node may
  /// itself be the product of an earlier expansion (any role). Node ids are
  /// remapped; the method returns the new tree wholesale.
  [[nodiscard]] ExpandedTree expand(NodeId i, Weight tau) const;

  /// Same expansion applied in place via TreeBuilder: O(degree(parent(i)))
  /// amortized instead of an O(n) rebuild. Returns the ids {i2, i3} of the
  /// two appended nodes.
  std::pair<NodeId, NodeId> expand_in_place(NodeId i, Weight tau);

  /// Batch expansion: expands every node k with io[k] > 0 by io[k], in
  /// increasing index order, sharing a single TreeBuilder adoption. io must
  /// have one entry per *current* node. Equivalent to (but much faster
  /// than) a chain of expand() calls; O(n + expansions) overall.
  void expand_all(const IoFunction& io);

  /// Maps a schedule of the expanded tree back to the original tree by
  /// keeping the kCompute events only.
  [[nodiscard]] Schedule map_schedule(const Schedule& expanded_schedule) const;
};

/// Theorem 2: given an I/O function tau, computes a schedule sigma such
/// that (sigma, tau') is a valid traversal under `memory` with
/// tau'(i) <= tau(i)  — if one exists. Internally expands every node with
/// tau(i) > 0 and runs OptMinMem on the expanded tree. Returns std::nullopt
/// when even the expanded tree cannot be scheduled within `memory`.
[[nodiscard]] std::optional<Schedule> schedule_from_io(const Tree& tree, const IoFunction& io,
                                                       Weight memory);

}  // namespace ooctree::core
