// Optimal peak-memory tree traversal (Liu 1987), the paper's OPTMINMEM.
//
// Liu's generalized pebbling result, adapted to this memory model in
// Jacquelin et al. (IPDPS'11): the optimal traversal of a subtree can be
// represented as a normalized sequence of *hill-valley segments*
//   (h_1, v_1), ..., (h_k, v_k)   with  h_1 > h_2 > ... and v_1 < v_2 < ...,
// where h_t is the peak reached during segment t and v_t the resident
// memory when the segment ends (the last valley is the subtree root's
// output size). Combining the children of a node interleaves their segment
// sequences in non-increasing (h - v) order — optimal by the interleaving
// lemma (paper, Theorem 3) — after which the node's own execution step
// (wbar, w) is appended and the sequence re-normalized.
//
// The implementation is iterative over a postorder (no recursion: 40k-node
// chains must not overflow the call stack), keeps every segment in one
// stack-disciplined pool, and carries schedule chunks in spliceable lists
// so segment merges cost O(1) and a call allocates O(1) times.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "src/core/traversal.hpp"
#include "src/core/tree.hpp"

namespace ooctree::core {

/// Result of the optimal MinMem computation.
struct OptMinMemResult {
  Schedule schedule;  ///< a traversal achieving the optimal peak
  Weight peak = 0;    ///< the minimum achievable peak memory

  /// Normalized hill-valley decomposition of the returned traversal
  /// (absolute memory values; hills strictly decreasing, valleys strictly
  /// increasing). Exposed for tests and for the RecExpand heuristic.
  std::vector<std::pair<Weight, Weight>> segments;
};

/// Computes the optimal peak-memory traversal of the subtree rooted at
/// `root`.
[[nodiscard]] OptMinMemResult opt_minmem(const Tree& tree, NodeId root);

/// Whole-tree overload.
[[nodiscard]] inline OptMinMemResult opt_minmem(const Tree& tree) {
  return opt_minmem(tree, tree.root());
}

/// The optimal peak only (same cost, skips schedule assembly bookkeeping).
[[nodiscard]] Weight opt_minmem_peak(const Tree& tree, NodeId root);

/// Optimal peaks of *every* subtree in a single bottom-up pass:
/// result[v] == opt_minmem_peak(tree, v). Peaks are monotone along the
/// tree (a parent's peak is at least each child's). RecExpand reads the
/// same values from its own IncrementalMinMem instead of calling this.
[[nodiscard]] std::vector<Weight> opt_minmem_all_peaks(const Tree& tree);

/// Incremental OptMinMem over a growing tree — the engine behind the
/// near-linear RecExpand path (rec_expand.cpp) and the one-shot postorder
/// behind opt_minmem, opt_minmem_peak and opt_minmem_all_peaks.
///
/// The engine caches, per node, the normalized hill-valley sequence of its
/// subtree's optimal traversal. All sequences live in one segment pool; a
/// node owns an {offset, len} slice of it. Schedule chunks are intrusive
/// linked lists threaded through a single next[] arena indexed by NodeId
/// (every node occurs in exactly one chunk chain), so merging two segments
/// is one pointer write and materializing a subtree's schedule is a plain
/// list walk. Neither structure allocates per node: both grow
/// geometrically and are reused across combines.
///
/// combine(u) appends u's merged sequence at the end of the pool. It is
/// *non-consuming*: it reads the children's cached slices by value, so a
/// later recombination of u (after the tree changed below it) only has to
/// redo u itself. After an expansion, RecExpand recombines exactly the two
/// new nodes plus the victim's ancestor path — amortized O(depth) instead
/// of a full opt_minmem rerun. A recombined node's old slice becomes
/// garbage; the pool compacts itself once garbage outweighs the live
/// slices plus one slot per node, which keeps compaction amortized O(1)
/// per garbage segment.
///
/// Release mode (`release_children`, the one-shot postorder) keeps the
/// pool a stack: in a postorder, the children's slices sit contiguously at
/// the pool's tail when their parent combines, so the merged result slides
/// down over them and a single child's slice is extended in place. The
/// pool then never holds more than the combine frontier's sequences.
///
/// Consistency contract: combine(u) may relink chunk-chain tails belonging
/// to u's descendants, which invalidates the *materialized order* cached by
/// any ancestor of u combined earlier. Callers must therefore recombine
/// bottom-up along the dirty path, and only extract schedules at nodes none
/// of whose ancestors have been combined since their own last combine —
/// both naturally true for RecExpand's bottom-up processing.
class IncrementalMinMem {
 public:
  /// One cached normalized segment: peak within the segment, resident
  /// memory at its end, and the [head, tail] chunk chain of nodes it
  /// executes (threaded through the next[] arena).
  struct Segment {
    Weight hill = 0;
    Weight valley = 0;
    NodeId head = kNoNode;
    NodeId tail = kNoNode;
  };

  /// Grows the per-node storage to at least `n` nodes (grow-only; call
  /// after the tree gained nodes).
  void reserve(std::size_t n);

  /// True when u has a cached sequence (every cached sequence holds at
  /// least u's own execution segment).
  [[nodiscard]] bool has(NodeId u) const {
    const auto i = static_cast<std::size_t>(u);
    return i < slice_.size() && slice_[i].len > 0;
  }

  /// (Re)combines u's sequence from its children's cached sequences, which
  /// must all be valid. With `release_children` the children's sequences
  /// are dropped afterwards, and their pool space is reused when they are
  /// the pool's tail (the one-shot postorder of opt_minmem).
  void combine(const Tree& tree, NodeId u, bool release_children = false);

  /// Optimal peak of subtree(u); requires has(u). O(1): hills strictly
  /// decrease, so the first segment's hill is the peak.
  [[nodiscard]] Weight peak(NodeId u) const {
    return pool_[slice_[static_cast<std::size_t>(u)].offset].hill;
  }

  /// The cached normalized sequence of u; requires has(u). The view is
  /// invalidated by the next combine().
  [[nodiscard]] std::span<const Segment> sequence(NodeId u) const {
    const Slice& s = slice_[static_cast<std::size_t>(u)];
    return {pool_.data() + s.offset, s.len};
  }

  /// Appends subtree(u)'s optimal schedule to `out` (see the consistency
  /// contract above); requires has(u). O(subtree size).
  void extract_schedule(NodeId u, Schedule& out) const;

 private:
  struct Slice {
    std::size_t offset = 0;
    std::size_t len = 0;  // 0: no cached sequence
  };

  /// Moves every live slice to the front of the pool, in node order.
  void compact();

  std::vector<Segment> pool_;
  std::vector<Slice> slice_;  // per node: its sequence within pool_
  std::size_t garbage_ = 0;   // pool_ segments no live slice covers
  std::vector<NodeId> next_;  // chunk arena: successor of each node in its chain
  // Scratch for combine() and compact(), reused across calls.
  struct Head {
    Weight key = 0;         // hill - valley of the child's next segment
    std::size_t child = 0;  // position within the children list
    std::size_t pos = 0;    // next segment within that child
    bool operator<(const Head& o) const {
      return key != o.key ? key < o.key : child > o.child;  // max-heap, stable tie-break
    }
  };
  std::vector<Head> heap_;
  std::vector<Weight> resident_;
  std::vector<Segment> spare_;
};

}  // namespace ooctree::core
