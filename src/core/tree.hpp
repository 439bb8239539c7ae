// Task-tree data structure for out-of-core tree scheduling (RR-9025 model).
//
// A Tree is a rooted in-tree: every node i produces one output datum of
// size weight(i) consumed by its parent. Executing node i requires the
// output of all its children plus its own output to be in main memory, a
// transient requirement of wbar(i) = max(weight(i), sum of children
// weights). Trees are immutable after construction; algorithms that rewrite
// trees (node expansion, subtree extraction) build new Tree objects and
// return index maps back to the original nodes.
//
// Storage: the six per-node arrays live in one contiguous arena behind a
// TreeStorage backend (core/tree_storage.hpp) — OwnedStorage (heap arena,
// one allocation) or MappedStorage (read-only mmap of a .otree snapshot,
// core/snapshot.hpp). Copying a Tree shares the storage (O(1)); the only
// mutation path, TreeBuilder, promotes shared or mapped storage to a
// private writable arena first (copy-on-write), so the backend is
// unobservable through this API.
//
// The whole-tree postorder is stored next to the arena. from_parents keeps
// the walk its acyclicity check makes; a mapped snapshot walks on the
// first postorder() call (thread-safe), so loading stays O(1). Copies
// share the stored order, and TreeBuilder drops it on the amended tree
// only, which walks again on its next postorder() call.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace ooctree::core {

/// Node index inside a Tree; nodes are numbered 0..size()-1.
using NodeId = std::int32_t;

/// Size of a node's output datum, in abstract memory units (paper: integer
/// units such as kilobytes or pages).
using Weight = std::int64_t;

/// Sentinel parent of the root node.
inline constexpr NodeId kNoNode = -1;

/// Transient-memory model: how much memory executing a node needs.
///
/// The paper (RR-9025) assumes the inputs are overwritten by the output,
/// so a task transiently needs max(inputs, output). Liu's original
/// pebbling model — and solvers that assemble the front next to the
/// children's contribution blocks — need inputs *and* output live at once.
/// Every algorithm in this library is generic in the choice: it only
/// enters through wbar().
enum class MemoryModel : std::uint8_t {
  kMaxInOut,  ///< wbar(i) = max(w_i, sum of children weights)   [the paper]
  kSumInOut,  ///< wbar(i) = w_i + sum of children weights       [Liu 1987]
};

class TreeStorage;  // arena backend, core/tree_storage.hpp

/// Pointer bundle into a storage arena (structure-of-arrays). The pointers
/// alias the backend's arena and are valid exactly as long as the
/// TreeStorage that handed them out. For a MappedStorage the memory is
/// read-only; only TreeBuilder writes, and only after promoting the tree
/// to a private OwnedStorage.
struct TreeArrays {
  NodeId* parent = nullptr;
  Weight* weight = nullptr;
  std::int64_t* child_offset = nullptr;  ///< nodes + 1 entries (CSR offsets)
  NodeId* child_list = nullptr;          ///< nodes - 1 entries (CSR adjacency)
  Weight* child_sum = nullptr;
  Weight* wbar = nullptr;
};

/// Immutable rooted in-tree of weighted tasks.
class Tree {
 public:
  /// Builds a tree from a parent array (parent[root] == kNoNode) and output
  /// data sizes. Throws std::invalid_argument when the arrays do not
  /// describe a single rooted tree, when a weight is negative, or when the
  /// two arrays differ in length. The arena is allocated in one shot,
  /// sized exactly to the tree.
  static Tree from_parents(std::vector<NodeId> parent, std::vector<Weight> weight,
                           MemoryModel model = MemoryModel::kMaxInOut);

  Tree(const Tree&) = default;             // shares the storage arena (O(1))
  Tree& operator=(const Tree&) = default;  // shares the storage arena (O(1))
  Tree(Tree&& other) noexcept;             // leaves `other` empty (size() == 0)
  Tree& operator=(Tree&& other) noexcept;
  ~Tree() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] NodeId root() const { return root_; }

  [[nodiscard]] Weight weight(NodeId i) const { return arrays_.weight[idx(i)]; }
  [[nodiscard]] NodeId parent(NodeId i) const { return arrays_.parent[idx(i)]; }

  /// Children of i, ordered by increasing node id.
  [[nodiscard]] std::span<const NodeId> children(NodeId i) const {
    const auto b = static_cast<std::size_t>(arrays_.child_offset[idx(i)]);
    const auto e = static_cast<std::size_t>(arrays_.child_offset[idx(i) + 1]);
    return {arrays_.child_list + b, e - b};
  }

  [[nodiscard]] bool is_leaf(NodeId i) const { return children(i).empty(); }
  [[nodiscard]] std::size_t num_children(NodeId i) const { return children(i).size(); }

  /// Sum of the children's output sizes (the input volume of node i).
  [[nodiscard]] Weight child_weight_sum(NodeId i) const { return arrays_.child_sum[idx(i)]; }

  /// Transient memory needed to execute i in isolation; the formula
  /// depends on the tree's MemoryModel (see enum above).
  [[nodiscard]] Weight wbar(NodeId i) const { return arrays_.wbar[idx(i)]; }

  /// The memory model this tree was built with.
  [[nodiscard]] MemoryModel memory_model() const { return model_; }

  /// The same tree under the other transient-memory model.
  [[nodiscard]] Tree with_memory_model(MemoryModel model) const;

  /// Largest wbar over all nodes: the minimum memory bound LB for which the
  /// tree is processable at all (paper, Section 6.1).
  [[nodiscard]] Weight min_feasible_memory() const { return max_wbar_; }

  /// Total weight of all outputs (an upper bound on any resident set).
  [[nodiscard]] Weight total_weight() const { return total_weight_; }

  /// True when this tree reads from a read-only mapped snapshot rather
  /// than an owned heap arena (diagnostics; the backends behave
  /// identically through this API).
  [[nodiscard]] bool is_mapped() const;

  /// Nodes of the subtree rooted at r in depth-first postorder: every node
  /// appears after all of its descendants; r is last. Children are visited
  /// in stored (increasing-id) order. Iterative — safe on deep chains.
  [[nodiscard]] std::vector<NodeId> postorder(NodeId r) const;

  /// Postorder of the whole tree (root() is the last element): the stored
  /// order, equal to postorder(root()). Walked at most once per tree
  /// structure; safe to call from several threads at once.
  [[nodiscard]] const std::vector<NodeId>& postorder() const;

  /// Number of nodes in the subtree rooted at r.
  [[nodiscard]] std::size_t subtree_size(NodeId r) const;

  /// Extracts the subtree rooted at r as a standalone Tree. When old_ids is
  /// non-null it receives, for each new node index, the corresponding node
  /// id in this tree.
  [[nodiscard]] Tree subtree(NodeId r, std::vector<NodeId>* old_ids = nullptr) const;

  /// Depth of the tree: number of nodes on the longest root-to-leaf path.
  [[nodiscard]] std::size_t depth() const;

  /// True when every node has weight 1 (the homogeneous case of Section 4.2).
  [[nodiscard]] bool is_homogeneous() const;

  /// Canonical 64-bit hash of the tree: a splitmix-chained digest of the
  /// logical content (size, memory model, and every node's parent and
  /// weight), independent of how the Tree was materialized — from_parents,
  /// TreeBuilder amendments, subtree extraction, a file round-trip or a
  /// mapped snapshot all hash equal for equal trees. Schedules and I/O
  /// functions refer to node ids, so the hash deliberately distinguishes
  /// renumberings of isomorphic trees: equal hash means cached plans apply
  /// verbatim. This is the tree component of the planning-service cache
  /// key (src/service/).
  [[nodiscard]] std::uint64_t canonical_hash() const;

  /// Multi-line human-readable rendering (small trees; for debugging).
  [[nodiscard]] std::string to_string() const;

 private:
  friend class TreeBuilder;  // in-place structural amendments (tree_builder.hpp)
  friend void save_snapshot(const std::string& path, const Tree& tree);  // core/snapshot.hpp
  friend Tree load_snapshot(const std::string& path);                    // core/snapshot.hpp

  Tree() = default;
  static std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }

  /// Guarantees a private, writable arena with room for at least
  /// `min_capacity` nodes, cloning (copy-on-write) or growing (capacity
  /// doubling, amortized O(1) appends) as needed, and refreshes the
  /// mirrored array pointers. The TreeBuilder mutation gate.
  void ensure_owned(std::size_t min_capacity);

  /// Forgets the stored postorder, so the next postorder() call walks: after
  /// a structural amendment (TreeBuilder), and for a freshly mapped tree
  /// (load_snapshot). Resets it in place when no copy shares it, else
  /// detaches this tree from the shared one.
  void drop_postorder();

  struct StoredPostorder;  // tree.cpp: the order, walked once under a mutex
  std::shared_ptr<TreeStorage> storage_;
  std::shared_ptr<StoredPostorder> postorder_;
  TreeArrays arrays_;  ///< mirror of storage_->arrays() for 1-hop access
  std::size_t size_ = 0;
  NodeId root_ = kNoNode;
  Weight max_wbar_ = 0;
  Weight total_weight_ = 0;
  MemoryModel model_ = MemoryModel::kMaxInOut;
};

/// Convenience builder used heavily in tests: nodes are given as
/// (parent, weight) pairs in index order.
[[nodiscard]] Tree make_tree(const std::vector<std::pair<NodeId, Weight>>& nodes);

}  // namespace ooctree::core
