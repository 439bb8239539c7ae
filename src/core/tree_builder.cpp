#include "src/core/tree_builder.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/core/tree_storage.hpp"

namespace ooctree::core {

namespace {
std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }
}  // namespace

std::pair<NodeId, NodeId> TreeBuilder::expand(NodeId i, Weight tau) {
  if (i < 0 || idx(i) >= t_.size()) throw std::invalid_argument("TreeBuilder::expand: bad node id");
  const Weight w = t_.arrays_.weight[idx(i)];
  if (tau < 0 || tau > w) throw std::invalid_argument("TreeBuilder::expand: tau out of range");

  const auto n = t_.size();
  // Private writable arena with room for the two appended nodes: promotes
  // shared or mapped storage (copy-on-write) and grows by doubling, so a
  // run of expansions stays amortized O(1) per append.
  t_.ensure_owned(n + 2);
  t_.drop_postorder();  // copies sharing the old order keep it
  TreeArrays& a = t_.arrays_;

  const auto i2 = static_cast<NodeId>(n);
  const auto i3 = static_cast<NodeId>(n + 1);
  const NodeId p = a.parent[idx(i)];

  // Parent pointers: i -> i2 -> i3 -> p.
  a.parent[idx(i)] = i2;
  a.parent[idx(i2)] = i3;
  a.parent[idx(i3)] = p;
  a.weight[idx(i2)] = w - tau;
  a.weight[idx(i3)] = w;

  // Children CSR. Inside p's span, i is replaced by i3; i3 carries the
  // largest id so it belongs at the span's end — shift the entries after i
  // left by one (from_parents keeps each span sorted by id). The appended
  // nodes i2 and i3 are the last parents, so their one-entry ranges go at
  // the tail of the adjacency array, exactly where from_parents would put
  // them.
  if (p == kNoNode) {
    t_.root_ = i3;
  } else {
    const auto b = static_cast<std::size_t>(a.child_offset[idx(p)]);
    const auto e = static_cast<std::size_t>(a.child_offset[idx(p) + 1]);
    NodeId* const span = a.child_list;
    const auto it = std::find(span + b, span + e, i);
    std::copy(it + 1, span + e, it);
    span[e - 1] = i3;
  }
  const std::int64_t edges = a.child_offset[n];  // CSR invariant: n - 1 edges
  a.child_list[static_cast<std::size_t>(edges)] = i;       // i2's only child
  a.child_list[static_cast<std::size_t>(edges) + 1] = i2;  // i3's only child
  a.child_offset[n + 1] = edges + 1;
  a.child_offset[n + 2] = edges + 2;

  // Derived quantities. i keeps its children and weight, so wbar(i) is
  // unchanged; p swaps a child of weight w for another of weight w, so
  // child_sum(p) and wbar(p) are unchanged too.
  const auto bar = [&](Weight own, Weight children_sum) {
    return t_.model_ == MemoryModel::kMaxInOut ? std::max(own, children_sum) : own + children_sum;
  };
  a.child_sum[idx(i2)] = w;        // i2's child is i (weight w)
  a.child_sum[idx(i3)] = w - tau;  // i3's child is i2
  a.wbar[idx(i2)] = bar(w - tau, w);
  a.wbar[idx(i3)] = bar(w, w - tau);
  t_.max_wbar_ = std::max({t_.max_wbar_, a.wbar[idx(i2)], a.wbar[idx(i3)]});
  t_.total_weight_ += (w - tau) + w;
  t_.size_ = n + 2;
  return {i2, i3};
}

}  // namespace ooctree::core
