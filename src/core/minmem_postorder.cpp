#include "src/core/minmem_postorder.hpp"

#include <algorithm>

namespace ooctree::core {

namespace {
std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }
}  // namespace

PostOrderMinMemResult postorder_minmem(const Tree& tree, NodeId root) {
  PostOrderMinMemResult result;
  result.storage.assign(tree.size(), 0);
  // sorted_children[i]: children of i ordered by non-increasing S_j - w_j,
  // filled once S values of all children are known (postorder sweep).
  std::vector<std::vector<NodeId>> sorted_children(tree.size());

  std::vector<NodeId> walked;  // only a proper subtree needs its own walk
  const std::vector<NodeId>& order =
      root == tree.root() ? tree.postorder() : (walked = tree.postorder(root));
  for (const NodeId i : order) {
    const auto kids = tree.children(i);
    auto& sorted = sorted_children[idx(i)];
    sorted.assign(kids.begin(), kids.end());
    std::stable_sort(sorted.begin(), sorted.end(), [&](NodeId a, NodeId b) {
      return result.storage[idx(a)] - tree.weight(a) > result.storage[idx(b)] - tree.weight(b);
    });
    Weight s = tree.weight(i);
    Weight before = 0;  // sum of w_k over already-finished siblings
    for (const NodeId j : sorted) {
      s = std::max(s, result.storage[idx(j)] + before);
      before += tree.weight(j);
    }
    // Executing i itself needs wbar(i) = max(w_i, sum of children weights);
    // the "before" total after the loop equals the children sum, and the
    // last child's S_j >= w_j makes the max above already cover it, but the
    // explicit bound keeps single-node subtrees correct too.
    s = std::max(s, tree.wbar(i));
    result.storage[idx(i)] = s;
  }
  result.peak = result.storage[idx(root)];

  // Emit the postorder defined by the sorted children (iterative DFS).
  result.schedule.reserve(order.size());
  std::vector<std::pair<NodeId, std::size_t>> stack;
  stack.emplace_back(root, 0);
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    const auto& sorted = sorted_children[idx(node)];
    if (next < sorted.size()) {
      stack.emplace_back(sorted[next++], 0);
    } else {
      result.schedule.push_back(node);
      stack.pop_back();
    }
  }
  return result;
}

}  // namespace ooctree::core
