#include "src/core/minio_postorder.hpp"

#include <algorithm>

namespace ooctree::core {

namespace {
std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }
}  // namespace

PostOrderMinIoResult postorder_minio(const Tree& tree, NodeId root, Weight memory) {
  PostOrderMinIoResult result;
  result.used.assign(tree.size(), 0);
  result.storage.assign(tree.size(), 0);
  result.io.assign(tree.size(), 0);

  // Every node's children, copied once into one flat array; node i owns
  // the slice starting at first[i] and sorts it in place.
  const std::vector<NodeId> order = tree.postorder(root);
  std::vector<NodeId> sorted(order.size());
  std::vector<std::size_t> first(tree.size(), 0);
  std::size_t cursor = 0;
  for (const NodeId i : order) {
    const auto kids = tree.children(i);
    first[idx(i)] = cursor;
    const auto begin = sorted.begin() + static_cast<std::ptrdiff_t>(cursor);
    const auto end = std::copy(kids.begin(), kids.end(), begin);
    cursor += kids.size();
    // Theorem 3 with x_j = A_j, y_j = w_j: sort by non-increasing A_j - w_j.
    // Children are stored by increasing id, so breaking ties by id keeps
    // the stored order among equals (what a stable sort would do).
    std::sort(begin, end, [&](NodeId a, NodeId b) {
      const Weight ka = result.used[idx(a)] - tree.weight(a);
      const Weight kb = result.used[idx(b)] - tree.weight(b);
      return ka != kb ? ka > kb : a < b;
    });

    Weight s = tree.weight(i);
    Weight peak_used = 0;  // max_j (A_j + sum of w_k before j)
    Weight io_sum = 0;
    Weight before = 0;
    for (auto it = begin; it != end; ++it) {
      const NodeId j = *it;
      s = std::max(s, result.storage[idx(j)] + before);
      peak_used = std::max(peak_used, result.used[idx(j)] + before);
      io_sum += result.io[idx(j)];
      before += tree.weight(j);
    }
    s = std::max(s, tree.wbar(i));
    result.storage[idx(i)] = s;
    result.used[idx(i)] = std::min(memory, s);
    result.io[idx(i)] = std::max<Weight>(0, peak_used - memory) + io_sum;
  }
  result.predicted_io = result.io[idx(root)];

  result.schedule.reserve(order.size());
  std::vector<std::pair<NodeId, std::size_t>> stack;
  stack.emplace_back(root, 0);
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < tree.num_children(node)) {
      stack.emplace_back(sorted[first[idx(node)] + next++], 0);
    } else {
      result.schedule.push_back(node);
      stack.pop_back();
    }
  }
  return result;
}

}  // namespace ooctree::core
