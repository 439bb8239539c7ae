#include "src/core/homogeneous.hpp"

#include <algorithm>
#include <stdexcept>

namespace ooctree::core {

namespace {
std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }
}  // namespace

HomogeneousLabels homogeneous_labels(const Tree& tree, Weight memory) {
  if (!tree.is_homogeneous())
    throw std::invalid_argument("homogeneous_labels: tree has a weight != 1");
  if (tree.memory_model() != MemoryModel::kMaxInOut)
    throw std::invalid_argument(
        "homogeneous_labels: the Section 4.2 theory assumes the paper's max(in, out) model");

  HomogeneousLabels out;
  out.l.assign(tree.size(), 0);
  out.c.assign(tree.size(), 0);
  out.m.assign(tree.size(), 0);
  out.w.assign(tree.size(), 0);

  // sorted_children[v]: children by non-increasing l (the POSTORDER order).
  std::vector<std::vector<NodeId>> sorted_children(tree.size());

  const std::vector<NodeId>& order = tree.postorder();
  for (const NodeId v : order) {
    const auto kids = tree.children(v);
    auto& sorted = sorted_children[idx(v)];
    sorted.assign(kids.begin(), kids.end());
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](NodeId a, NodeId b) { return out.l[idx(a)] > out.l[idx(b)]; });

    if (sorted.empty()) {
      out.l[idx(v)] = 1;  // a leaf occupies its own output slot
    } else {
      Weight l = 0;
      for (std::size_t i = 0; i < sorted.size(); ++i)
        l = std::max(l, out.l[idx(sorted[i])] + static_cast<Weight>(i));
      out.l[idx(v)] = l;
    }

    // I/O indicator sweep over the sorted children: c(v_1) = 0 and
    // c(v_i) = 1 iff l(v_i) + (children of v still resident) exceeds M.
    Weight resident = 0;  // m(v_i): sum over previous siblings of (1 - c)
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const NodeId vi = sorted[i];
      out.m[idx(vi)] = resident;
      if (i == 0) {
        out.c[idx(vi)] = 0;
      } else {
        out.c[idx(vi)] = (out.l[idx(vi)] + resident <= memory) ? 0 : 1;
      }
      resident += 1 - out.c[idx(vi)];
      out.w[idx(v)] += out.c[idx(vi)];
    }
  }
  out.c[idx(tree.root())] = 0;

  out.total_io = 0;
  for (const Weight wv : out.w) out.total_io += wv;

  // POSTORDER schedule: DFS with children in non-increasing l order.
  out.postorder.reserve(tree.size());
  std::vector<std::pair<NodeId, std::size_t>> stack;
  stack.emplace_back(tree.root(), 0);
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    const auto& sorted = sorted_children[idx(node)];
    if (next < sorted.size()) {
      stack.emplace_back(sorted[next++], 0);
    } else {
      out.postorder.push_back(node);
      stack.pop_back();
    }
  }
  return out;
}

Weight homogeneous_optimal_io(const Tree& tree, Weight memory) {
  return homogeneous_labels(tree, memory).total_io;
}

Weight homogeneous_min_peak(const Tree& tree) {
  // Only the l labels are needed; memory bound is irrelevant for them.
  return homogeneous_labels(tree, tree.total_weight()).l[idx(tree.root())];
}

}  // namespace ooctree::core
