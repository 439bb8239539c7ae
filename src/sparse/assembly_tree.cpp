#include "src/sparse/assembly_tree.hpp"

#include <algorithm>

#include "src/sparse/ordering.hpp"

namespace ooctree::sparse {

namespace {
std::size_t uz(Index i) { return static_cast<std::size_t>(i); }
}  // namespace

core::Tree assembly_tree(const SymPattern& pattern, const AssemblyOptions& options) {
  const Index n = pattern.size();
  const std::vector<Index> parent = elimination_tree(pattern);
  const std::vector<std::int64_t> counts = column_counts(pattern, parent);

  // Supernode amalgamation: column j is merged into its parent p when j is
  // p's only child and counts[j] == counts[p] + 1 (fundamental supernode —
  // the rows below the pivot coincide). rep[j] = top column of j's
  // supernode.
  std::vector<Index> child_count(uz(n), 0);
  for (Index j = 0; j < n; ++j)
    if (parent[uz(j)] != -1) ++child_count[uz(parent[uz(j)])];

  std::vector<Index> rep(uz(n));
  for (Index j = 0; j < n; ++j) rep[uz(j)] = j;
  if (options.amalgamate) {
    // Scan top-down (columns are topologically numbered: parent > child).
    for (Index j = n - 1; j >= 0; --j) {
      const Index p = parent[uz(j)];
      if (p != -1 && child_count[uz(p)] == 1 && counts[uz(j)] == counts[uz(p)] + 1)
        rep[uz(j)] = rep[uz(p)];  // j joins its parent's supernode
      if (j == 0) break;
    }
  }

  // Compress supernodes to task ids; each supernode's weight comes from its
  // top column's contribution block.
  std::vector<core::NodeId> task_id(uz(n), core::kNoNode);
  std::vector<core::NodeId> task_parent;
  std::vector<core::Weight> task_weight;
  std::vector<Index> task_top;  // top column per task
  for (Index j = 0; j < n; ++j) {
    if (rep[uz(j)] != j) continue;
    task_id[uz(j)] = static_cast<core::NodeId>(task_parent.size());
    task_parent.push_back(core::kNoNode);  // fixed below
    const std::int64_t cb = counts[uz(j)] - 1;  // contribution block order
    task_weight.push_back(std::max<core::Weight>(options.min_weight, cb * cb));
    task_top.push_back(j);
  }
  for (std::size_t t = 0; t < task_top.size(); ++t) {
    const Index top = task_top[t];
    const Index p = parent[uz(top)];
    if (p != -1) task_parent[t] = task_id[uz(rep[uz(p)])];
  }

  // Join a forest under a virtual root.
  std::size_t roots = 0;
  for (const core::NodeId p : task_parent) roots += (p == core::kNoNode) ? 1 : 0;
  if (roots > 1) {
    const auto virtual_root = static_cast<core::NodeId>(task_parent.size());
    for (auto& p : task_parent)
      if (p == core::kNoNode) p = virtual_root;
    task_parent.push_back(core::kNoNode);
    task_weight.push_back(options.min_weight);
  }
  return core::Tree::from_parents(std::move(task_parent), std::move(task_weight));
}

core::Tree assembly_tree_ordered(const SymPattern& pattern, const std::vector<Index>& perm,
                                 const AssemblyOptions& options) {
  return assembly_tree(pattern.permuted(perm), options);
}

core::Tree mtx_assembly_tree(const SymPattern& pattern) {
  return assembly_tree(pattern.permuted(minimum_degree(pattern)));
}

}  // namespace ooctree::sparse
