#include "tests/oracles/rec_expand_reference.hpp"

#include <stdexcept>
#include <vector>

#include "src/core/minmem_optimal.hpp"

namespace ooctree::core::oracle {

namespace {
std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }
}  // namespace

ExpandedTree expand_rebuild(const ExpandedTree& expanded, NodeId i, Weight tau) {
  const Tree& tree = expanded.tree;
  if (i < 0 || idx(i) >= tree.size()) throw std::invalid_argument("expand: bad node id");
  if (tau < 0 || tau > tree.weight(i)) throw std::invalid_argument("expand: tau out of range");

  const auto n = tree.size();
  // New ids: old node k keeps id k; i stays i1 (kCompute keeps its old
  // children); i2 = n, i3 = n + 1 take over upward edges.
  std::vector<NodeId> parent(n + 2, kNoNode);
  std::vector<Weight> weight(n + 2, 0);
  for (std::size_t k = 0; k < n; ++k) {
    parent[k] = tree.parent(static_cast<NodeId>(k));
    weight[k] = tree.weight(static_cast<NodeId>(k));
  }
  const auto i2 = static_cast<NodeId>(n);
  const auto i3 = static_cast<NodeId>(n + 1);
  parent[idx(i3)] = tree.parent(i);  // i3 replaces i below i's parent
  parent[idx(i2)] = i3;
  parent[idx(i)] = i2;
  weight[idx(i2)] = tree.weight(i) - tau;
  weight[idx(i3)] = tree.weight(i);

  std::vector<NodeId> new_origin = expanded.origin;
  new_origin.push_back(expanded.origin[idx(i)]);
  new_origin.push_back(expanded.origin[idx(i)]);
  std::vector<ExpansionRole> new_role = expanded.role;
  new_role.push_back(ExpansionRole::kShrunk);
  new_role.push_back(ExpansionRole::kRestored);
  return ExpandedTree{Tree::from_parents(std::move(parent), std::move(weight), tree.memory_model()),
                      std::move(new_origin), std::move(new_role),
                      expanded.expansion_volume + tau};
}

RecExpandResult rec_expand_reference(const Tree& tree, Weight memory,
                                     const RecExpandOptions& options) {
  RecExpandResult result;

  ExpandedTree expanded = ExpandedTree::identity(tree);
  std::vector<NodeId> top_rep(tree.size());
  for (std::size_t k = 0; k < tree.size(); ++k) top_rep[k] = static_cast<NodeId>(k);

  const std::vector<Weight> orig_peak = opt_minmem_all_peaks(tree);

  std::size_t total_expansions = 0;

  const std::vector<NodeId> order = tree.postorder();
  for (const NodeId r : order) {
    if (orig_peak[idx(r)] <= memory) continue;

    std::size_t node_expansions = 0;
    for (;;) {
      std::vector<NodeId> old_ids;
      const Tree sub = expanded.tree.subtree(top_rep[idx(r)], &old_ids);
      const OptMinMemResult opt = opt_minmem(sub);
      if (opt.peak <= memory) break;
      if (node_expansions >= options.max_expansions_per_node) break;
      if (total_expansions >= options.global_expansion_cap) break;

      const FifResult fif = simulate_fif(sub, opt.schedule, memory);
      const std::vector<std::size_t> pos = schedule_positions(sub, opt.schedule);
      NodeId victim = kNoNode;  // the FiF-positive node whose parent runs latest
      std::size_t latest_parent = 0;
      for (std::size_t k = 0; k < sub.size(); ++k) {
        if (fif.io[k] <= 0) continue;
        const NodeId knode = static_cast<NodeId>(k);
        const NodeId parent = sub.parent(knode);  // tau>0 => non-root
        if (victim == kNoNode || pos[idx(parent)] > latest_parent) {
          victim = knode;
          latest_parent = pos[idx(parent)];
        }
      }
      if (victim == kNoNode) break;  // peak > M but no I/O was forced: done

      const NodeId victim_in_expanded = old_ids[idx(victim)];
      const NodeId victim_origin = expanded.origin[idx(victim_in_expanded)];
      const bool was_top = victim_in_expanded == top_rep[idx(victim_origin)];
      expanded = expand_rebuild(expanded, victim_in_expanded, fif.io[idx(victim)]);
      if (was_top) {
        top_rep[idx(victim_origin)] = static_cast<NodeId>(expanded.tree.size() - 1);
      }
      ++node_expansions;
      ++total_expansions;
    }
  }

  const OptMinMemResult final_opt = opt_minmem(expanded.tree);
  result.final_peak = final_opt.peak;
  result.schedule = expanded.map_schedule(final_opt.schedule);
  result.evaluation = simulate_fif(tree, result.schedule, memory);
  result.expansion_volume = expanded.expansion_volume;
  result.expansions = total_expansions;
  return result;
}

}  // namespace ooctree::core::oracle
