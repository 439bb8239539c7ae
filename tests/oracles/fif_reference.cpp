#include "tests/oracles/fif_reference.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ooctree::core::oracle {

namespace {
std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }
}  // namespace

FifResult fif_reference(const Tree& tree, const Schedule& schedule, Weight memory) {
  if (!is_topological_order(tree, schedule))
    throw std::invalid_argument("fif_reference: schedule is not a topological order");
  const std::vector<std::size_t> pos = schedule_positions(tree, schedule);
  const std::size_t n = tree.size();

  FifResult result;
  result.io.assign(n, 0);
  std::vector<Weight> resident(n, 0);
  std::set<std::pair<std::size_t, NodeId>> active;  // (parent step, node)
  Weight active_resident = 0;

  for (std::size_t t = 0; t < n; ++t) {
    const NodeId node = schedule[t];
    for (const NodeId c : tree.children(node)) {
      if (active.erase({t, c}) > 0) active_resident -= resident[idx(c)];
      resident[idx(c)] = tree.weight(c);
    }

    const Weight budget = memory - tree.wbar(node);
    if (budget < 0) {
      result.feasible = false;
      return result;
    }
    while (active_resident > budget) {
      const auto last = std::prev(active.end());
      const NodeId victim = last->second;
      const Weight amount = std::min(active_resident - budget, resident[idx(victim)]);
      resident[idx(victim)] -= amount;
      active_resident -= amount;
      result.io[idx(victim)] += amount;
      result.io_volume += amount;
      ++result.evictions;
      if (resident[idx(victim)] == 0) active.erase(last);
    }
    result.peak_resident = std::max(result.peak_resident, active_resident + tree.wbar(node));

    resident[idx(node)] = tree.weight(node);
    if (node != tree.root()) {
      active.insert({pos[idx(tree.parent(node))], node});
      active_resident += tree.weight(node);
    }
  }
  result.feasible = true;
  return result;
}

}  // namespace ooctree::core::oracle
