#include "src/core/traversal.hpp"

#include <algorithm>
#include <sstream>

namespace ooctree::core {

namespace {
std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }
}  // namespace

bool is_topological_order(const Tree& tree, const Schedule& schedule) {
  if (schedule.size() != tree.size()) return false;
  std::vector<bool> seen(tree.size(), false);
  for (const NodeId node : schedule) {
    if (node < 0 || idx(node) >= tree.size() || seen[idx(node)]) return false;
    for (const NodeId c : tree.children(node))
      if (!seen[idx(c)]) return false;
    seen[idx(node)] = true;
  }
  return true;
}

std::vector<std::size_t> schedule_positions(const Tree& tree, const Schedule& schedule) {
  std::vector<std::size_t> pos(tree.size(), 0);
  for (std::size_t t = 0; t < schedule.size(); ++t) pos[idx(schedule[t])] = t;
  return pos;
}

std::optional<std::string> validate_traversal(const Tree& tree, const Schedule& schedule,
                                              const IoFunction& io, Weight memory) {
  if (!is_topological_order(tree, schedule)) return "schedule is not a topological order";
  if (io.size() != tree.size()) return "io function has wrong length";
  for (std::size_t i = 0; i < io.size(); ++i) {
    if (io[i] < 0 || io[i] > tree.weight(static_cast<NodeId>(i))) {
      std::ostringstream os;
      os << "io amount out of range for node " << i << ": tau=" << io[i]
         << " w=" << tree.weight(static_cast<NodeId>(i));
      return os.str();
    }
  }

  // Memory condition: while executing node i, every *active* node k
  // (produced, parent not yet executed, and k not a child of i) keeps
  // w_k - tau(k) units resident; the total plus wbar(i) must fit in M.
  Weight active_resident = 0;  // sum over active nodes of (w_k - tau(k))
  for (std::size_t t = 0; t < schedule.size(); ++t) {
    const NodeId node = schedule[t];
    // Children of `node` stop being active exactly at step t.
    for (const NodeId c : tree.children(node))
      active_resident -= tree.weight(c) - io[idx(c)];
    if (active_resident + tree.wbar(node) > memory) {
      std::ostringstream os;
      os << "memory exceeded at step " << t << " (node " << node << "): active "
         << active_resident << " + wbar " << tree.wbar(node) << " > M " << memory;
      return os.str();
    }
    if (node != tree.root()) active_resident += tree.weight(node) - io[idx(node)];
  }
  return std::nullopt;
}

std::vector<Weight> memory_profile(const Tree& tree, const Schedule& schedule) {
  std::vector<Weight> profile(schedule.size(), 0);
  Weight active = 0;  // resident outputs of active nodes (no I/O performed)
  for (std::size_t t = 0; t < schedule.size(); ++t) {
    const NodeId node = schedule[t];
    for (const NodeId c : tree.children(node)) active -= tree.weight(c);
    profile[t] = active + tree.wbar(node);
    if (node != tree.root()) active += tree.weight(node);
  }
  return profile;
}

Weight peak_memory(const Tree& tree, const Schedule& schedule) {
  const std::vector<Weight> profile = memory_profile(tree, schedule);
  return profile.empty() ? 0 : *std::max_element(profile.begin(), profile.end());
}

}  // namespace ooctree::core
