#include "src/core/expansion.hpp"

#include <stdexcept>

#include "src/core/minmem_optimal.hpp"
#include "src/core/tree_builder.hpp"

namespace ooctree::core {

namespace {
std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }
}  // namespace

ExpandedTree ExpandedTree::identity(Tree t) {
  ExpandedTree out{std::move(t), {}, {}, 0};
  out.origin.resize(out.tree.size());
  for (std::size_t k = 0; k < out.tree.size(); ++k) out.origin[k] = static_cast<NodeId>(k);
  out.role.assign(out.tree.size(), ExpansionRole::kCompute);
  return out;
}

std::pair<NodeId, NodeId> ExpandedTree::expand_in_place(NodeId i, Weight tau) {
  // Validate before adopting the tree: once it is moved into the builder a
  // throw would leave *this with a moved-from tree and stale origin/role.
  if (i < 0 || idx(i) >= tree.size()) throw std::invalid_argument("expand: bad node id");
  if (tau < 0 || tau > tree.weight(i)) throw std::invalid_argument("expand: tau out of range");
  TreeBuilder builder(std::move(tree));
  const auto [i2, i3] = builder.expand(i, tau);
  tree = builder.take();
  origin.push_back(origin[idx(i)]);
  origin.push_back(origin[idx(i)]);
  // The expanded node keeps its role (a kShrunk node can be re-expanded:
  // its i1 part remains kShrunk — it still performs no new computation).
  role.push_back(ExpansionRole::kShrunk);
  role.push_back(ExpansionRole::kRestored);
  expansion_volume += tau;
  return {i2, i3};
}

void ExpandedTree::expand_all(const IoFunction& io) {
  if (io.size() != tree.size()) throw std::invalid_argument("expand_all: bad io length");
  // Validate the whole batch before adopting the tree, so a bad tau cannot
  // leave *this half-expanded with a moved-from tree. Non-positive entries
  // are skipped below, matching the historical schedule_from_io loop.
  for (std::size_t k = 0; k < io.size(); ++k)
    if (io[k] > tree.weight(static_cast<NodeId>(k)))
      throw std::invalid_argument("expand_all: tau out of range");
  TreeBuilder builder(std::move(tree));
  for (std::size_t k = 0; k < io.size(); ++k) {
    if (io[k] <= 0) continue;
    // Node ids below the original size are stable across expansions (new
    // nodes are appended), so expanding in index order is safe.
    builder.expand(static_cast<NodeId>(k), io[k]);
    origin.push_back(origin[k]);
    origin.push_back(origin[k]);
    role.push_back(ExpansionRole::kShrunk);
    role.push_back(ExpansionRole::kRestored);
    expansion_volume += io[k];
  }
  tree = builder.take();
}

ExpandedTree ExpandedTree::expand(NodeId i, Weight tau) const {
  ExpandedTree out = *this;
  out.expand_in_place(i, tau);
  return out;
}

Schedule ExpandedTree::map_schedule(const Schedule& expanded_schedule) const {
  Schedule out;
  out.reserve(expanded_schedule.size());
  for (const NodeId k : expanded_schedule)
    if (role[idx(k)] == ExpansionRole::kCompute) out.push_back(origin[idx(k)]);
  return out;
}

std::optional<Schedule> schedule_from_io(const Tree& tree, const IoFunction& io, Weight memory) {
  if (io.size() != tree.size()) throw std::invalid_argument("schedule_from_io: bad io length");
  ExpandedTree expanded = ExpandedTree::identity(tree);
  expanded.expand_all(io);
  OptMinMemResult opt = opt_minmem(expanded.tree);
  if (opt.peak > memory) return std::nullopt;
  return expanded.map_schedule(opt.schedule);
}

}  // namespace ooctree::core
