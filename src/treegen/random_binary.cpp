#include "src/treegen/random_binary.hpp"

#include <array>
#include <stdexcept>

namespace ooctree::treegen {

namespace {

/// Full binary tree under construction for Rémy's algorithm.
struct FullTree {
  // child[v][0..1] = kNoNode for leaves; parent[v]; root id.
  std::vector<std::array<core::NodeId, 2>> child;
  std::vector<core::NodeId> parent;
  core::NodeId root = 0;
};

/// Rémy's algorithm: grows a uniform full binary tree with `internal`
/// internal nodes by repeatedly picking a uniform (node, side) pair: the
/// picked node is pushed down under a fresh internal node whose other side
/// gets a fresh leaf. Node count: 2 * internal + 1.
FullTree grow_remy(std::size_t internal, util::Rng& rng) {
  FullTree t;
  const std::size_t total = 2 * internal + 1;
  t.child.reserve(total);
  t.parent.reserve(total);
  t.child.push_back({core::kNoNode, core::kNoNode});  // initial single leaf
  t.parent.push_back(core::kNoNode);
  t.root = 0;

  for (std::size_t k = 1; k <= internal; ++k) {
    if (t.child.size() >= total) break;
    const std::size_t nodes = t.child.size();
    const std::size_t pick = rng.index(2 * nodes);
    const auto target = static_cast<core::NodeId>(pick / 2);
    const std::size_t side = pick % 2;

    const auto fresh_internal = static_cast<core::NodeId>(t.child.size());
    t.child.push_back({core::kNoNode, core::kNoNode});
    t.parent.push_back(core::kNoNode);
    const auto fresh_leaf = static_cast<core::NodeId>(t.child.size());
    t.child.push_back({core::kNoNode, core::kNoNode});
    t.parent.push_back(core::kNoNode);

    const core::NodeId up = t.parent[static_cast<std::size_t>(target)];
    t.child[static_cast<std::size_t>(fresh_internal)][side] = target;
    t.child[static_cast<std::size_t>(fresh_internal)][1 - side] = fresh_leaf;
    t.parent[static_cast<std::size_t>(target)] = fresh_internal;
    t.parent[static_cast<std::size_t>(fresh_leaf)] = fresh_internal;
    t.parent[static_cast<std::size_t>(fresh_internal)] = up;
    if (up == core::kNoNode) {
      t.root = fresh_internal;
    } else {
      auto& up_child = t.child[static_cast<std::size_t>(up)];
      if (up_child[0] == target) up_child[0] = fresh_internal;
      else up_child[1] = fresh_internal;
    }
  }
  return t;
}

/// Parent array of the full tree's internal nodes, renumbered in
/// increasing original id. The internal nodes of a uniform full binary tree
/// with n internal nodes form a uniform (ordered) binary tree with n nodes:
/// stripping the leaves is a bijection between the two families.
std::vector<core::NodeId> strip_leaves(const FullTree& full) {
  // new_id[v]: v's id among the internal nodes (leaves keep kNoNode).
  std::vector<core::NodeId> new_id(full.parent.size(), core::kNoNode);
  core::NodeId kept = 0;
  for (std::size_t v = 0; v < full.parent.size(); ++v)
    if (full.child[v][0] != core::kNoNode) new_id[v] = kept++;
  std::vector<core::NodeId> parent(static_cast<std::size_t>(kept), core::kNoNode);
  for (std::size_t v = 0; v < full.parent.size(); ++v) {
    const core::NodeId k = new_id[v];
    // In a full binary tree every ancestor of an internal node is internal.
    if (k != core::kNoNode && full.parent[v] != core::kNoNode)
      parent[static_cast<std::size_t>(k)] = new_id[static_cast<std::size_t>(full.parent[v])];
  }
  return parent;
}

/// Parent array of a uniform random binary tree with n nodes.
std::vector<core::NodeId> uniform_binary_parents(std::size_t n, util::Rng& rng) {
  if (n == 0) throw std::invalid_argument("uniform_binary_tree: n must be positive");
  return strip_leaves(grow_remy(n, rng));
}

}  // namespace

core::Tree remy_binary_tree(std::size_t internal, util::Rng& rng) {
  if (internal == 0) throw std::invalid_argument("remy_binary_tree: need at least one node");
  FullTree t = grow_remy(internal, rng);
  const std::size_t n = t.parent.size();
  return core::Tree::from_parents(std::move(t.parent), std::vector<core::Weight>(n, 1));
}

core::Tree uniform_binary_tree(std::size_t n, util::Rng& rng) {
  return core::Tree::from_parents(uniform_binary_parents(n, rng), std::vector<core::Weight>(n, 1));
}

core::Tree synth_instance(std::size_t n, core::Weight w_lo, core::Weight w_hi, util::Rng& rng,
                          core::MemoryModel model) {
  std::vector<core::NodeId> parent = uniform_binary_parents(n, rng);
  // Drawn in node order after the shape, as with_uniform_weights does.
  std::vector<core::Weight> weight(n);
  for (auto& w : weight) w = rng.uniform_int(w_lo, w_hi);
  return core::Tree::from_parents(std::move(parent), std::move(weight), model);
}

}  // namespace ooctree::treegen
