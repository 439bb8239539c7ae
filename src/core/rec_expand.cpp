#include "src/core/rec_expand.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "src/core/minmem_optimal.hpp"

namespace ooctree::core {

namespace {

std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }

/// Scratch buffers for the incremental expand-and-retry loop, reused
/// across iterations so the hot path performs no steady-state allocation.
struct SubtreeScratch {
  Schedule post;                  // rank -> expanded id (subtree postorder)
  std::vector<NodeId> rank_of;    // expanded id -> rank (subtree entries only)
  Schedule sched;                 // optimal schedule, expanded ids
  std::vector<std::size_t> pos;   // rank -> schedule position
  std::vector<Weight> resident;   // rank -> resident units of the node's output
  std::vector<Weight> io;         // rank -> FiF write amount
  std::vector<char> in_active;    // rank -> currently in the active set
  std::vector<std::uint64_t> heap;  // packed (parent_step << 32 | rank) max-heap
  std::vector<std::pair<NodeId, std::size_t>> dfs;  // postorder walk stack
};

/// v.assign(s, value) with geometric capacity growth: the processed
/// subtrees grow one expansion at a time, and an exact-fit assign would
/// reallocate on every iteration.
template <typename T>
void reset(std::vector<T>& v, std::size_t s, T value) {
  if (v.capacity() < s) v.reserve(std::max(s, 2 * v.capacity()));
  v.assign(s, value);
}

/// scratch.post = tree.postorder(sr), into the reused buffers.
void subtree_postorder(const Tree& tree, NodeId sr, SubtreeScratch& scratch) {
  scratch.post.clear();
  scratch.dfs.clear();
  scratch.dfs.emplace_back(sr, 0);
  while (!scratch.dfs.empty()) {
    auto& [node, next_child] = scratch.dfs.back();
    const auto kids = tree.children(node);
    if (next_child < kids.size()) {
      const NodeId c = kids[next_child++];
      scratch.dfs.emplace_back(c, 0);
    } else {
      scratch.post.push_back(node);
      scratch.dfs.pop_back();
    }
  }
}

/// FiF simulation of `scratch.sched` restricted to subtree(sr) of the
/// expanded tree, in the *rank* domain — rank k is exactly the id node
/// post[k] would have in the standalone subtree the reference path
/// extracts, so eviction tie-breaking (and therefore the resulting tau)
/// matches simulate_fif on that subtree bit for bit. The active set is a
/// lazy-deletion max-heap instead of std::set. Mirrors simulate_fif's
/// infeasibility behaviour: on budget underflow it returns immediately,
/// keeping the partial io accumulated so far.
void subtree_fif(const Tree& tree, NodeId sr, Weight memory, SubtreeScratch& scratch) {
  const std::size_t s = scratch.post.size();
  reset<std::size_t>(scratch.pos, s, 0);
  for (std::size_t t = 0; t < s; ++t) scratch.pos[idx(scratch.rank_of[idx(scratch.sched[t])])] = t;
  reset<Weight>(scratch.resident, s, 0);
  reset<Weight>(scratch.io, s, 0);
  reset<char>(scratch.in_active, s, 0);
  scratch.heap.clear();
  Weight active_resident = 0;

  for (std::size_t t = 0; t < s; ++t) {
    const NodeId node = scratch.sched[t];
    const NodeId rank = scratch.rank_of[idx(node)];

    // The children of `node` are consumed now: bring evicted parts back
    // (reads are not counted; write volume was charged at eviction time)
    // and remove them from the active set.
    for (const NodeId c : tree.children(node)) {
      const NodeId crank = scratch.rank_of[idx(c)];
      if (scratch.resident[idx(crank)] > 0) {
        scratch.in_active[idx(crank)] = 0;
        active_resident -= scratch.resident[idx(crank)];
      }
      scratch.resident[idx(crank)] = tree.weight(c);  // fully read back for execution
    }

    // Memory required while executing `node`: its own transient wbar plus
    // everything else resident. Evict furthest-in-the-future data first.
    const Weight budget = memory - tree.wbar(node);
    if (budget < 0) return;  // infeasible within the subtree: keep partial io
    while (active_resident > budget) {
      const auto vrank = static_cast<NodeId>(scratch.heap.front() & 0xffffffffu);
      if (!scratch.in_active[idx(vrank)]) {  // stale (consumed or fully evicted)
        std::pop_heap(scratch.heap.begin(), scratch.heap.end());
        scratch.heap.pop_back();
        continue;
      }
      const Weight excess = active_resident - budget;
      const Weight amount = std::min(excess, scratch.resident[idx(vrank)]);
      scratch.resident[idx(vrank)] -= amount;
      active_resident -= amount;
      scratch.io[idx(vrank)] += amount;
      if (scratch.resident[idx(vrank)] == 0) {
        scratch.in_active[idx(vrank)] = 0;
        std::pop_heap(scratch.heap.begin(), scratch.heap.end());
        scratch.heap.pop_back();
      }
    }

    // The node's output is now resident; it becomes active until its parent
    // runs (the subtree root's output simply stays resident).
    scratch.resident[idx(rank)] = tree.weight(node);
    if (node != sr) {
      const NodeId prank = scratch.rank_of[idx(tree.parent(node))];
      scratch.heap.push_back(static_cast<std::uint64_t>(scratch.pos[idx(prank)]) << 32 |
                             static_cast<std::uint32_t>(rank));
      std::push_heap(scratch.heap.begin(), scratch.heap.end());
      scratch.in_active[idx(rank)] = 1;
      active_resident += tree.weight(node);
    }
  }
}

/// The victim-selection scan of Algorithm 2, line 6: the FiF-positive node
/// whose parent is scheduled latest, the first one on a tie. Runs in the
/// rank domain (identical iteration order and keys as the reference path's
/// scan over sub ids).
NodeId select_victim(const Tree& tree, const SubtreeScratch& scratch) {
  NodeId victim = kNoNode;
  std::size_t latest_parent = 0;
  for (std::size_t k = 0; k < scratch.io.size(); ++k) {
    if (scratch.io[k] <= 0) continue;
    // tau > 0 => non-root of the subtree, so the parent is inside it.
    const NodeId prank = scratch.rank_of[idx(tree.parent(scratch.post[k]))];
    const std::size_t parent_pos = scratch.pos[idx(prank)];
    if (victim == kNoNode || parent_pos > latest_parent) {
      victim = static_cast<NodeId>(k);
      latest_parent = parent_pos;
    }
  }
  return victim;
}

}  // namespace

RecExpandResult rec_expand(const Tree& tree, Weight memory, const RecExpandOptions& options,
                           const std::vector<Weight>& orig_peaks) {
  if (orig_peaks.size() != tree.size())
    throw std::invalid_argument("rec_expand: orig_peaks size does not match the tree");
  return rec_expand(tree, memory, options);
}

RecExpandResult rec_expand(const Tree& tree, Weight memory, const RecExpandOptions& options) {
  RecExpandResult result;

  ExpandedTree expanded = ExpandedTree::identity(tree);
  // top_rep[r]: the highest node of the expanded tree whose origin is r
  // (the outermost i3 once r's data has been expanded). The expanded
  // counterpart of the original subtree rooted at r is rooted there.
  std::vector<NodeId> top_rep(tree.size());
  for (std::size_t k = 0; k < tree.size(); ++k) top_rep[k] = static_cast<NodeId>(k);

  IncrementalMinMem engine;
  engine.reserve(tree.size());
  SubtreeScratch scratch;
  std::size_t total_expansions = 0;

  const std::vector<NodeId> order = tree.postorder();
  for (const NodeId r : order) {
    // Expand-and-retry loop of Algorithm 2 on the (expanded) subtree of r.
    // sr is stable across the loop: the victim always has tau > 0, hence a
    // parent inside the subtree, so it is never the subtree root itself.
    const NodeId sr = top_rep[idx(r)];
    // Combines only the not-yet-cached nodes: in this postorder, r itself
    // plus whatever an expansion below left dirty. The engine's peak is the
    // subtree's exact optimal peak, so a subtree that fits is skipped by the
    // loop's first test. When r's original subtree already fits, nothing
    // below r was ever expanded (peaks are monotone along the tree), so the
    // expanded subtree is the original one and is skipped exactly as an
    // up-front pass over the original peaks would skip it.
    engine.ensure(expanded.tree, sr);
    std::size_t node_expansions = 0;
    for (;;) {
      if (engine.peak(sr) <= memory) break;
      if (node_expansions >= options.max_expansions_per_node) break;
      if (total_expansions >= options.global_expansion_cap) break;

      // Rank mapping: rank k == the id node post[k] would carry in the
      // standalone Tree the reference path extracts with Tree::subtree.
      subtree_postorder(expanded.tree, sr, scratch);
      if (scratch.rank_of.size() < expanded.tree.size())
        scratch.rank_of.resize(expanded.tree.size(), kNoNode);
      for (std::size_t k = 0; k < scratch.post.size(); ++k)
        scratch.rank_of[idx(scratch.post[k])] = static_cast<NodeId>(k);

      // FiF on the cached optimal schedule identifies where I/O is
      // unavoidable; force the victim selected by the configured rule into
      // the tree (the paper: the node whose parent executes latest).
      scratch.sched.clear();
      engine.extract_schedule(sr, scratch.sched);
      subtree_fif(expanded.tree, sr, memory, scratch);
      const NodeId victim = select_victim(expanded.tree, scratch);
      if (victim == kNoNode) break;  // peak > M but no I/O was forced: done

      const NodeId victim_in_expanded = scratch.post[idx(victim)];
      const NodeId victim_origin = expanded.origin[idx(victim_in_expanded)];
      const bool was_top = victim_in_expanded == top_rep[idx(victim_origin)];
      const auto [i2, i3] =
          expanded.expand_in_place(victim_in_expanded, scratch.io[idx(victim)]);
      // Dirty path: the expansion changed the tree only along
      // victim -> i2 -> i3 -> old parent; every node's cached sequence
      // outside that ancestor path is still exact. Recombine bottom-up.
      engine.combine(expanded.tree, i2);
      engine.combine(expanded.tree, i3);
      for (NodeId u = expanded.tree.parent(i3);; u = expanded.tree.parent(u)) {
        engine.combine(expanded.tree, u);
        if (u == sr) break;
      }
      if (was_top) {
        // The new i3 — appended last — replaces the victim at the top of
        // its origin's expansion chain.
        top_rep[idx(victim_origin)] = i3;
      }
      ++node_expansions;
      ++total_expansions;
    }
  }

  // Final OptMinMem of the fully expanded tree, straight from the cache:
  // only the nodes above the processed subtrees still need combining.
  const NodeId root = expanded.tree.root();
  engine.ensure(expanded.tree, root);
  result.final_peak = engine.peak(root);
  Schedule final_schedule;
  final_schedule.reserve(expanded.tree.size());
  engine.extract_schedule(root, final_schedule);
  result.schedule = expanded.map_schedule(final_schedule);
  result.evaluation = simulate_fif(tree, result.schedule, memory);
  result.expansion_volume = expanded.expansion_volume;
  result.expansions = total_expansions;
  return result;
}

}  // namespace ooctree::core
