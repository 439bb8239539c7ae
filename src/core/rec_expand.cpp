#include "src/core/rec_expand.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/core/minmem_optimal.hpp"
#include "src/core/rank_set.hpp"

namespace ooctree::core {

namespace {

std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }

/// Per-node state of the subtree FiF, kept together so a step touches one
/// cache line per node.
struct NodeState {
  Weight resident = 0;     // resident units of the node's output
  Weight io = 0;           // FiF write amount
  std::uint32_t pos = 0;   // schedule position
  std::uint32_t rank = 0;  // consumption rank (rank_set.hpp)
};

/// Scratch buffers for the expand-and-retry loop, indexed by expanded-tree
/// id (or by rank) and reused across iterations, so the hot path performs
/// no steady-state allocation. An iteration touches only the entries of
/// the nodes its schedule runs.
struct SubtreeScratch {
  Schedule sched;                // the engine's optimal schedule of the subtree
  std::vector<NodeState> state;  // id -> FiF state
  std::vector<NodeId> node_of;   // rank -> node
  RankSet active;                // ranks of the active data
};

/// Grows v to at least s entries with geometric capacity growth: the tree
/// grows one expansion at a time, and an exact-fit resize would reallocate
/// on every iteration. Callers write an entry before they read it.
template <typename T>
void grow(std::vector<T>& v, std::size_t s) {
  if (v.size() >= s) return;
  if (v.capacity() < s) v.reserve(std::max(s, 2 * v.capacity()));
  v.resize(s);
}

/// FiF simulation of `scratch.sched`, the optimal schedule of subtree(sr),
/// on the tree's own ids. Returns the victim of Algorithm 2, line 6: the
/// FiF-positive node whose parent is scheduled latest, the first sibling
/// on a tie, or kNoNode when no I/O is forced.
///
/// The reference path runs simulate_fif on the standalone subtree that
/// Tree::subtree extracts, whose ids are postorder ranks. Active keys
/// differ only between siblings, and a postorder visits siblings in span
/// order, so ordering siblings by their slot in the parent's child span
/// evicts exactly as the reference does: the resulting tau is the same bit
/// for bit. The consumption rank (parent step, then slot) is that order.
/// The victim is tracked as evictions happen instead of by a scan
/// afterwards. Mirrors simulate_fif's infeasibility behaviour: on budget
/// underflow it stops at once, and the victim reflects the partial io.
NodeId subtree_fif(const Tree& tree, NodeId sr, Weight memory, SubtreeScratch& scratch) {
  grow(scratch.state, tree.size());
  NodeState* const state = scratch.state.data();
  const Schedule& sched = scratch.sched;
  const std::size_t steps = sched.size();

  // As in simulate_fif, nothing is evicted before memory first binds, so up
  // to that step only the in-core volume is tracked, from child sums.
  std::size_t first = 0;
  Weight in_core = 0;
  for (; first < steps; ++first) {
    const NodeId node = sched[first];
    state[idx(node)].pos = static_cast<std::uint32_t>(first);
    in_core -= tree.child_weight_sum(node);
    if (in_core + tree.wbar(node) > memory) break;
    in_core += tree.weight(node);
  }
  if (first == steps) return kNoNode;

  // One pass over the remaining steps numbers the child spans in schedule
  // order and seeds the active set of the binding step: the outputs
  // computed before it whose parent runs at that step or later. Children
  // run before their parent, so a child's position is set by the time its
  // parent's step is visited here.
  grow(scratch.node_of, steps);
  NodeId* const node_of = scratch.node_of.data();
  RankSet& active = scratch.active;
  active.reset(steps);
  Weight active_resident = 0;
  std::uint32_t next_rank = 0;
  for (std::size_t t = first; t < steps; ++t) {
    state[idx(sched[t])].pos = static_cast<std::uint32_t>(t);
    for (const NodeId c : tree.children(sched[t])) {
      NodeState& cs = state[idx(c)];
      cs.rank = next_rank;
      node_of[next_rank] = c;
      if (cs.pos < first) {  // otherwise it enters the active set when it runs
        cs.resident = tree.weight(c);
        cs.io = 0;
        active_resident += cs.resident;
        active.insert(next_rank);
      }
      ++next_rank;
    }
  }
  NodeId victim = kNoNode;
  std::uint32_t victim_step = 0;  // schedule position of the victim's parent
  std::size_t victim_rank = 0;

  for (std::size_t t = first; t < steps; ++t) {
    const NodeId node = sched[t];

    // The children of `node` are consumed now: bring evicted parts back
    // (reads are not counted; write volume was charged at eviction time)
    // and remove them from the active set.
    for (const NodeId c : tree.children(node)) {
      NodeState& cs = state[idx(c)];
      active_resident -= cs.resident;
      active.erase(cs.rank);
      cs.resident = tree.weight(c);  // fully read back for execution
    }

    // Memory required while executing `node`: its own transient wbar plus
    // everything else resident. Evict furthest-in-the-future data first.
    const Weight budget = memory - tree.wbar(node);
    if (budget < 0) break;  // infeasible within the subtree: keep partial io
    while (active_resident > budget) {
      const std::size_t r = active.max();
      NodeState& vs = state[idx(node_of[r])];
      const Weight amount = std::min(active_resident - budget, vs.resident);
      if (amount > 0) {
        // Latest parent first; among siblings, the first slot.
        const std::uint32_t parent_step = state[idx(tree.parent(node_of[r]))].pos;
        if (victim == kNoNode || parent_step > victim_step ||
            (parent_step == victim_step && r < victim_rank)) {
          victim = node_of[r];
          victim_step = parent_step;
          victim_rank = r;
        }
      }
      vs.resident -= amount;
      active_resident -= amount;
      vs.io += amount;
      if (vs.resident == 0) active.erase(r);
    }

    // The node's output is now resident; it becomes active until its parent
    // runs (the subtree root's output simply stays resident). A node's
    // other fields are written here, or in the pass above for the outputs
    // active at the binding step, before anything in this run reads them.
    NodeState& ns = state[idx(node)];
    ns.resident = tree.weight(node);
    ns.io = 0;
    if (node != sr) {
      active.insert(ns.rank);
      active_resident += ns.resident;
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

  // The engine plans the original tree until the first expansion, which
  // creates the expanded copy. Expansion only appends ids, so every id the
  // engine has cached means the same node in the copy. When nothing is
  // expanded, the copy is never made.
  std::optional<ExpandedTree> expanded;
  const Tree* current = &tree;

  IncrementalMinMem engine;
  engine.reserve(tree.size());
  SubtreeScratch scratch;
  std::size_t total_expansions = 0;

  // A victim is never the root of the subtree being processed (it has
  // tau > 0, hence a parent inside it), and a postorder processes every
  // node before its ancestors. So when r's turn comes, neither r nor its
  // children have been expanded: the expanded subtree of r is rooted at r
  // itself, and r's children are cached.
  for (const NodeId r : tree.postorder()) {
    // Expand-and-retry loop of Algorithm 2 on the (expanded) subtree of r.
    // The engine's peak is the subtree's exact optimal peak, so a subtree
    // that fits is skipped by the loop's first test. When r's original
    // subtree already fits, nothing below r was ever expanded (peaks are
    // monotone along the tree), so the expanded subtree is the original one
    // and is skipped exactly as an up-front pass over the original peaks
    // would skip it.
    engine.combine(*current, r);
    std::size_t node_expansions = 0;
    for (;;) {
      if (engine.peak(r) <= memory) break;
      if (node_expansions >= options.max_expansions_per_node) break;
      if (total_expansions >= options.global_expansion_cap) break;

      // FiF on the cached optimal schedule identifies where I/O is
      // unavoidable; force its victim into the tree (the paper: the node
      // whose parent executes latest).
      scratch.sched.clear();
      engine.extract_schedule(r, scratch.sched);
      const NodeId victim = subtree_fif(*current, r, memory, scratch);
      if (victim == kNoNode) break;  // peak > M but no I/O was forced: done

      if (!expanded) {
        expanded.emplace(ExpandedTree::identity(tree));
        current = &expanded->tree;
      }
      const auto [i2, i3] = expanded->expand_in_place(victim, scratch.state[idx(victim)].io);
      // Dirty path: the expansion changed the tree only along
      // victim -> i2 -> i3 -> old parent; every node's cached sequence
      // outside that ancestor path is still exact. Recombine bottom-up.
      engine.combine(*current, i2);
      engine.combine(*current, i3);
      for (NodeId u = current->parent(i3);; u = current->parent(u)) {
        engine.combine(*current, u);
        if (u == r) break;
      }
      ++node_expansions;
      ++total_expansions;
    }
  }

  // Final OptMinMem of the fully expanded tree, straight from the cache:
  // the root is never expanded, and its turn came last.
  const NodeId root = tree.root();
  result.final_peak = engine.peak(root);
  if (expanded) {
    Schedule final_schedule;
    final_schedule.reserve(current->size());
    engine.extract_schedule(root, final_schedule);
    result.schedule = expanded->map_schedule(final_schedule);
    result.expansion_volume = expanded->expansion_volume;
  } else {
    result.schedule.reserve(tree.size());
    engine.extract_schedule(root, result.schedule);
  }
  result.evaluation = simulate_fif(tree, result.schedule, memory);
  result.expansions = total_expansions;
  return result;
}

}  // namespace ooctree::core
