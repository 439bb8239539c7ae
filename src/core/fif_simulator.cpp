#include "src/core/fif_simulator.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "src/core/rank_set.hpp"

namespace ooctree::core {

namespace {
std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }

/// Checks that `schedule` is topological and records each node's step in
/// the same pass: step[i] is i's position plus one (0 while unseen).
bool fill_steps(const Tree& tree, const Schedule& schedule, std::vector<std::size_t>& step) {
  if (schedule.size() != step.size()) return false;
  for (std::size_t t = 0; t < schedule.size(); ++t) {
    const NodeId node = schedule[t];
    if (node < 0 || idx(node) >= step.size() || step[idx(node)] != 0) return false;
    for (const NodeId c : tree.children(node))
      if (step[idx(c)] == 0) return false;
    step[idx(node)] = t + 1;
  }
  return true;
}
}  // namespace

FifResult simulate_fif(const Tree& tree, const Schedule& schedule, Weight memory) {
  const std::size_t n = tree.size();
  std::vector<std::size_t> step(n, 0);
  if (!fill_steps(tree, schedule, step))
    throw std::invalid_argument("simulate_fif: schedule is not a topological order");

  FifResult result;
  result.io.assign(n, 0);

  // Until memory first binds, FiF evicts nothing: what is resident is what
  // in-core execution holds, and the children's sums give it without
  // visiting the children.
  std::size_t t = 0;
  Weight in_core = 0;
  for (; t < n; ++t) {
    const NodeId node = schedule[t];
    in_core -= tree.child_weight_sum(node);
    if (in_core + tree.wbar(node) > memory) break;
    result.peak_resident = std::max(result.peak_resident, in_core + tree.wbar(node));
    in_core += tree.weight(node);
  }
  if (t == n) {
    result.feasible = true;
    return result;
  }

  // From the first binding step on, the full simulation. resident[i]: units
  // of node i's output currently in main memory. The active data — outputs
  // already computed whose parent has not run — are kept by consumption
  // rank (rank_set.hpp): one pass over the remaining steps numbers their
  // child spans in schedule order, and FiF's victim is the largest active
  // rank. Slot order within a span is id order, so this is the (parent
  // step, id) order of fif_reference. The pass also seeds the set with the
  // active data of the binding step. The currently executing node's
  // children are deactivated before any eviction, so they are never victims.
  std::vector<Weight> resident(n, 0);
  std::vector<std::uint32_t> rank(n, 0);  // node -> rank, for nodes consumed from step t on
  std::vector<NodeId> node_of(n, kNoNode);  // rank -> node
  RankSet active;
  active.reset(n);
  Weight active_resident = 0;  // sum of resident[] over active data
  std::uint32_t next_rank = 0;
  for (std::size_t u = t; u < n; ++u) {
    for (const NodeId c : tree.children(schedule[u])) {
      rank[idx(c)] = next_rank;
      node_of[next_rank] = c;
      if (step[idx(c)] <= t) {  // ran before step t
        resident[idx(c)] = tree.weight(c);
        active_resident += tree.weight(c);
        active.insert(next_rank);
      }
      ++next_rank;
    }
  }

  for (; t < n; ++t) {
    const NodeId node = schedule[t];

    // The children of `node` are consumed now: bring evicted parts back
    // (reads are not counted; write volume was charged at eviction time)
    // and remove them from the active set.
    for (const NodeId c : tree.children(node)) {
      active_resident -= resident[idx(c)];
      active.erase(rank[idx(c)]);
      resident[idx(c)] = tree.weight(c);  // fully read back for execution
    }

    // Memory required while executing `node`: its own transient wbar plus
    // everything else resident. Evict furthest-in-the-future data first.
    const Weight budget = memory - tree.wbar(node);
    if (budget < 0) {
      result.feasible = false;
      return result;
    }
    while (active_resident > budget) {
      const std::size_t r = active.max();
      const NodeId victim = node_of[r];
      const Weight amount = std::min(active_resident - budget, resident[idx(victim)]);
      resident[idx(victim)] -= amount;
      active_resident -= amount;
      result.io[idx(victim)] += amount;
      result.io_volume += amount;
      ++result.evictions;
      if (resident[idx(victim)] == 0) active.erase(r);
    }
    result.peak_resident = std::max(result.peak_resident, active_resident + tree.wbar(node));

    // The node's output is now resident; it becomes active until its parent
    // runs (the root's output simply stays resident).
    resident[idx(node)] = tree.weight(node);
    if (node != tree.root()) {
      active.insert(rank[idx(node)]);
      active_resident += tree.weight(node);
      // The output itself may immediately exceed the bound only if some
      // later wbar cannot accommodate it; eviction happens lazily at that
      // later step, which is equivalent in volume (FiF writes as late as
      // logically possible without changing the count).
    }
  }

  result.feasible = true;
  return result;
}

Weight fif_io_volume(const Tree& tree, const Schedule& schedule, Weight memory) {
  const FifResult r = simulate_fif(tree, schedule, memory);
  return r.feasible ? r.io_volume : -1;
}

}  // namespace ooctree::core
