#include "src/core/fif_simulator.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace ooctree::core {

namespace {
std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }

/// Active-set key: the step at which the datum's parent consumes it in the
/// high half, its node id in the low half. FiF evicts the *latest*-consumed
/// datum first, i.e. the max key; ties (siblings) go to the larger id.
std::uint64_t active_key(std::size_t parent_step, NodeId node) {
  return static_cast<std::uint64_t>(parent_step) << 32 | static_cast<std::uint32_t>(node);
}

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
  // already computed whose parent has not run — form a lazy-deletion
  // max-heap of active_key (FiF victims are the heap top). It starts as the
  // active set of the binding step and gains each later node when it
  // executes, so it never exceeds n entries and is reserved up front.
  // Consumption and full eviction clear in_active[]; stale entries are
  // skipped when popped. The currently executing node's children are
  // deactivated before any eviction, so they are never victims.
  std::vector<Weight> resident(n, 0);
  std::vector<char> in_active(n, 0);
  std::vector<std::uint64_t> heap;
  heap.reserve(n);
  Weight active_resident = 0;  // sum of resident[] over active data
  for (std::size_t u = t; u < n; ++u) {
    for (const NodeId c : tree.children(schedule[u])) {
      if (step[idx(c)] > t) continue;  // runs at step t or later
      resident[idx(c)] = tree.weight(c);
      in_active[idx(c)] = 1;
      active_resident += tree.weight(c);
      heap.push_back(active_key(u + 1, c));
    }
  }
  std::make_heap(heap.begin(), heap.end());

  for (; t < n; ++t) {
    const NodeId node = schedule[t];

    // The children of `node` are consumed now: bring evicted parts back
    // (reads are not counted; write volume was charged at eviction time)
    // and remove them from the active set.
    for (const NodeId c : tree.children(node)) {
      if (resident[idx(c)] > 0) {
        in_active[idx(c)] = 0;
        active_resident -= resident[idx(c)];
      }
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
      const auto victim = static_cast<NodeId>(static_cast<std::uint32_t>(heap.front()));
      if (!in_active[idx(victim)]) {  // stale: consumed or fully evicted
        std::pop_heap(heap.begin(), heap.end());
        heap.pop_back();
        continue;
      }
      const Weight excess = active_resident - budget;
      const Weight amount = std::min(excess, resident[idx(victim)]);
      resident[idx(victim)] -= amount;
      active_resident -= amount;
      result.io[idx(victim)] += amount;
      result.io_volume += amount;
      ++result.evictions;
      if (resident[idx(victim)] == 0) {
        in_active[idx(victim)] = 0;
        std::pop_heap(heap.begin(), heap.end());
        heap.pop_back();
      }
    }
    result.peak_resident = std::max(result.peak_resident, active_resident + tree.wbar(node));

    // The node's output is now resident; it becomes active until its parent
    // runs (the root's output simply stays resident).
    resident[idx(node)] = tree.weight(node);
    if (node != tree.root()) {
      heap.push_back(active_key(step[idx(tree.parent(node))], node));
      std::push_heap(heap.begin(), heap.end());
      in_active[idx(node)] = 1;
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
