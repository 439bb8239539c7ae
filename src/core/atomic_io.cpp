#include "src/core/atomic_io.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/core/brute_force.hpp"
#include "src/core/minio_postorder.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/rec_expand.hpp"

namespace ooctree::core {

namespace {
std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }
}  // namespace

AtomicIoResult simulate_atomic(const Tree& tree, const Schedule& schedule, Weight memory,
                               AtomicVictimRule rule) {
  if (!is_topological_order(tree, schedule))
    throw std::invalid_argument("simulate_atomic: schedule is not a topological order");
  const std::vector<std::size_t> pos = schedule_positions(tree, schedule);

  AtomicIoResult result;
  result.io.assign(tree.size(), 0);

  // Resident data: produced, not consumed, not spilled.
  std::vector<bool> resident(tree.size(), false);
  Weight resident_total = 0;

  for (std::size_t t = 0; t < schedule.size(); ++t) {
    const NodeId node = schedule[t];

    // Children leave the resident set (consumed now; spilled ones are read
    // back for free in volume terms — only writes count).
    for (const NodeId c : tree.children(node)) {
      if (resident[idx(c)]) {
        resident[idx(c)] = false;
        resident_total -= tree.weight(c);
      }
    }

    const Weight budget = memory - tree.wbar(node);
    if (budget < 0) return result;  // infeasible: single task exceeds M

    while (resident_total > budget) {
      // Collect evictable data (resident, positive size). Zero-weight data
      // never help and never hurt; skip them.
      NodeId victim = kNoNode;
      const Weight deficit = resident_total - budget;
      for (std::size_t k = 0; k < tree.size(); ++k) {
        if (!resident[k] || tree.weight(static_cast<NodeId>(k)) == 0) continue;
        const auto cand = static_cast<NodeId>(k);
        if (victim == kNoNode) {
          victim = cand;
          continue;
        }
        const Weight wc = tree.weight(cand);
        const Weight wv = tree.weight(victim);
        switch (rule) {
          case AtomicVictimRule::kFurthestInFuture:
            if (pos[idx(tree.parent(cand))] > pos[idx(tree.parent(victim))]) victim = cand;
            break;
          case AtomicVictimRule::kSmallestSufficient: {
            const bool cand_fits = wc >= deficit;
            const bool vict_fits = wv >= deficit;
            if (cand_fits && vict_fits) {
              if (wc < wv) victim = cand;   // smallest datum covering the deficit
            } else if (cand_fits != vict_fits) {
              if (cand_fits) victim = cand;
            } else {
              if (wc > wv) victim = cand;   // none covers it: take the largest
            }
            break;
          }
          case AtomicVictimRule::kLargest:
            if (wc > wv) victim = cand;
            break;
          case AtomicVictimRule::kSmallest:
            if (wc < wv) victim = cand;
            break;
        }
      }
      if (victim == kNoNode) return result;  // nothing evictable: infeasible
      resident[idx(victim)] = false;
      resident_total -= tree.weight(victim);
      result.io[idx(victim)] = tree.weight(victim);
      result.io_volume += tree.weight(victim);
      ++result.spills;
    }

    if (node != tree.root() && tree.weight(node) > 0) {
      resident[idx(node)] = true;
      resident_total += tree.weight(node);
    }
  }
  result.feasible = true;
  return result;
}

AtomicBruteForceResult brute_force_min_io_atomic(const Tree& tree, Weight memory,
                                                 std::size_t max_nodes) {
  if (tree.size() > max_nodes)
    throw std::invalid_argument("brute_force_min_io_atomic: tree too large");

  // Candidate spill nodes: everything except the root (the root's output
  // is never consumed, spilling it is pure waste).
  std::vector<NodeId> candidates;
  for (std::size_t k = 0; k < tree.size(); ++k)
    if (static_cast<NodeId>(k) != tree.root()) candidates.push_back(static_cast<NodeId>(k));

  AtomicBruteForceResult best;
  bool found = false;

  for_each_topological_order(
      tree,
      [&](const Schedule& schedule) {
        // For this order, test every spill subset (cheapest first would
        // need sorting; a running best-bound prune suffices at this size).
        const std::size_t subsets = std::size_t{1} << candidates.size();
        for (std::size_t mask = 0; mask < subsets; ++mask) {
          Weight volume = 0;
          IoFunction io(tree.size(), 0);
          for (std::size_t b = 0; b < candidates.size(); ++b) {
            if (mask & (std::size_t{1} << b)) {
              io[idx(candidates[b])] = tree.weight(candidates[b]);
              volume += tree.weight(candidates[b]);
            }
          }
          if (found && volume >= best.io_volume) continue;
          if (!validate_traversal(tree, schedule, io, memory).has_value()) {
            best.io_volume = volume;
            best.schedule = schedule;
            best.io = std::move(io);
            found = true;
          }
        }
      },
      max_nodes);
  if (!found)
    throw std::runtime_error("brute_force_min_io_atomic: no feasible traversal (M < max wbar?)");
  return best;
}

AtomicIoResult atomic_heuristic(const Tree& tree, Weight memory) {
  std::vector<Schedule> schedules;
  schedules.push_back(opt_minmem(tree).schedule);
  schedules.push_back(postorder_minio(tree, memory).schedule);
  schedules.push_back(rec_expand2(tree, memory).schedule);

  AtomicIoResult best;
  for (const Schedule& s : schedules) {
    for (const AtomicVictimRule rule :
         {AtomicVictimRule::kFurthestInFuture, AtomicVictimRule::kSmallestSufficient}) {
      const AtomicIoResult r = simulate_atomic(tree, s, memory, rule);
      if (!r.feasible) continue;
      if (!best.feasible || r.io_volume < best.io_volume) best = r;
    }
  }
  return best;
}

}  // namespace ooctree::core
