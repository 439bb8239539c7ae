#include "tests/oracles/parallel_reference.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "src/util/rng.hpp"

namespace ooctree::parallel::oracle {

using core::EvictionPolicy;
using core::kNoNode;
using core::NodeId;
using core::Schedule;
using core::Tree;
using core::Weight;

namespace {
std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }
}  // namespace

ParallelResult simulate_parallel_reference(const Tree& tree, const ParallelConfig& config,
                                           const Schedule& reference) {
  const PreparedReplay prep = prepare_replay(tree, config, reference);
  const std::vector<std::size_t>& ref_pos = prep.ref_pos;
  const std::vector<double>& priority_key = prep.priority_key;

  ParallelResult result;
  result.io.assign(tree.size(), 0);
  result.start_time.assign(tree.size(), -1.0);
  result.finish_time.assign(tree.size(), -1.0);

  // State.
  std::vector<Weight> resident(tree.size(), 0);  // in-memory part of outputs
  std::vector<bool> output_live(tree.size(), false);
  std::vector<std::int64_t> live_clock(tree.size(), 0);  // completion clock per output
  std::vector<std::size_t> missing_children(tree.size(), 0);
  for (std::size_t i = 0; i < tree.size(); ++i)
    missing_children[i] = tree.num_children(static_cast<NodeId>(i));

  // Ready tasks ordered by priority (then reference position for ties).
  const auto readier = [&](NodeId a, NodeId b) {
    if (priority_key[idx(a)] != priority_key[idx(b)])
      return priority_key[idx(a)] > priority_key[idx(b)];
    return ref_pos[idx(a)] < ref_pos[idx(b)];
  };
  std::vector<NodeId> ready;
  for (std::size_t i = 0; i < tree.size(); ++i)
    if (missing_children[i] == 0) ready.push_back(static_cast<NodeId>(i));
  std::sort(ready.begin(), ready.end(), readier);

  // Running tasks as (finish_time, node) events.
  using Event = std::pair<double, NodeId>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> running;
  int idle = config.workers;
  double now = 0.0;
  Weight memory_used = 0;  // running reservations + live output parts
  std::int64_t clock = 0;
  util::Rng rng(config.seed);

  // Normalized eviction key: larger == evicted sooner (same convention and
  // tie-break as EvictionIndex, so both engines pick identical victims).
  const auto evict_key = [&](NodeId v) -> std::int64_t {
    switch (config.evict) {
      case EvictionPolicy::kBelady:
        return static_cast<std::int64_t>(ref_pos[idx(tree.parent(v))]);
      case EvictionPolicy::kLru:
        return -live_clock[idx(v)];
      case EvictionPolicy::kLargestFirst:
        return resident[idx(v)];
      case EvictionPolicy::kRandom:
        return 0;
    }
    throw std::invalid_argument("simulate_parallel_reference: unknown eviction policy");
  };

  // Evicts from live outputs (parents not yet started) until `needed`
  // additional units fit. Transactional: when even full eviction cannot
  // make room, returns false WITHOUT evicting anything, so a failed start
  // charges no I/O (the seed engine flushed victims before reporting
  // failure, inflating io_volume by one flush per backfill retry).
  const auto make_room = [&](Weight needed, NodeId starting) -> bool {
    if (memory_used + needed <= config.memory) return true;
    std::vector<NodeId> victims;
    Weight evictable = 0;
    for (std::size_t k = 0; k < tree.size(); ++k) {
      const auto id = static_cast<NodeId>(k);
      if (!output_live[k] || resident[k] == 0) continue;
      bool is_child = false;
      for (const NodeId c : tree.children(starting)) is_child |= (c == id);
      if (is_child) continue;
      victims.push_back(id);
      evictable += resident[k];
    }
    if (memory_used + needed - evictable > config.memory) return false;
    if (config.evict == EvictionPolicy::kRandom) {
      while (memory_used + needed > config.memory) {
        const std::size_t pos = rng.index(victims.size());
        const NodeId v = victims[pos];
        const Weight take =
            std::min(resident[idx(v)], memory_used + needed - config.memory);
        resident[idx(v)] -= take;
        memory_used -= take;
        result.io[idx(v)] += take;
        result.io_volume += take;
        if (resident[idx(v)] == 0) {
          victims[pos] = victims.back();
          victims.pop_back();
        }
      }
      return true;
    }
    std::sort(victims.begin(), victims.end(), [&](NodeId a, NodeId b) {
      const std::int64_t ka = evict_key(a), kb = evict_key(b);
      return ka != kb ? ka > kb : a < b;
    });
    for (const NodeId v : victims) {
      if (memory_used + needed <= config.memory) break;
      const Weight take =
          std::min(resident[idx(v)], memory_used + needed - config.memory);
      resident[idx(v)] -= take;
      memory_used -= take;
      result.io[idx(v)] += take;
      result.io_volume += take;
    }
    return true;
  };

  const auto try_start = [&](NodeId i) -> bool {
    // Memory delta of starting i: children read back to full size, then
    // their outputs fold into the running reservation wbar(i).
    Weight child_resident = 0;
    for (const NodeId c : tree.children(i)) child_resident += resident[idx(c)];
    const Weight delta = tree.wbar(i) - child_resident;
    if (!make_room(delta, i)) return false;
    for (const NodeId c : tree.children(i)) {
      memory_used += tree.weight(c) - resident[idx(c)];
      resident[idx(c)] = tree.weight(c);
    }
    for (const NodeId c : tree.children(i)) {
      memory_used -= tree.weight(c);
      resident[idx(c)] = 0;
      output_live[idx(c)] = false;
    }
    memory_used += tree.wbar(i);
    result.peak_resident = std::max(result.peak_resident, memory_used);

    result.start_time[idx(i)] = now;
    result.start_order.push_back(i);
    const double cost = task_cost(tree, i, config.cost);
    result.busy_time += cost;
    running.emplace(now + cost, i);
    --idle;
    return true;
  };

  // Same backfill contract as the indexed engine: at most `depth` ready
  // tasks examined per slot (0 = all, 1 = strict), with identical scan/hit
  // accounting — the differential suites compare these fields too.
  const int depth = config.backfill_depth;
  std::size_t completed = 0;
  while (completed < tree.size()) {
    // Start ready tasks best-priority first. Starts only grow the running
    // reservations, so a task that failed cannot succeed later in the same
    // round — one pass over the sorted ready list is exhaustive.
    std::int64_t examined = 0;  // candidates looked at since the last start
    for (std::size_t k = 0; idle > 0 && k < ready.size();) {
      ++examined;
      if (try_start(ready[k])) {
        ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(k));
        result.backfill_scans += examined - 1;
        if (examined > 1) ++result.backfill_hits;
        examined = 0;
        continue;
      }
      ++result.failed_starts;
      if (depth > 0 && examined >= depth) break;
      ++k;
    }
    if (examined > 0) result.backfill_scans += examined - 1;

    if (running.empty()) {
      // No task running and nothing startable: with all evictable data
      // flushed the smallest wbar must fit, so this means M < LB.
      result.feasible = false;
      return result;
    }

    // Advance to the next completion.
    const auto [finish, node] = running.top();
    running.pop();
    now = finish;
    result.finish_time[idx(node)] = now;
    ++idle;
    ++completed;
    ++clock;

    // Reservation wbar collapses to the output size.
    memory_used -= tree.wbar(node);
    if (node != tree.root()) {
      memory_used += tree.weight(node);
      resident[idx(node)] = tree.weight(node);
      output_live[idx(node)] = true;
      live_clock[idx(node)] = clock;
    }

    const NodeId parent = tree.parent(node);
    if (parent != kNoNode && --missing_children[idx(parent)] == 0) {
      const auto at = std::lower_bound(ready.begin(), ready.end(), parent, readier);
      ready.insert(at, parent);
    }
  }

  result.makespan = now;
  result.feasible = true;
  return result;
}

}  // namespace ooctree::parallel::oracle
