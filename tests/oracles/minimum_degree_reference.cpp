#include "tests/oracles/minimum_degree_reference.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>

namespace ooctree::sparse::oracle {

namespace {
std::size_t uz(Index i) { return static_cast<std::size_t>(i); }
}  // namespace

std::vector<Index> minimum_degree_reference(const SymPattern& pattern) {
  const Index n = pattern.size();
  // Variable adjacency (variables only) and element lists per variable.
  std::vector<std::vector<Index>> adj(uz(n));
  std::vector<std::vector<Index>> elems(uz(n));   // element ids = eliminated vertex
  std::vector<std::vector<Index>> evars(uz(n));   // element id -> its variables
  std::vector<bool> eliminated(uz(n), false);
  std::vector<bool> absorbed(uz(n), false);       // element absorbed into a newer one
  std::vector<Index> marker(uz(n), -1);
  std::vector<std::int64_t> degree(uz(n), 0);

  for (Index v = 0; v < n; ++v) {
    const auto nb = pattern.neighbors(v);
    adj[uz(v)].assign(nb.begin(), nb.end());
    degree[uz(v)] = static_cast<std::int64_t>(nb.size());
  }

  using Entry = std::pair<std::int64_t, Index>;  // (degree, vertex)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (Index v = 0; v < n; ++v) heap.emplace(degree[uz(v)], v);

  // Reachable set of a variable v (marker-deduplicated, excludes v and
  // eliminated vertices): direct variable neighbors plus the variables of
  // its elements.
  std::vector<Index> reach_buffer;
  const auto reach = [&](Index v, Index stamp) -> const std::vector<Index>& {
    reach_buffer.clear();
    marker[uz(v)] = stamp;
    for (const Index u : adj[uz(v)]) {
      if (!eliminated[uz(u)] && marker[uz(u)] != stamp) {
        marker[uz(u)] = stamp;
        reach_buffer.push_back(u);
      }
    }
    for (const Index e : elems[uz(v)]) {
      if (absorbed[uz(e)]) continue;
      for (const Index u : evars[uz(e)]) {
        if (!eliminated[uz(u)] && marker[uz(u)] != stamp) {
          marker[uz(u)] = stamp;
          reach_buffer.push_back(u);
        }
      }
    }
    return reach_buffer;
  };

  std::vector<Index> order;
  order.reserve(uz(n));
  Index stamp = n;  // marker stamps beyond vertex ids stay unique
  while (order.size() < uz(n)) {
    // Lazy heap: skip stale entries.
    const auto [d, p] = heap.top();
    heap.pop();
    if (eliminated[uz(p)] || d != degree[uz(p)]) continue;

    // Eliminate p: its reachable set becomes element p.
    const std::vector<Index> vars = reach(p, stamp++);
    eliminated[uz(p)] = true;
    order.push_back(p);
    evars[uz(p)] = vars;
    for (const Index e : elems[uz(p)]) absorbed[uz(e)] = true;  // e subset of new element
    elems[uz(p)].clear();
    adj[uz(p)].clear();

    for (const Index u : vars) {
      // Drop absorbed elements and dead variable links; add element p.
      auto& ue = elems[uz(u)];
      ue.erase(std::remove_if(ue.begin(), ue.end(), [&](Index e) { return absorbed[uz(e)]; }),
               ue.end());
      ue.push_back(p);
      auto& ua = adj[uz(u)];
      ua.erase(std::remove_if(ua.begin(), ua.end(),
                              [&](Index w) { return eliminated[uz(w)]; }),
               ua.end());
      // Exact exterior degree and heap refresh.
      degree[uz(u)] = static_cast<std::int64_t>(reach(u, stamp++).size());
      heap.emplace(degree[uz(u)], u);
    }
  }
  return order;
}

}  // namespace ooctree::sparse::oracle
