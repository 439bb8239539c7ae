#include "src/sparse/ordering.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>

#include "src/core/check.hpp"

namespace ooctree::sparse {

namespace {
std::size_t uz(Index i) { return static_cast<std::size_t>(i); }
}  // namespace

std::vector<Index> natural_order(Index n) {
  std::vector<Index> perm(uz(n));
  for (Index i = 0; i < n; ++i) perm[uz(i)] = i;
  return perm;
}

// ---------------------------------------------------------------------------
// Reverse Cuthill-McKee
// ---------------------------------------------------------------------------

namespace {

/// BFS from `start`; returns (levels, last vertex of the deepest level with
/// smallest degree) — the classic pseudo-peripheral probe.
std::pair<int, Index> bfs_depth(const SymPattern& p, Index start, std::vector<int>& level) {
  std::fill(level.begin(), level.end(), -1);
  std::vector<Index> frontier{start};
  level[uz(start)] = 0;
  int depth = 0;
  Index far = start;
  while (!frontier.empty()) {
    std::vector<Index> next;
    for (const Index v : frontier) {
      for (const Index u : p.neighbors(v)) {
        if (level[uz(u)] == -1) {
          level[uz(u)] = level[uz(v)] + 1;
          next.push_back(u);
        }
      }
    }
    if (!next.empty()) {
      ++depth;
      // Smallest-degree vertex of the new deepest level.
      far = *std::min_element(next.begin(), next.end(), [&](Index a, Index b) {
        return p.degree(a) < p.degree(b);
      });
    }
    frontier = std::move(next);
  }
  return {depth, far};
}

}  // namespace

std::vector<Index> reverse_cuthill_mckee(const SymPattern& pattern) {
  const Index n = pattern.size();
  std::vector<Index> order;
  order.reserve(uz(n));
  std::vector<bool> placed(uz(n), false);
  std::vector<int> level(uz(n));

  for (Index seed = 0; seed < n; ++seed) {
    if (placed[uz(seed)]) continue;
    // Pseudo-peripheral start within this connected component.
    Index start = seed;
    int depth = -1;
    for (int iter = 0; iter < 8; ++iter) {
      const auto [d, far] = bfs_depth(pattern, start, level);
      if (d <= depth) break;
      depth = d;
      start = far;
    }
    // Cuthill-McKee BFS: visit neighbors by increasing degree.
    std::queue<Index> queue;
    queue.push(start);
    placed[uz(start)] = true;
    while (!queue.empty()) {
      const Index v = queue.front();
      queue.pop();
      order.push_back(v);
      std::vector<Index> fresh;
      for (const Index u : pattern.neighbors(v))
        if (!placed[uz(u)]) {
          placed[uz(u)] = true;
          fresh.push_back(u);
        }
      std::sort(fresh.begin(), fresh.end(),
                [&](Index a, Index b) { return pattern.degree(a) < pattern.degree(b); });
      for (const Index u : fresh) queue.push(u);
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

// ---------------------------------------------------------------------------
// Minimum degree (lower-bound keys, exact pivots, on a flat quotient graph)
// ---------------------------------------------------------------------------

namespace {

enum class Kind : std::uint8_t { kVariable, kElement, kDead };

/// Lazy min-heap of (key, vertex) packed into one integer, so the argmin of
/// (key, id) is the smallest entry. Stale entries are skipped on pop.
using DegreeHeap = std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>>;

std::uint64_t heap_key(Index key, Index v) {
  return (static_cast<std::uint64_t>(key) << 32) | static_cast<std::uint32_t>(v);
}

/// The quotient graph of a partially eliminated pattern, every list in one
/// Index pool `iw` (AMD's iw/pe/len/elen layout). Variable v owns
/// iw[pe[v], pe[v] + len[v]): its elen[v] adjacent elements first, then its
/// adjacent variables A_v. Element e owns iw[pe[e], pe[e] + len[e]) = L_e,
/// the variables of its clique. Two invariants hold between pivots: e is in
/// v's element list iff v is in L_e, and no list names an eliminated
/// variable or an absorbed element.
class QuotientGraph {
 public:
  explicit QuotientGraph(const SymPattern& pattern);

  [[nodiscard]] Index key(Index v) const { return key_[uz(v)]; }
  [[nodiscard]] bool is_variable(Index v) const { return kind_[uz(v)] == Kind::kVariable; }

  /// p holds the smallest current (key, id). Builds L_p; if p's key was an
  /// inexact lower bound below |L_p|, re-keys p with |L_p| and returns.
  /// Otherwise eliminates p plus every neighbour the argmin rule would take
  /// straight after it, appends them to `order` and pushes the changed keys
  /// of the rest of L_p onto `heap`.
  void eliminate(Index p, std::vector<Index>& order, DegreeHeap& heap);

 private:
  /// Moves every live list to the front of the pool, dropping garbage.
  void compact();

#if OOCTREE_AUDIT_ENABLED
  /// p's degree counted from scratch on the original pattern: the live
  /// variables reached from p through eliminated vertices only.
  [[nodiscard]] Index reachable_degree(Index p);

  const SymPattern& pattern_;
  std::vector<std::int64_t> seen_;
  std::vector<Index> stack_;
#endif
  Index n_;
  std::vector<Index> iw_;
  std::size_t pfree_ = 0;  // first unused pool slot; new elements go here
  std::vector<std::size_t> pe_;
  std::vector<Index> len_;
  std::vector<Index> elen_;
  // key_[v] <= the exact external degree of variable v, with equality
  // whenever exact_[v] is set.
  std::vector<Index> key_;
  std::vector<std::uint8_t> exact_;
  std::vector<Kind> kind_;
  // Vertex stamps: mark_[v] == the pivot's stamp iff v is in L_p (or is p).
  // The 64-bit counter grows by at most two per pop, so it cannot wrap.
  std::vector<std::int64_t> mark_;
  std::int64_t stamp_ = 0;
  // While pivot p is processed, wcount_[e] - wflg_ = |L_e \ L_p| for every
  // other element e touching L_p (AMD's w(e)); wflg_ grows by n + 1 per pivot.
  std::vector<std::int64_t> wcount_;
  std::int64_t wflg_ = 0;
  std::vector<Index> external_;  // lower bound on |external set| by position in L_p
  std::vector<std::pair<std::size_t, Index>> live_;  // compact() scratch
};

QuotientGraph::QuotientGraph(const SymPattern& pattern)
    :
#if OOCTREE_AUDIT_ENABLED
      pattern_(pattern),
      seen_(uz(pattern.size()), 0),
#endif
      n_(pattern.size()),
      // Live storage never exceeds nnz, and a new element needs at most
      // that many free slots; the rest is slack that keeps compactions rare.
      iw_(2 * (pattern.nnz() + uz(n_))),
      pe_(uz(n_)),
      len_(uz(n_)),
      elen_(uz(n_), 0),
      key_(uz(n_)),
      exact_(uz(n_), 1),
      kind_(uz(n_), Kind::kVariable),
      mark_(uz(n_), 0),
      wcount_(uz(n_), 0),
      external_(uz(n_)) {
  for (Index v = 0; v < n_; ++v) {
    const auto nb = pattern.neighbors(v);
    pe_[uz(v)] = pfree_;
    len_[uz(v)] = static_cast<Index>(nb.size());
    key_[uz(v)] = len_[uz(v)];
    for (const Index u : nb) iw_[pfree_++] = u;
  }
}

void QuotientGraph::compact() {
  live_.clear();
  for (Index v = 0; v < n_; ++v)
    if (kind_[uz(v)] != Kind::kDead && len_[uz(v)] > 0) live_.emplace_back(pe_[uz(v)], v);
  std::sort(live_.begin(), live_.end());
  std::size_t dst = 0;
  for (const auto& [src, v] : live_) {
    const auto first = iw_.begin() + static_cast<std::ptrdiff_t>(src);
    if (dst != src)
      std::copy(first, first + len_[uz(v)], iw_.begin() + static_cast<std::ptrdiff_t>(dst));
    pe_[uz(v)] = dst;
    dst += uz(len_[uz(v)]);
  }
  pfree_ = dst;
}

#if OOCTREE_AUDIT_ENABLED
Index QuotientGraph::reachable_degree(Index p) {
  const std::int64_t stamp = ++stamp_;
  Index degree = 0;
  seen_[uz(p)] = stamp;
  stack_.assign(1, p);
  while (!stack_.empty()) {
    const Index v = stack_.back();
    stack_.pop_back();
    for (const Index u : pattern_.neighbors(v)) {
      if (seen_[uz(u)] == stamp) continue;
      seen_[uz(u)] = stamp;
      if (is_variable(u))
        ++degree;
      else
        stack_.push_back(u);
    }
  }
  return degree;
}
#endif

void QuotientGraph::eliminate(Index p, std::vector<Index>& order, DegreeHeap& heap) {
  // |L_p| is at most the lists it is built from, all of them live storage.
  std::size_t room = uz(len_[uz(p)] - elen_[uz(p)]);
  for (Index k = 0; k < elen_[uz(p)]; ++k) room += uz(len_[uz(iw_[pe_[uz(p)] + uz(k)])]);
  if (iw_.size() - pfree_ < room) compact();

  // 1. L_p = (A_p ∪ L_e for e in E_p) \ {p}, written at the tail. This is
  //    the union count that decides an inexact key: if |L_p| exceeds it,
  //    p gets its exact degree back on the heap and nothing else changes.
  const std::int64_t lp = ++stamp_;
  mark_[uz(p)] = lp;
  const std::size_t lp_begin = pfree_;
  const auto add = [&](Index v) {
    if (mark_[uz(v)] == lp) return;
    mark_[uz(v)] = lp;
    iw_[pfree_++] = v;
  };
  const std::size_t p_begin = pe_[uz(p)];
  const std::size_t p_elems = p_begin + uz(elen_[uz(p)]);
  const std::size_t p_end = p_begin + uz(len_[uz(p)]);
  for (std::size_t k = p_begin; k < p_elems; ++k) {
    const Index e = iw_[k];
    for (std::size_t j = pe_[uz(e)]; j < pe_[uz(e)] + uz(len_[uz(e)]); ++j) add(iw_[j]);
  }
  for (std::size_t k = p_elems; k < p_end; ++k) add(iw_[k]);
  const std::size_t lp_end = pfree_;
  const auto degree = static_cast<Index>(lp_end - lp_begin);
  OOCTREE_AUDIT_CHECK(reachable_degree(p) == degree,
                      "minimum_degree: the quotient graph miscounts a degree");
  OOCTREE_AUDIT_CHECK(key_[uz(p)] <= degree && (exact_[uz(p)] == 0 || key_[uz(p)] == degree),
                      "minimum_degree: a key exceeds its degree, or an exact key is wrong");
  if (degree != key_[uz(p)]) {
    pfree_ = lp_begin;
    key_[uz(p)] = degree;
    exact_[uz(p)] = 1;
    heap.push(heap_key(degree, p));
    return;
  }
  // The elements of p are subsets of L_p and are absorbed.
  for (std::size_t k = p_begin; k < p_elems; ++k) kind_[uz(iw_[k])] = Kind::kDead;
  kind_[uz(p)] = Kind::kElement;
  pe_[uz(p)] = lp_begin;
  elen_[uz(p)] = 0;
  order.push_back(p);

  // 2. |L_e \ L_p| for every other element e touching L_p.
  wflg_ += static_cast<std::int64_t>(n_) + 1;
  for (std::size_t k = lp_begin; k < lp_end; ++k) {
    const Index u = iw_[k];
    for (std::size_t j = pe_[uz(u)]; j < pe_[uz(u)] + uz(elen_[uz(u)]); ++j) {
      const Index e = iw_[j];
      if (kind_[uz(e)] != Kind::kElement) continue;
      if (wcount_[uz(e)] < wflg_) wcount_[uz(e)] = wflg_ + len_[uz(e)];
      --wcount_[uz(e)];
    }
  }

  // 3. For each u in L_p, in place: drop absorbed elements and absorb every
  //    element covered by L_p; prune the variable links L_p now covers (p
  //    among them); add element p. u's external set (A_u ∪ L_e for e in
  //    E_u \ {p}) \ L_p holds each of those lists, so its size is at least
  //    the largest of w(e) and |A_u \ L_p|, and exactly that when u has no
  //    other element, or one element and no variable.
  for (std::size_t k = lp_begin; k < lp_end; ++k) {
    const Index u = iw_[k];
    Index* list = iw_.data() + pe_[uz(u)];
    Index ne = 0;
    Index external = 0;
    for (Index j = 0; j < elen_[uz(u)]; ++j) {
      const Index e = list[j];
      if (kind_[uz(e)] != Kind::kElement) continue;
      const auto w = static_cast<Index>(wcount_[uz(e)] - wflg_);
      if (w == 0) {
        kind_[uz(e)] = Kind::kDead;
        continue;
      }
      external = std::max(external, w);
      list[ne++] = e;
    }
    Index nv = ne;
    for (Index j = elen_[uz(u)]; j < len_[uz(u)]; ++j)
      if (mark_[uz(list[j])] != lp) list[nv++] = list[j];
    external = std::max(external, nv - ne);
    exact_[uz(u)] = ne == 0 || (ne == 1 && nv == 1) ? 1 : 0;
    // u lost p or an absorbed element of p, so p fits: it takes the first
    // variable's slot and that variable moves to the end.
    list[nv] = list[ne];
    list[ne] = p;
    elen_[uz(u)] = ne + 1;
    len_[uz(u)] = nv + 1;
    external_[k - lp_begin] = external;
  }

  // 4. Mass elimination. A variable with no other element and no variable
  //    has no external neighbour: its degree is |L_p| - 1, below every other
  //    degree, and so is each such variable's after the previous one goes.
  //    The argmin rule takes them next, in id order (all ids exceed p's,
  //    which won the tie). They leave L_p.
  const std::size_t first_mass = order.size();
  std::size_t kept = lp_begin;
  for (std::size_t k = lp_begin; k < lp_end; ++k) {
    const Index u = iw_[k];
    const Index external = external_[k - lp_begin];
    if (external == 0) {
      kind_[uz(u)] = Kind::kDead;
      order.push_back(u);
    } else {
      iw_[kept] = u;
      external_[kept - lp_begin] = external;
      ++kept;
    }
  }
  const auto mass = static_cast<Index>(order.size() - first_mass);
  std::sort(order.begin() + static_cast<std::ptrdiff_t>(first_mass), order.end());
  len_[uz(p)] = static_cast<Index>(kept - lp_begin);
  pfree_ = kept;

  // 5. New keys: the rest of L_p plus the external bound. An inexact key
  //    also keeps what the old one proves: u's degree fell by at most one
  //    for p and one for each mass-eliminated neighbour.
  for (std::size_t k = lp_begin; k < kept; ++k) {
    const Index u = iw_[k];
    Index key = len_[uz(p)] - 1 + external_[k - lp_begin];
    if (exact_[uz(u)] == 0) key = std::max(key, key_[uz(u)] - 1 - mass);
    if (key == key_[uz(u)]) continue;  // its heap entry is still current
    key_[uz(u)] = key;
    heap.push(heap_key(key, u));
  }
}

}  // namespace

std::vector<Index> minimum_degree(const SymPattern& pattern) {
  const Index n = pattern.size();
  QuotientGraph graph(pattern);
  std::vector<std::uint64_t> keys(uz(n));
  for (Index v = 0; v < n; ++v) keys[uz(v)] = heap_key(graph.key(v), v);
  DegreeHeap heap(std::greater<>{}, std::move(keys));

  std::vector<Index> order;
  order.reserve(uz(n));
  while (order.size() < uz(n)) {
    const std::uint64_t key = heap.top();
    heap.pop();
    const auto p = static_cast<Index>(key & 0xffffffffU);
    if (!graph.is_variable(p) || heap_key(graph.key(p), p) != key) continue;
    graph.eliminate(p, order, heap);
  }
  return order;
}

// ---------------------------------------------------------------------------
// Geometric nested dissection
// ---------------------------------------------------------------------------

namespace {

void nd2d_recurse(Index nx, Index x0, Index x1, Index y0, Index y1, Index leaf_size,
                  std::vector<Index>& order) {
  const Index w = x1 - x0;
  const Index h = y1 - y0;
  if (static_cast<std::int64_t>(w) * h <= leaf_size || (w <= 2 && h <= 2)) {
    for (Index y = y0; y < y1; ++y)
      for (Index x = x0; x < x1; ++x) order.push_back(y * nx + x);
    return;
  }
  if (w >= h) {
    const Index xs = x0 + w / 2;  // vertical separator column
    nd2d_recurse(nx, x0, xs, y0, y1, leaf_size, order);
    nd2d_recurse(nx, xs + 1, x1, y0, y1, leaf_size, order);
    for (Index y = y0; y < y1; ++y) order.push_back(y * nx + xs);
  } else {
    const Index ys = y0 + h / 2;  // horizontal separator row
    nd2d_recurse(nx, x0, x1, y0, ys, leaf_size, order);
    nd2d_recurse(nx, x0, x1, ys + 1, y1, leaf_size, order);
    for (Index x = x0; x < x1; ++x) order.push_back(ys * nx + x);
  }
}

void nd3d_recurse(Index nx, Index ny, Index x0, Index x1, Index y0, Index y1, Index z0, Index z1,
                  Index leaf_size, std::vector<Index>& order) {
  const Index w = x1 - x0, h = y1 - y0, d = z1 - z0;
  const auto id = [nx, ny](Index x, Index y, Index z) { return (z * ny + y) * nx + x; };
  if (static_cast<std::int64_t>(w) * h * d <= leaf_size || (w <= 2 && h <= 2 && d <= 2)) {
    for (Index z = z0; z < z1; ++z)
      for (Index y = y0; y < y1; ++y)
        for (Index x = x0; x < x1; ++x) order.push_back(id(x, y, z));
    return;
  }
  if (w >= h && w >= d) {
    const Index xs = x0 + w / 2;
    nd3d_recurse(nx, ny, x0, xs, y0, y1, z0, z1, leaf_size, order);
    nd3d_recurse(nx, ny, xs + 1, x1, y0, y1, z0, z1, leaf_size, order);
    for (Index z = z0; z < z1; ++z)
      for (Index y = y0; y < y1; ++y) order.push_back(id(xs, y, z));
  } else if (h >= d) {
    const Index ys = y0 + h / 2;
    nd3d_recurse(nx, ny, x0, x1, y0, ys, z0, z1, leaf_size, order);
    nd3d_recurse(nx, ny, x0, x1, ys + 1, y1, z0, z1, leaf_size, order);
    for (Index z = z0; z < z1; ++z)
      for (Index x = x0; x < x1; ++x) order.push_back(id(x, ys, z));
  } else {
    const Index zs = z0 + d / 2;
    nd3d_recurse(nx, ny, x0, x1, y0, y1, z0, zs, leaf_size, order);
    nd3d_recurse(nx, ny, x0, x1, y0, y1, zs + 1, z1, leaf_size, order);
    for (Index y = y0; y < y1; ++y)
      for (Index x = x0; x < x1; ++x) order.push_back(id(x, y, zs));
  }
}

}  // namespace

std::vector<Index> nested_dissection_2d(Index nx, Index ny, Index leaf_size) {
  if (nx <= 0 || ny <= 0) throw std::invalid_argument("nested_dissection_2d: bad dims");
  std::vector<Index> order;
  order.reserve(uz(nx) * uz(ny));
  nd2d_recurse(nx, 0, nx, 0, ny, leaf_size, order);
  return order;
}

std::vector<Index> nested_dissection_3d(Index nx, Index ny, Index nz, Index leaf_size) {
  if (nx <= 0 || ny <= 0 || nz <= 0) throw std::invalid_argument("nested_dissection_3d: bad dims");
  std::vector<Index> order;
  order.reserve(uz(nx) * uz(ny) * uz(nz));
  nd3d_recurse(nx, ny, 0, nx, 0, ny, 0, nz, leaf_size, order);
  return order;
}

}  // namespace ooctree::sparse
