#include "src/sparse/ordering.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>

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
// Minimum degree (exact external degree on a flat quotient graph)
// ---------------------------------------------------------------------------

namespace {

enum class Kind : std::uint8_t { kVariable, kElement, kDead };

/// Lazy min-heap of (degree, vertex) packed into one key, so the argmin of
/// (degree, id) is the smallest key. Stale keys are skipped on pop.
using DegreeHeap = std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>>;

std::uint64_t heap_key(Index degree, Index v) {
  return (static_cast<std::uint64_t>(degree) << 32) | static_cast<std::uint32_t>(v);
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

  [[nodiscard]] Index degree(Index v) const { return degree_[uz(v)]; }
  [[nodiscard]] bool is_variable(Index v) const { return kind_[uz(v)] == Kind::kVariable; }

  /// Eliminates p, the argmin of (degree, id), plus every neighbour the
  /// argmin rule would take straight after it; appends them to `order` and
  /// pushes the changed exact degrees of the rest of L_p onto `heap`.
  void eliminate(Index p, std::vector<Index>& order, DegreeHeap& heap);

 private:
  /// Moves every live list to the front of the pool, dropping garbage.
  void compact();

  Index n_;
  std::vector<Index> iw_;
  std::size_t pfree_ = 0;  // first unused pool slot; new elements go here
  std::vector<std::size_t> pe_;
  std::vector<Index> len_;
  std::vector<Index> elen_;
  std::vector<Index> degree_;  // exact external degree of each variable
  std::vector<Kind> kind_;
  // Vertex stamps: mark_[v] == the pivot's stamp iff v is in L_p (or is p);
  // later stamps of the same pivot dedupe one variable's degree count. The
  // 64-bit counter grows by at most n per pivot, so it cannot wrap.
  std::vector<std::int64_t> mark_;
  std::int64_t stamp_ = 0;
  // While pivot p is processed, wcount_[e] - wflg_ = |L_e \ L_p| for every
  // other element e touching L_p (AMD's w(e)); wflg_ grows by n + 1 per pivot.
  std::vector<std::int64_t> wcount_;
  std::int64_t wflg_ = 0;
  std::vector<Index> external_;  // |external neighbourhood| by position in L_p
  std::vector<std::pair<std::size_t, Index>> live_;  // compact() scratch
};

QuotientGraph::QuotientGraph(const SymPattern& pattern)
    : n_(pattern.size()),
      // Live storage never exceeds nnz, and a new element needs at most
      // n - 1 free slots; the rest is slack that keeps compactions rare.
      iw_(2 * (pattern.nnz() + uz(n_))),
      pe_(uz(n_)),
      len_(uz(n_)),
      elen_(uz(n_), 0),
      degree_(uz(n_)),
      kind_(uz(n_), Kind::kVariable),
      mark_(uz(n_), 0),
      wcount_(uz(n_), 0),
      external_(uz(n_)) {
  for (Index v = 0; v < n_; ++v) {
    const auto nb = pattern.neighbors(v);
    pe_[uz(v)] = pfree_;
    len_[uz(v)] = static_cast<Index>(nb.size());
    degree_[uz(v)] = len_[uz(v)];
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

void QuotientGraph::eliminate(Index p, std::vector<Index>& order, DegreeHeap& heap) {
  // The exact degree of p is |L_p|: room for the new element at the tail.
  if (iw_.size() - pfree_ < uz(degree_[uz(p)])) compact();

  // 1. L_p = (A_p ∪ L_e for e in E_p) \ {p}, written at the tail; the
  //    elements of p are subsets of it and are absorbed.
  const std::int64_t lp = ++stamp_;
  mark_[uz(p)] = lp;
  const std::size_t lp_begin = pfree_;
  const auto add = [&](Index v) {
    if (mark_[uz(v)] == lp) return;
    mark_[uz(v)] = lp;
    iw_[pfree_++] = v;
  };
  const std::size_t p_elems = pe_[uz(p)] + uz(elen_[uz(p)]);
  const std::size_t p_end = pe_[uz(p)] + uz(len_[uz(p)]);
  for (std::size_t k = pe_[uz(p)]; k < p_elems; ++k) {
    const Index e = iw_[k];
    kind_[uz(e)] = Kind::kDead;
    for (std::size_t j = pe_[uz(e)]; j < pe_[uz(e)] + uz(len_[uz(e)]); ++j) add(iw_[j]);
  }
  for (std::size_t k = p_elems; k < p_end; ++k) add(iw_[k]);
  const std::size_t lp_end = pfree_;
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
  //    among them); add element p. Then count u's external neighbourhood
  //    |(A_u ∪ L_e for e in E_u \ {p}) \ L_p| with L_p marked once.
  for (std::size_t k = lp_begin; k < lp_end; ++k) {
    const Index u = iw_[k];
    Index* list = iw_.data() + pe_[uz(u)];
    Index ne = 0;
    for (Index j = 0; j < elen_[uz(u)]; ++j) {
      const Index e = list[j];
      if (kind_[uz(e)] != Kind::kElement) continue;
      if (wcount_[uz(e)] == wflg_) {
        kind_[uz(e)] = Kind::kDead;
        continue;
      }
      list[ne++] = e;
    }
    Index nv = ne;
    for (Index j = elen_[uz(u)]; j < len_[uz(u)]; ++j)
      if (mark_[uz(list[j])] != lp) list[nv++] = list[j];

    Index external = 0;
    if (ne == 0) {
      external = nv;
    } else if (ne == 1 && nv == 1) {
      external = static_cast<Index>(wcount_[uz(list[0])] - wflg_);
    } else {
      const std::int64_t us = ++stamp_;
      for (Index j = 0; j < ne; ++j) {
        const Index e = list[j];
        for (std::size_t i = pe_[uz(e)]; i < pe_[uz(e)] + uz(len_[uz(e)]); ++i) {
          const Index v = iw_[i];
          if (mark_[uz(v)] != lp && mark_[uz(v)] != us) {
            mark_[uz(v)] = us;
            ++external;
          }
        }
      }
      for (Index j = ne; j < nv; ++j) external += mark_[uz(list[j])] != us ? 1 : 0;
    }
    // u lost p or an absorbed element of p, so p fits: it takes the first
    // variable's slot and that variable moves to the end.
    list[nv] = list[ne];
    list[ne] = p;
    elen_[uz(u)] = ne + 1;
    len_[uz(u)] = nv + 1;
    external_[k - lp_begin] = external;
  }

  // 4. Mass elimination. A variable with no external neighbour has degree
  //    |L_p| - 1, below every other degree, and so does each such variable
  //    after the previous one goes: the argmin rule takes them next, in id
  //    order (all ids exceed p's, which won the tie). They leave L_p.
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
  std::sort(order.begin() + static_cast<std::ptrdiff_t>(first_mass), order.end());
  len_[uz(p)] = static_cast<Index>(kept - lp_begin);
  pfree_ = kept;

  // 5. Exact degree = the rest of L_p plus the external neighbourhood.
  for (std::size_t k = lp_begin; k < kept; ++k) {
    const Index u = iw_[k];
    const Index d = len_[uz(p)] - 1 + external_[k - lp_begin];
    if (d == degree_[uz(u)]) continue;  // its heap key is still current
    degree_[uz(u)] = d;
    heap.push(heap_key(d, u));
  }
}

}  // namespace

std::vector<Index> minimum_degree(const SymPattern& pattern) {
  const Index n = pattern.size();
  QuotientGraph graph(pattern);
  std::vector<std::uint64_t> keys(uz(n));
  for (Index v = 0; v < n; ++v) keys[uz(v)] = heap_key(graph.degree(v), v);
  DegreeHeap heap(std::greater<>{}, std::move(keys));

  std::vector<Index> order;
  order.reserve(uz(n));
  while (order.size() < uz(n)) {
    const std::uint64_t key = heap.top();
    heap.pop();
    const auto p = static_cast<Index>(key & 0xffffffffU);
    if (!graph.is_variable(p) || heap_key(graph.degree(p), p) != key) continue;
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
