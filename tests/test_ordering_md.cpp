// Differential suite for sparse::minimum_degree. The shipped kernel works on
// a flat quotient graph and keys its heap by lower bounds on the degrees;
// the oracle (tests/oracles/minimum_degree_reference) is the original
// vector-of-vectors kernel, which recomputes every degree exactly. Both
// eliminate the argmin of (exact external degree, vertex id), so their
// permutations must agree element for element, and the assembly trees built
// on them must hash equal. The fill-heavy cases are where most keys are
// inexact when they reach the top of the heap.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/core/check.hpp"
#include "src/sparse/assembly_tree.hpp"
#include "src/sparse/generators.hpp"
#include "src/sparse/ordering.hpp"
#include "src/util/rng.hpp"
#include "tests/oracles/minimum_degree_reference.hpp"

namespace ooctree {
namespace {

using sparse::Index;
using sparse::SymPattern;

/// Compares the kernel with the oracle on `p`, reporting the first position
/// where they differ rather than two whole permutations.
void expect_same_order(const SymPattern& p, const std::string& label) {
  const std::vector<Index> fast = sparse::minimum_degree(p);
  const std::vector<Index> ref = sparse::oracle::minimum_degree_reference(p);
  ASSERT_EQ(fast.size(), ref.size()) << label;
  const auto [a, b] = std::mismatch(fast.begin(), fast.end(), ref.begin());
  ASSERT_TRUE(a == fast.end()) << label << ": first difference at position "
                               << (a - fast.begin()) << ": " << *a << " vs " << *b;
  EXPECT_EQ(sparse::mtx_assembly_tree(p).canonical_hash(),
            sparse::assembly_tree(p.permuted(ref)).canonical_hash())
      << label;
}

TEST(MinimumDegreeDifferential, Grid2d) {
  for (Index k = 28; k <= 56; ++k) expect_same_order(sparse::grid2d(k, k), "5-pt " + std::to_string(k));
  expect_same_order(sparse::grid2d(17, 45), "5-pt 17x45");
}

TEST(MinimumDegreeDifferential, Grid2d9pt) {
  for (Index k = 20; k <= 40; ++k)
    expect_same_order(sparse::grid2d_9pt(k, k), "9-pt " + std::to_string(k));
  expect_same_order(sparse::grid2d_9pt(13, 31), "9-pt 13x31");
}

TEST(MinimumDegreeDifferential, Grid3d) {
  for (Index k = 8; k <= 12; ++k)
    expect_same_order(sparse::grid3d(k, k, k), "3-D " + std::to_string(k));
  expect_same_order(sparse::grid3d(14, 14, 14), "3-D 14");
  expect_same_order(sparse::grid3d(6, 9, 13), "3-D 6x9x13");
}

TEST(MinimumDegreeDifferential, RandomSymmetric) {
  for (const double degree : {4.0, 6.0}) {
    for (int seed = 0; seed < 20; ++seed) {
      const Index n = 400 + 800 * seed / 19;  // 400 .. 1200
      util::Rng rng(static_cast<std::uint64_t>(seed) * 7727 + 5);
      expect_same_order(sparse::random_symmetric(n, degree, rng),
                        "random n=" + std::to_string(n) + " deg=" + std::to_string(degree));
    }
  }
}

// Sparse random patterns fill in heavily: most keys are lower bounds when
// they reach the top. The oracle's cost grows with the fill (about 1 s at
// n = 2000, degree 8, and 10 s at n = 4000), which bounds the sizes here.
TEST(MinimumDegreeDifferential, FillHeavyRandomDegree2p5) {
  for (const Index n : {2000, 3000, 4000}) {
    util::Rng rng(static_cast<std::uint64_t>(n) + 3);
    expect_same_order(sparse::random_symmetric(n, 2.5, rng), "random n=" + std::to_string(n));
  }
}

TEST(MinimumDegreeDifferential, FillHeavyRandomDegree8) {
  util::Rng rng(808);
  expect_same_order(sparse::random_symmetric(2000, 8.0, rng), "random n=2000 deg=8");
}

TEST(MinimumDegreeDifferential, FillHeavyRandomDegree12) {
  util::Rng rng(1212);
  expect_same_order(sparse::random_symmetric(2000, 12.0, rng), "random n=2000 deg=12");
}

/// The disjoint union of `parts`, vertex ids offset part by part.
SymPattern disjoint_union(const std::vector<SymPattern>& parts) {
  std::vector<std::pair<Index, Index>> edges;
  Index n = 0;
  for (const SymPattern& p : parts) {
    for (Index v = 0; v < p.size(); ++v)
      for (const Index u : p.neighbors(v))
        if (u < v) edges.emplace_back(n + v, n + u);
    n += p.size();
  }
  return SymPattern::from_entries(n, std::move(edges));
}

TEST(MinimumDegreeDifferential, DisjointUnions) {
  util::Rng rng(31);
  expect_same_order(disjoint_union({sparse::grid2d(20, 20), sparse::random_symmetric(500, 4.0, rng),
                                    sparse::grid3d(6, 6, 6), sparse::grid2d_9pt(15, 9)}),
                    "grid + random + 3-D + 9-pt");
  expect_same_order(disjoint_union({sparse::random_symmetric(300, 8.0, rng),
                                    sparse::random_symmetric(300, 8.0, rng),
                                    sparse::random_symmetric(301, 2.5, rng)}),
                    "three random patterns");
  // Equal components tie on every degree; the ids decide.
  expect_same_order(disjoint_union({sparse::grid2d(12, 12), sparse::grid2d(12, 12),
                                    sparse::grid2d(12, 12)}),
                    "three equal grids");
}

TEST(MinimumDegreeDifferential, Arrowhead) {
  // A path whose every vertex also touches the last `k` vertices, the
  // arrowhead's dense rows.
  for (const Index k : {1, 3, 12}) {
    const Index n = 600;
    std::vector<std::pair<Index, Index>> edges;
    for (Index v = 0; v + 1 < n - k; ++v) edges.emplace_back(v, v + 1);
    for (Index v = 0; v < n - k; ++v)
      for (Index t = n - k; t < n; ++t) edges.emplace_back(v, t);
    expect_same_order(SymPattern::from_entries(n, edges), "arrowhead k=" + std::to_string(k));
  }
}

TEST(MinimumDegreeAudit, EveryPivotDegreeIsRecountedAgainstItsKey) {
#if OOCTREE_AUDIT_ENABLED
  // Under OOCTREE_AUDIT the kernel recounts each popped vertex's degree
  // from scratch on the original pattern (reachability through eliminated
  // vertices) and checks it against the quotient graph's count and the
  // vertex's key: two checks per pop.
  util::Rng rng(4);
  const SymPattern p = sparse::random_symmetric(800, 8.0, rng);
  const std::uint64_t before = core::audit_checks_executed();
  expect_same_order(p, "audited random n=800");
  EXPECT_GE(core::audit_checks_executed() - before, 200u);
#else
  GTEST_SKIP() << "audit checks compile only under OOCTREE_AUDIT";
#endif
}

TEST(MinimumDegreeDifferential, BorderedBlockDiagonal) {
  const struct {
    int blocks;
    Index grid, border;
    int couplings;
  } configs[] = {{4, 10, 6, 2}, {3, 16, 12, 3}, {6, 8, 4, 1}, {2, 20, 30, 4}};
  std::uint64_t seed = 41;
  for (const auto& c : configs) {
    util::Rng rng(seed++);
    expect_same_order(sparse::bordered_block_diagonal(c.blocks, c.grid, c.border, c.couplings, rng),
                      "bbd " + std::to_string(c.blocks) + "x" + std::to_string(c.grid));
  }
}

TEST(MinimumDegreeDifferential, DisconnectedForest) {
  // Random trees of assorted sizes side by side, plus isolated vertices.
  util::Rng rng(2024);
  std::vector<std::pair<Index, Index>> edges;
  Index n = 0;
  for (const Index size : {1, 2, 5, 17, 40, 3, 90, 1, 64}) {
    for (Index v = 1; v < size; ++v)
      edges.emplace_back(n + v, n + static_cast<Index>(rng.uniform_int(0, v - 1)));
    n += size;
  }
  expect_same_order(SymPattern::from_entries(n, edges), "forest");
}

TEST(MinimumDegreeDifferential, DegenerateShapes) {
  expect_same_order(SymPattern::from_entries(1, {}), "single vertex");
  expect_same_order(SymPattern::from_entries(7, {}), "no edges");

  std::vector<std::pair<Index, Index>> star_low, star_high, clique, path;
  for (Index v = 1; v < 9; ++v) star_low.emplace_back(0, v);
  for (Index v = 0; v < 8; ++v) star_high.emplace_back(8, v);
  for (Index u = 0; u < 8; ++u)
    for (Index v = u + 1; v < 8; ++v) clique.emplace_back(u, v);
  for (Index v = 0; v + 1 < 10; ++v) path.emplace_back(v, v + 1);
  expect_same_order(SymPattern::from_entries(9, star_low), "star, centre 0");
  expect_same_order(SymPattern::from_entries(9, star_high), "star, centre 8");
  expect_same_order(SymPattern::from_entries(8, clique), "clique");
  expect_same_order(SymPattern::from_entries(10, path), "path");
}

}  // namespace
}  // namespace ooctree
