// Differential suite for sparse::minimum_degree. The shipped kernel works on
// a flat quotient graph; the oracle (tests/oracles/minimum_degree_reference)
// is the original vector-of-vectors kernel. Both eliminate the argmin of
// (exact external degree, vertex id), so their permutations must agree
// element for element, and the assembly trees built on them must hash equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

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
