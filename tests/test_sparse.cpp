// Tests for the sparse-matrix substrate: patterns, orderings, elimination
// trees, column counts and assembly trees.
#include <gtest/gtest.h>

#include <cstdio>
#include <algorithm>
#include <set>
#include <sstream>

#include "src/sparse/assembly_tree.hpp"
#include "src/sparse/csc.hpp"
#include "src/sparse/dataset.hpp"
#include "src/sparse/etree.hpp"
#include "src/sparse/generators.hpp"
#include "src/sparse/matrix_market.hpp"
#include "src/sparse/ordering.hpp"
#include "test_support.hpp"

namespace ooctree {
namespace {

using sparse::Index;
using sparse::SymPattern;

/// Naive O(n^3) symbolic Cholesky column counts: reference oracle.
std::vector<std::int64_t> naive_column_counts(const SymPattern& p) {
  const auto n = static_cast<std::size_t>(p.size());
  // Dense boolean lower-triangular fill-in simulation.
  std::vector<std::vector<bool>> lower(n, std::vector<bool>(n, false));
  for (Index j = 0; j < p.size(); ++j) {
    for (const Index i : p.neighbors(j))
      if (i > j) lower[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = true;
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = k + 1; i < n; ++i) {
      if (!lower[i][k]) continue;
      for (std::size_t j = k + 1; j < i; ++j)
        if (lower[j][k]) lower[i][j] = true;  // update column j with row i
    }
  }
  std::vector<std::int64_t> counts(n, 1);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j + 1; i < n; ++i) counts[j] += lower[i][j] ? 1 : 0;
  return counts;
}

/// Reference elimination tree from the naive fill: parent(j) = first i > j
/// with L(i,j) != 0.
std::vector<Index> naive_etree(const SymPattern& p) {
  const auto n = static_cast<std::size_t>(p.size());
  std::vector<std::vector<bool>> lower(n, std::vector<bool>(n, false));
  for (Index j = 0; j < p.size(); ++j)
    for (const Index i : p.neighbors(j))
      if (i > j) lower[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = true;
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = k + 1; i < n; ++i) {
      if (!lower[i][k]) continue;
      for (std::size_t j = k + 1; j < i; ++j)
        if (lower[j][k]) lower[i][j] = true;
    }
  std::vector<Index> parent(n, -1);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j + 1; i < n; ++i)
      if (lower[i][j]) {
        parent[j] = static_cast<Index>(i);
        break;
      }
  return parent;
}

SymPattern small_random(Index n, double deg, std::uint64_t seed) {
  util::Rng rng(seed);
  return sparse::random_symmetric(n, deg, rng);
}

TEST(SymPattern, BuildsSortedSymmetricAdjacency) {
  const SymPattern p = SymPattern::from_entries(4, {{0, 1}, {1, 0}, {2, 3}, {1, 1}, {3, 1}});
  EXPECT_EQ(p.size(), 4);
  EXPECT_EQ(p.nnz(), 6u);  // edges {0,1}, {2,3}, {1,3} both ways, diagonal dropped
  const auto nb1 = p.neighbors(1);
  EXPECT_TRUE(std::is_sorted(nb1.begin(), nb1.end()));
  EXPECT_EQ(nb1.size(), 2u);
}

TEST(SymPattern, PermutedPreservesStructure) {
  const SymPattern p = sparse::grid2d(3, 3);
  const std::vector<Index> perm{8, 7, 6, 5, 4, 3, 2, 1, 0};
  const SymPattern q = p.permuted(perm);
  EXPECT_EQ(q.nnz(), p.nnz());
  // Edge (0,1) in p becomes (8,7) in q.
  const auto nb = q.neighbors(8);
  EXPECT_TRUE(std::find(nb.begin(), nb.end(), 7) != nb.end());
  EXPECT_THROW((void)p.permuted({0, 0, 2, 3, 4, 5, 6, 7, 8}), std::invalid_argument);
}

TEST(SymPattern, Connectivity) {
  EXPECT_TRUE(sparse::grid2d(5, 4).connected());
  const SymPattern disconnected = SymPattern::from_entries(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(disconnected.connected());
}

TEST(Generators, GridSizesAndDegrees) {
  const SymPattern g2 = sparse::grid2d(4, 5);
  EXPECT_EQ(g2.size(), 20);
  EXPECT_EQ(g2.nnz(), 2u * (3 * 5 + 4 * 4));  // horizontal + vertical edges
  const SymPattern g3 = sparse::grid3d(3, 3, 3);
  EXPECT_EQ(g3.size(), 27);
  // Center vertex has 6 neighbors.
  EXPECT_EQ(g3.degree(13), 6u);
  const SymPattern g9 = sparse::grid2d_9pt(4, 4);
  EXPECT_EQ(g9.degree(5), 8u);  // interior vertex
  util::Rng rng(5);
  const SymPattern r = sparse::random_symmetric(100, 6.0, rng);
  EXPECT_TRUE(r.connected());
  EXPECT_GE(r.nnz(), 2u * 99u);
}

TEST(Etree, MatchesNaiveOracle) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const SymPattern p = small_random(30, 3.5, 900 + seed);
    EXPECT_EQ(sparse::elimination_tree(p), naive_etree(p)) << "seed " << seed;
  }
  EXPECT_EQ(sparse::elimination_tree(sparse::grid2d(4, 4)),
            naive_etree(sparse::grid2d(4, 4)));
}

TEST(Etree, ColumnCountsMatchNaiveOracle) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const SymPattern p = small_random(25, 3.0, 950 + seed);
    const auto parent = sparse::elimination_tree(p);
    EXPECT_EQ(sparse::column_counts(p, parent), naive_column_counts(p)) << "seed " << seed;
  }
}

TEST(Etree, ChainMatrixGivesChainTree) {
  // Tridiagonal pattern: etree is a chain, all column counts 2 (last 1).
  std::vector<std::pair<Index, Index>> entries;
  for (Index i = 0; i + 1 < 8; ++i) entries.emplace_back(i, i + 1);
  const SymPattern p = SymPattern::from_entries(8, std::move(entries));
  const auto parent = sparse::elimination_tree(p);
  for (Index j = 0; j + 1 < 8; ++j) EXPECT_EQ(parent[static_cast<std::size_t>(j)], j + 1);
  const auto counts = sparse::column_counts(p, parent);
  for (Index j = 0; j + 1 < 8; ++j) EXPECT_EQ(counts[static_cast<std::size_t>(j)], 2);
  EXPECT_EQ(counts[7], 1);
  EXPECT_EQ(sparse::factor_nnz(counts), 15);
}

TEST(Ordering, AllReturnPermutations) {
  const SymPattern p = sparse::grid2d(7, 6);
  for (const auto& perm : {sparse::reverse_cuthill_mckee(p), sparse::minimum_degree(p),
                           sparse::natural_order(p.size())}) {
    std::set<Index> seen(perm.begin(), perm.end());
    EXPECT_EQ(perm.size(), static_cast<std::size_t>(p.size()));
    EXPECT_EQ(seen.size(), perm.size());
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), p.size() - 1);
  }
  const auto nd = sparse::nested_dissection_2d(7, 6);
  EXPECT_EQ(std::set<Index>(nd.begin(), nd.end()).size(), 42u);
  const auto nd3 = sparse::nested_dissection_3d(4, 5, 3);
  EXPECT_EQ(std::set<Index>(nd3.begin(), nd3.end()).size(), 60u);
}

TEST(Ordering, FillReductionOnGrids) {
  // Both MD and ND must beat the natural order's fill on a moderate grid;
  // this is the raison d'être of the module.
  const Index k = 16;
  const SymPattern g = sparse::grid2d(k, k);
  const auto fill = [&](const std::vector<Index>& perm) {
    const SymPattern q = g.permuted(perm);
    return sparse::factor_nnz(sparse::column_counts(q, sparse::elimination_tree(q)));
  };
  const auto natural = fill(sparse::natural_order(g.size()));
  EXPECT_LT(fill(sparse::minimum_degree(g)), natural);
  EXPECT_LT(fill(sparse::nested_dissection_2d(k, k)), natural);
}

TEST(Ordering, RcmReducesBandProxy) {
  // RCM should not increase fill on a banded-ish random pattern.
  const SymPattern p = small_random(60, 4.0, 977);
  const auto fill = [&](const std::vector<Index>& perm) {
    const SymPattern q = p.permuted(perm);
    return sparse::factor_nnz(sparse::column_counts(q, sparse::elimination_tree(q)));
  };
  EXPECT_LE(fill(sparse::reverse_cuthill_mckee(p)), 3 * fill(sparse::natural_order(p.size())));
}

TEST(AssemblyTree, WeightsAreContributionBlocks) {
  // Tridiagonal: every column's count is 2 (last 1) -> contribution block
  // (2-1)^2 = 1; without amalgamation the tree is a weighted chain of 1s.
  std::vector<std::pair<Index, Index>> entries;
  for (Index i = 0; i + 1 < 6; ++i) entries.emplace_back(i, i + 1);
  const SymPattern p = SymPattern::from_entries(6, std::move(entries));
  sparse::AssemblyOptions opts;
  opts.amalgamate = false;
  const core::Tree t = sparse::assembly_tree(p, opts);
  EXPECT_EQ(t.size(), 6u);
  for (core::NodeId v = 0; v < 6; ++v) EXPECT_EQ(t.weight(v), 1);
  EXPECT_EQ(t.depth(), 6u);
}

TEST(AssemblyTree, AmalgamationShrinksChains) {
  const SymPattern g = sparse::grid2d(10, 10);
  const auto perm = sparse::nested_dissection_2d(10, 10);
  sparse::AssemblyOptions plain, merged;
  plain.amalgamate = false;
  merged.amalgamate = true;
  const core::Tree full = sparse::assembly_tree_ordered(g, perm, plain);
  const core::Tree amal = sparse::assembly_tree_ordered(g, perm, merged);
  EXPECT_EQ(full.size(), 100u);
  EXPECT_LT(amal.size(), full.size());
  EXPECT_GE(amal.size(), 10u);
}

TEST(AssemblyTree, ForestGetsVirtualRoot) {
  const SymPattern p = SymPattern::from_entries(4, {{0, 1}, {2, 3}});
  const core::Tree t = sparse::assembly_tree(p);
  // Components joined under one root; tree constraints hold by construction.
  EXPECT_EQ(t.postorder().size(), t.size());
}

TEST(MatrixMarket, RoundTrip) {
  const SymPattern p = sparse::grid2d(5, 5);
  std::ostringstream out;
  sparse::write_matrix_market(out, p);
  std::istringstream in(out.str());
  const SymPattern q = sparse::read_matrix_market(in);
  EXPECT_EQ(q.size(), p.size());
  EXPECT_EQ(q.nnz(), p.nnz());
}

TEST(MatrixMarket, ParsesRealGeneralFormat) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment line\n"
      "3 3 4\n"
      "1 1 2.5\n"
      "2 1 -1.0\n"
      "3 2 4e-2\n"
      "3 3 1.0\n");
  const SymPattern p = sparse::read_matrix_market(in);
  EXPECT_EQ(p.size(), 3);
  EXPECT_EQ(p.nnz(), 4u);  // (1,0) and (2,1) symmetrized, diagonals dropped
}

TEST(MatrixMarket, SkipsBlankLinesBeforeSizeLine) {
  // The format allows blank lines among the header comments; the seed
  // reader treated the first blank line as a malformed size line.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% comment\n"
      "\n"
      "   \n"
      "% another comment\n"
      "\n"
      "3 3 2\n"
      "2 1\n"
      "3 2\n");
  const SymPattern p = sparse::read_matrix_market(in);
  EXPECT_EQ(p.size(), 3);
  EXPECT_EQ(p.nnz(), 4u);  // 2 symmetric edges, stored both ways
}

TEST(MatrixMarket, HonorsDeclaredSymmetry) {
  // Unknown symmetry values are rejected instead of silently treated as
  // general.
  std::istringstream unknown(
      "%%MatrixMarket matrix coordinate pattern sideways\n1 1 0\n");
  EXPECT_THROW((void)sparse::read_matrix_market(unknown), std::runtime_error);
  // Symmetric storage keeps the lower triangle only; an upper-triangle
  // entry marks a malformed file (the seed reader symmetrized it quietly).
  std::istringstream upper(
      "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 2\n");
  EXPECT_THROW((void)sparse::read_matrix_market(upper), std::runtime_error);
  // skew-symmetric and hermitian imply a symmetric pattern and parse fine.
  std::istringstream skew(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 -3.5\n");
  EXPECT_EQ(sparse::read_matrix_market(skew).nnz(), 2u);  // one edge, both ways
  // Spec corner cases: hermitian is only defined for complex fields, and
  // skew-symmetry forces a zero (unstored) diagonal.
  std::istringstream real_hermitian(
      "%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n2 1 1.0\n");
  EXPECT_THROW((void)sparse::read_matrix_market(real_hermitian), std::runtime_error);
  std::istringstream skew_diag(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n1 1 2.0\n");
  EXPECT_THROW((void)sparse::read_matrix_market(skew_diag), std::runtime_error);
  // general files are symmetrized structurally — explicitly, by policy.
  std::istringstream general(
      "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n");
  const SymPattern g = sparse::read_matrix_market(general);
  EXPECT_EQ(g.nnz(), 2u) << "(0,1) and (1,0) collapse to one symmetric edge";
}

TEST(MatrixMarket, FixtureFileRoundTrip) {
  // Save to an actual file and load it back through the file API.
  const SymPattern p = sparse::grid2d(4, 6);
  const std::string path = ::testing::TempDir() + "ooctree_mm_roundtrip.mtx";
  sparse::save_matrix_market(path, p);
  const SymPattern q = sparse::load_matrix_market(path);
  EXPECT_EQ(q.size(), p.size());
  EXPECT_EQ(q.nnz(), p.nnz());
  for (sparse::Index j = 0; j < p.size(); ++j) {
    const auto a = p.neighbors(j);
    const auto b = q.neighbors(j);
    ASSERT_EQ(a.size(), b.size()) << "column " << j;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "column " << j;
  }
  std::remove(path.c_str());
}

TEST(MatrixMarket, RejectsMalformed) {
  std::istringstream bad_banner("%%NotMM matrix coordinate real general\n1 1 0\n");
  EXPECT_THROW((void)sparse::read_matrix_market(bad_banner), std::runtime_error);
  std::istringstream rectangular(
      "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 1\n");
  EXPECT_THROW((void)sparse::read_matrix_market(rectangular), std::runtime_error);
  std::istringstream truncated(
      "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n");
  EXPECT_THROW((void)sparse::read_matrix_market(truncated), std::runtime_error);
}

/// The message read_matrix_market throws on `text`, or "" if it succeeds.
std::string matrix_market_error(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)sparse::read_matrix_market(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(MatrixMarket, RejectsNegativeEntryCount) {
  const std::string error =
      matrix_market_error("%%MatrixMarket matrix coordinate pattern symmetric\n4 4 -3\n2 1\n");
  EXPECT_NE(error.find("matrix market: negative entry count"), std::string::npos) << error;
}

TEST(MatrixMarket, HugeEntryCountOnTruncatedBodyFailsAsTruncated) {
  // 2^40 claimed entries, one present: the reader must report truncation,
  // not try to allocate 2^40 pairs up front.
  const std::string error = matrix_market_error(
      "%%MatrixMarket matrix coordinate pattern symmetric\n4 4 1099511627776\n2 1\n");
  EXPECT_NE(error.find("matrix market: truncated entry list at entry 1"), std::string::npos)
      << error;
}

TEST(MatrixMarket, RejectsUnknownField) {
  // The field decides how many values follow each index pair; guessing one
  // for an unknown field misreads the body.
  const std::string error =
      matrix_market_error("%%MatrixMarket matrix coordinate banana symmetric\n2 2 1\n2 1 7\n");
  EXPECT_NE(error.find("matrix market: unknown field 'banana'"), std::string::npos) << error;
  for (const char* field : {"real", "double", "integer", "pattern"}) {
    const std::string value = std::string(field) == "pattern" ? "" : " 3";
    EXPECT_EQ(matrix_market_error(std::string("%%MatrixMarket matrix coordinate ") + field +
                                  " symmetric\n2 2 1\n2 1" + value + "\n"),
              "")
        << field;
  }
  EXPECT_EQ(matrix_market_error(
                "%%MatrixMarket matrix coordinate complex hermitian\n2 2 1\n2 1 1.0 -2.0\n"),
            "");
}

TEST(MatrixMarket, RejectsTrailingTokensOnTheSizeLine) {
  // "3 3 2 7" used to parse as 3x3 with 2 entries, the 7 silently dropped.
  EXPECT_EQ(matrix_market_error(
                "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2 7\n2 1\n3 2\n"),
            "matrix market: malformed size line");
  EXPECT_EQ(matrix_market_error(
                "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2 \t\r\n2 1\n3 2\n"),
            "");
}

TEST(MatrixMarket, RejectsEntriesBeyondTheDeclaredCount) {
  // "3 3 1" over a 3-entry body used to parse as a 1-edge pattern: a
  // different matrix, so a different tree, answered as if fine.
  const std::string error = matrix_market_error(
      "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2 1\n3 2\n3 1\n");
  EXPECT_NE(error.find("matrix market: more entries than the size line declares"),
            std::string::npos)
      << error;
  // Trailing whitespace and a missing final newline are not entries.
  EXPECT_EQ(matrix_market_error(
                "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2 1\n\n  \t\n"),
            "");
  EXPECT_EQ(matrix_market_error("%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n2 1 4.5"),
            "");
  EXPECT_EQ(matrix_market_error("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 0\n"), "");
}

TEST(Generators, BorderedBlockDiagonal) {
  util::Rng rng(31);
  const SymPattern p = sparse::bordered_block_diagonal(4, 10, 6, 2, rng);
  EXPECT_EQ(p.size(), 4 * 100 + 6);
  EXPECT_TRUE(p.connected()) << "the border couples every block";
  // Block-interior vertices keep grid degrees; border vertices have many.
  std::size_t max_deg = 0;
  for (Index v = 0; v < p.size(); ++v) max_deg = std::max(max_deg, p.degree(v));
  EXPECT_GT(max_deg, 4u);
  EXPECT_THROW((void)sparse::bordered_block_diagonal(0, 10, 5, 1, rng), std::invalid_argument);
}

TEST(AssemblyTree, BbdTreesHaveHeavyBranches) {
  // The raison d'etre of the BBD family: several heavy subtrees joined
  // near the root, the structure on which postorder strategies lose.
  util::Rng rng(37);
  const SymPattern p = sparse::bordered_block_diagonal(4, 16, 8, 2, rng);
  const core::Tree t = sparse::assembly_tree(p.permuted(sparse::minimum_degree(p)));
  // Count subtrees of the root region holding >= 10% of the total weight.
  std::size_t heavy = 0;
  std::vector<core::Weight> subtree_weight(t.size(), 0);
  for (const core::NodeId v : t.postorder()) {
    subtree_weight[static_cast<std::size_t>(v)] = t.weight(v);
    for (const core::NodeId c : t.children(v))
      subtree_weight[static_cast<std::size_t>(v)] += subtree_weight[static_cast<std::size_t>(c)];
  }
  for (std::size_t v = 0; v < t.size(); ++v) {
    if (t.parent(static_cast<core::NodeId>(v)) == core::kNoNode) continue;
    if (subtree_weight[v] * 10 >= t.total_weight() &&
        subtree_weight[v] * 2 <= t.total_weight())
      ++heavy;
  }
  EXPECT_GE(heavy, 2u) << "expected several medium-heavy branches";
}

TEST(AssemblyTree, AmalgamationPreservesTotalContribution) {
  // Merging a fundamental supernode keeps the top column's contribution
  // block; every task weight must be one of the per-column blocks.
  const SymPattern g = sparse::grid2d(9, 9);
  const SymPattern q = g.permuted(sparse::minimum_degree(g));
  const auto parent = sparse::elimination_tree(q);
  const auto counts = sparse::column_counts(q, parent);
  std::set<core::Weight> valid_weights{1};
  for (const auto c : counts) valid_weights.insert(std::max<core::Weight>(1, (c - 1) * (c - 1)));
  const core::Tree amal = sparse::assembly_tree(q);
  for (std::size_t v = 0; v < amal.size(); ++v)
    EXPECT_TRUE(valid_weights.count(amal.weight(static_cast<core::NodeId>(v))))
        << amal.weight(static_cast<core::NodeId>(v));
}

TEST(Etree, PostorderPermutationInvariance) {
  // Relabelling by any topological permutation of the etree preserves the
  // multiset of column counts (a classic symbolic-analysis sanity check
  // for the fill being a function of the structure, not the labels).
  const SymPattern g = sparse::grid2d(7, 7);
  const auto nd = sparse::nested_dissection_2d(7, 7);
  const SymPattern q = g.permuted(nd);
  const auto c1 = sparse::column_counts(q, sparse::elimination_tree(q));
  EXPECT_EQ(sparse::factor_nnz(c1), sparse::factor_nnz(c1));
  // A second ND with a different leaf size is a different permutation but
  // the same separator structure top-level: fill should be comparable.
  const SymPattern q2 = g.permuted(sparse::nested_dissection_2d(7, 7, 4));
  const auto c2 = sparse::column_counts(q2, sparse::elimination_tree(q2));
  EXPECT_LT(std::abs(sparse::factor_nnz(c1) - sparse::factor_nnz(c2)),
            sparse::factor_nnz(c1));
}

TEST(Dataset, SmokeSetIsSane) {
  sparse::DatasetOptions opts;
  opts.scale = 0;
  const auto data = sparse::make_trees_dataset(opts);
  ASSERT_GE(data.size(), 5u);
  for (const auto& inst : data) {
    EXPECT_FALSE(inst.name.empty());
    EXPECT_GE(inst.tree.size(), 100u) << inst.name;
    // Every instance must be schedulable: LB <= some peak.
    EXPECT_GT(inst.tree.min_feasible_memory(), 0) << inst.name;
  }
}

}  // namespace
}  // namespace ooctree
