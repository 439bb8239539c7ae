// Tests for the tree generators (SYNTH substrate).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/treegen/catalan.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/treegen/shapes.hpp"
#include "src/treegen/weights.hpp"
#include "test_support.hpp"

namespace ooctree {
namespace {

using core::NodeId;
using core::Tree;
using core::Weight;
using treegen::catalan_number;
using treegen::u128;

TEST(Catalan, KnownValues) {
  EXPECT_EQ(static_cast<std::uint64_t>(catalan_number(0)), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(catalan_number(1)), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(catalan_number(5)), 42u);
  EXPECT_EQ(static_cast<std::uint64_t>(catalan_number(10)), 16796u);
  EXPECT_EQ(static_cast<std::uint64_t>(catalan_number(30)), 3814986502092304u);
  EXPECT_THROW((void)catalan_number(66), std::invalid_argument);
}

TEST(Catalan, UnrankProducesValidTrees) {
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u}) {
    const u128 total = catalan_number(n);
    for (u128 r = 0; r < total; ++r) {
      const Tree t = treegen::unrank_binary_tree(n, r);
      EXPECT_EQ(t.size(), n);
      for (NodeId v = 0; v < static_cast<NodeId>(n); ++v)
        EXPECT_LE(t.num_children(v), 2u);
    }
  }
  EXPECT_THROW((void)treegen::unrank_binary_tree(3, catalan_number(3)), std::invalid_argument);
}

TEST(Catalan, ExactSamplerCoversAllShapesOfSize4) {
  // C_4 = 14 ordered binary trees; as unordered parent-structures some
  // coincide, but repeated sampling must hit every distinct structure.
  util::Rng rng(801);
  std::set<std::string> seen;
  for (int rep = 0; rep < 2000; ++rep)
    seen.insert(treegen::uniform_binary_tree_exact(4, rng).to_string());
  std::set<std::string> all;
  for (u128 r = 0; r < catalan_number(4); ++r)
    all.insert(treegen::unrank_binary_tree(4, r).to_string());
  EXPECT_EQ(seen, all);
}

TEST(RandomBinary, RemyProducesFullBinaryTrees) {
  util::Rng rng(807);
  for (const std::size_t internal : {1u, 2u, 10u, 100u}) {
    const Tree t = treegen::remy_binary_tree(internal, rng);
    EXPECT_EQ(t.size(), 2 * internal + 1);
    std::size_t leaves = 0;
    for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v) {
      const auto k = t.num_children(v);
      EXPECT_TRUE(k == 0 || k == 2) << "full binary tree property";
      leaves += (k == 0) ? 1 : 0;
    }
    EXPECT_EQ(leaves, internal + 1);
  }
}

TEST(RandomBinary, StrippedTreeHasRequestedSize) {
  util::Rng rng(811);
  for (const std::size_t n : {1u, 2u, 5u, 50u, 3000u}) {
    const Tree t = treegen::uniform_binary_tree(n, rng);
    EXPECT_EQ(t.size(), n);
    for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v)
      EXPECT_LE(t.num_children(v), 2u);
  }
}

/// Order- and label-independent canonical form of a tree shape.
std::string canonical_shape(const Tree& t, NodeId v) {
  std::vector<std::string> kids;
  for (const NodeId c : t.children(v)) kids.push_back(canonical_shape(t, c));
  std::sort(kids.begin(), kids.end());
  std::string out = "(";
  for (const auto& k : kids) out += k;
  out += ")";
  return out;
}

TEST(RandomBinary, UniformityChiSquareSmoke) {
  // Compare Rémy-based sampling frequencies of size-4 shapes against the
  // exact distribution induced by Catalan (ordered-tree) counting: each
  // unordered shape's probability is (#ordered representatives) / C_4.
  util::Rng rng(821);
  std::map<std::string, int> exact;
  for (u128 r = 0; r < catalan_number(4); ++r) {
    const Tree t = treegen::unrank_binary_tree(4, r);
    exact[canonical_shape(t, t.root())]++;
  }
  std::map<std::string, double> freq;
  const int reps = 20000;
  for (int rep = 0; rep < reps; ++rep) {
    const Tree t = treegen::uniform_binary_tree(4, rng);
    freq[canonical_shape(t, t.root())] += 1.0;
  }
  const double total = static_cast<double>(static_cast<std::uint64_t>(catalan_number(4)));
  for (const auto& [shape, count] : exact) {
    const double expected = static_cast<double>(count) / total;
    ASSERT_TRUE(freq.count(shape)) << shape;
    EXPECT_NEAR(freq[shape] / reps, expected, 0.02) << shape;
  }
}

TEST(RandomBinary, SynthInstanceWeightsInRange) {
  util::Rng rng(823);
  const Tree t = treegen::synth_instance(3000, 1, 100, rng);
  EXPECT_EQ(t.size(), 3000u);
  Weight lo = 1000, hi = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v) {
    lo = std::min(lo, t.weight(v));
    hi = std::max(hi, t.weight(v));
  }
  EXPECT_GE(lo, 1);
  EXPECT_LE(hi, 100);
  EXPECT_GT(hi, 50) << "3000 uniform draws should reach the top half";
}

TEST(RandomBinary, SynthInstanceIsOneBuildOfTheComposedPipeline) {
  // synth_instance builds its Tree once, but must equal the uniform shape,
  // reweighted, then moved to the requested memory model — same draws, same
  // ids, and the generator left in the same state.
  using core::MemoryModel;
  for (const MemoryModel model : {MemoryModel::kMaxInOut, MemoryModel::kSumInOut}) {
    for (const std::size_t n : {1u, 2u, 3u, 64u, 1000u}) {
      util::Rng direct_rng(829 + n);
      const Tree direct = treegen::synth_instance(n, 3, 70, direct_rng, model);
      util::Rng composed_rng(829 + n);
      const Tree shape = treegen::uniform_binary_tree(n, composed_rng);
      const Tree composed =
          treegen::with_uniform_weights(shape, 3, 70, composed_rng).with_memory_model(model);
      EXPECT_EQ(direct.memory_model(), model);
      EXPECT_EQ(direct.canonical_hash(), composed.canonical_hash()) << "n = " << n;
      EXPECT_EQ(direct.min_feasible_memory(), composed.min_feasible_memory());
      EXPECT_EQ(direct_rng.index(1u << 30), composed_rng.index(1u << 30));
    }
  }
  util::Rng rng(1);
  EXPECT_THROW((void)treegen::synth_instance(0, 1, 100, rng), std::invalid_argument);
}

TEST(Shapes, ChainStarKaryCaterpillarSpider) {
  EXPECT_EQ(treegen::chain_tree({5, 4, 3}).depth(), 3u);
  EXPECT_EQ(treegen::star_tree(6, 2, 1).size(), 7u);
  EXPECT_EQ(treegen::complete_kary_tree(3, 3, 1).size(), 1u + 3u + 9u);
  EXPECT_EQ(treegen::caterpillar_tree(4, 2, 1).size(), 4u + 8u);
  const Tree spider = treegen::spider_tree(3, 4, 1);
  EXPECT_EQ(spider.size(), 1u + 12u);
  EXPECT_EQ(spider.num_children(spider.root()), 3u);
  EXPECT_EQ(spider.depth(), 5u);
}

TEST(Shapes, RandomRecursiveTree) {
  util::Rng rng(829);
  const Tree t = treegen::random_recursive_tree(500, rng);
  EXPECT_EQ(t.size(), 500u);
  EXPECT_EQ(t.root(), 0);
}

TEST(Weights, UniformAndConstantAndLogUniform) {
  util::Rng rng(839);
  const Tree shape = treegen::uniform_binary_tree(200, rng);
  const Tree uni = treegen::with_uniform_weights(shape, 5, 9, rng);
  for (NodeId v = 0; v < static_cast<NodeId>(uni.size()); ++v) {
    EXPECT_GE(uni.weight(v), 5);
    EXPECT_LE(uni.weight(v), 9);
    EXPECT_EQ(uni.parent(v), shape.parent(v));
  }
  EXPECT_TRUE(treegen::with_constant_weights(shape, 1).is_homogeneous());
  const Tree logw = treegen::with_log_uniform_weights(shape, 1000, rng);
  Weight hi = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(logw.size()); ++v) {
    EXPECT_GE(logw.weight(v), 1);
    EXPECT_LE(logw.weight(v), 1000);
    hi = std::max(hi, logw.weight(v));
  }
  EXPECT_GT(hi, 100) << "heavy tail should reach large weights";
}

}  // namespace
}  // namespace ooctree
