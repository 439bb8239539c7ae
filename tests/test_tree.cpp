// Unit tests for the core Tree data structure and its serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/tree.hpp"
#include "src/core/tree_io.hpp"
#include "src/treegen/shapes.hpp"
#include "test_support.hpp"

namespace ooctree {
namespace {

using core::kNoNode;
using core::make_tree;
using core::NodeId;
using core::Tree;
using core::Weight;

Tree sample_tree() {
  //        0 (w 5)
  //       __/ \__
  //      1 (3)    2 (4)
  //     /  \         |
  //    3(2) 4(7)     5(1)
  return make_tree({{kNoNode, 5}, {0, 3}, {0, 4}, {1, 2}, {1, 7}, {2, 1}});
}

TEST(Tree, BasicAccessors) {
  const Tree t = sample_tree();
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.weight(4), 7);
  EXPECT_EQ(t.parent(5), 2);
  EXPECT_TRUE(t.is_leaf(3));
  EXPECT_FALSE(t.is_leaf(1));
  EXPECT_EQ(t.num_children(0), 2u);
  EXPECT_EQ(t.total_weight(), 5 + 3 + 4 + 2 + 7 + 1);
}

TEST(Tree, ChildrenAreSortedById) {
  const Tree t = sample_tree();
  const auto kids = t.children(1);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0], 3);
  EXPECT_EQ(kids[1], 4);
}

TEST(Tree, WbarIsMaxOfOutputAndChildrenSum) {
  const Tree t = sample_tree();
  EXPECT_EQ(t.child_weight_sum(1), 2 + 7);
  EXPECT_EQ(t.wbar(1), 9);   // children 9 > own 3
  EXPECT_EQ(t.wbar(2), 4);   // own 4 > child 1
  EXPECT_EQ(t.wbar(3), 2);   // leaf: own weight
  EXPECT_EQ(t.wbar(0), 7);   // children 3+4 = 7 > own 5
  EXPECT_EQ(t.min_feasible_memory(), 9);
}

TEST(Tree, PostorderVisitsChildrenFirst) {
  const Tree t = sample_tree();
  const auto order = t.postorder();
  ASSERT_EQ(order.size(), t.size());
  std::vector<std::size_t> pos(t.size());
  for (std::size_t k = 0; k < order.size(); ++k) pos[static_cast<std::size_t>(order[k])] = k;
  for (NodeId i = 0; i < static_cast<NodeId>(t.size()); ++i) {
    if (t.parent(i) != kNoNode) {
      EXPECT_LT(pos[static_cast<std::size_t>(i)], pos[static_cast<std::size_t>(t.parent(i))]);
    }
  }
  EXPECT_EQ(order.back(), t.root());
}

void recursive_postorder(const Tree& t, NodeId node, std::vector<NodeId>& out) {
  for (const NodeId c : t.children(node)) recursive_postorder(t, c, out);
  out.push_back(node);
}

/// `t` with its node ids shuffled, so that neither the id order nor the
/// stored child order follows the shape.
Tree relabelled(const Tree& t, util::Rng& rng) {
  std::vector<NodeId> new_id(t.size());
  std::iota(new_id.begin(), new_id.end(), NodeId{0});
  std::shuffle(new_id.begin(), new_id.end(), rng.engine());
  std::vector<NodeId> parent(t.size(), kNoNode);
  std::vector<Weight> weight(t.size());
  for (NodeId i = 0; i < static_cast<NodeId>(t.size()); ++i) {
    const auto k = static_cast<std::size_t>(new_id[static_cast<std::size_t>(i)]);
    if (t.parent(i) != kNoNode) parent[k] = new_id[static_cast<std::size_t>(t.parent(i))];
    weight[k] = t.weight(i);
  }
  return Tree::from_parents(std::move(parent), std::move(weight));
}

// The iterative walk must give exactly the recursive order (children in
// stored order), from the root and from every other subtree root.
TEST(Tree, PostorderMatchesRecursiveReference) {
  util::Rng rng(29);
  const std::vector<std::pair<std::string, Tree>> trees = {
      {"random binary", relabelled(test::small_random_tree(300, 50, rng), rng)},
      {"random wide", relabelled(test::small_random_wide_tree(300, 50, rng), rng)},
      {"chain", treegen::chain_tree(std::vector<Weight>(200, 1))},
      {"caterpillar", treegen::caterpillar_tree(40, 3, 1)},
      {"star", treegen::star_tree(60, 1, 1)},
  };
  for (const auto& [name, t] : trees) {
    for (NodeId r = 0; r < static_cast<NodeId>(t.size()); ++r) {
      std::vector<NodeId> expected;
      recursive_postorder(t, r, expected);
      ASSERT_EQ(t.postorder(r), expected) << name << ", subtree of node " << r;
    }
    EXPECT_EQ(t.postorder(), t.postorder(t.root())) << name;
  }
}

TEST(Tree, SubtreeExtraction) {
  const Tree t = sample_tree();
  std::vector<NodeId> old_ids;
  const Tree sub = t.subtree(1, &old_ids);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.weight(sub.root()), 3);
  // Weights of the original subtree nodes are preserved via the map.
  Weight total = 0;
  for (std::size_t k = 0; k < sub.size(); ++k) {
    EXPECT_EQ(sub.weight(static_cast<NodeId>(k)), t.weight(old_ids[k]));
    total += sub.weight(static_cast<NodeId>(k));
  }
  EXPECT_EQ(total, 3 + 2 + 7);
}

TEST(Tree, SubtreeSizeAndDepth) {
  const Tree t = sample_tree();
  EXPECT_EQ(t.subtree_size(0), 6u);
  EXPECT_EQ(t.subtree_size(1), 3u);
  EXPECT_EQ(t.subtree_size(3), 1u);
  EXPECT_EQ(t.depth(), 3u);
}

TEST(Tree, DeepChainDoesNotOverflowStack) {
  const std::size_t n = 200000;
  std::vector<NodeId> parent(n, kNoNode);
  for (std::size_t i = 1; i < n; ++i) parent[i] = static_cast<NodeId>(i - 1);
  const Tree chain = Tree::from_parents(std::move(parent), std::vector<Weight>(n, 1));
  EXPECT_EQ(chain.depth(), n);
  EXPECT_EQ(chain.postorder().size(), n);
}

TEST(Tree, RejectsMultipleRoots) {
  EXPECT_THROW(make_tree({{kNoNode, 1}, {kNoNode, 1}}), std::invalid_argument);
}

TEST(Tree, RejectsCycle) {
  // 0 -> 1 -> 0 cycle plus a root elsewhere.
  EXPECT_THROW(make_tree({{1, 1}, {0, 1}, {kNoNode, 1}}), std::invalid_argument);
}

TEST(Tree, RejectsSelfParentAndBadIndex) {
  EXPECT_THROW(make_tree({{0, 1}}), std::invalid_argument);
  EXPECT_THROW(make_tree({{kNoNode, 1}, {7, 1}}), std::invalid_argument);
}

TEST(Tree, RejectsNegativeWeight) {
  EXPECT_THROW(make_tree({{kNoNode, -2}}), std::invalid_argument);
}

TEST(Tree, RejectsEmpty) {
  EXPECT_THROW(Tree::from_parents({}, {}), std::invalid_argument);
}

TEST(Tree, SingleNode) {
  const Tree t = make_tree({{kNoNode, 42}});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.wbar(0), 42);
  EXPECT_TRUE(t.is_leaf(0));
}

TEST(Tree, IsHomogeneous) {
  EXPECT_TRUE(make_tree({{kNoNode, 1}, {0, 1}}).is_homogeneous());
  EXPECT_FALSE(sample_tree().is_homogeneous());
}

TEST(TreeIo, RoundTrip) {
  const Tree t = sample_tree();
  std::ostringstream out;
  core::write_tree(out, t);
  std::istringstream in(out.str());
  const Tree back = core::read_tree(in);
  ASSERT_EQ(back.size(), t.size());
  for (NodeId i = 0; i < static_cast<NodeId>(t.size()); ++i) {
    EXPECT_EQ(back.parent(i), t.parent(i));
    EXPECT_EQ(back.weight(i), t.weight(i));
  }
}

TEST(TreeIo, ParsesCommentsAndBlankLines) {
  std::istringstream in("# header\n\n-1 4\n0 2  # trailing comment\n0 3\n");
  const Tree t = core::read_tree(in);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.weight(1), 2);
}

TEST(TreeIo, RejectsGarbage) {
  std::istringstream missing_weight("-1\n");
  EXPECT_THROW(core::read_tree(missing_weight), std::runtime_error);
  std::istringstream empty("# nothing\n");
  EXPECT_THROW(core::read_tree(empty), std::runtime_error);
  std::istringstream cyclic("-1 1\n2 1\n1 1\n");
  EXPECT_THROW(core::read_tree(cyclic), std::runtime_error);
}

TEST(TreeIo, RejectsTrailingGarbageOnDataLines) {
  // A third token that is not a comment is a malformed line, not padding.
  std::istringstream extra("-1 4\n0 2 oops\n");
  EXPECT_THROW(core::read_tree(extra), std::runtime_error);
}

// Files written on Windows (CRLF), padded with trailing blanks, or missing
// the final newline must parse identically to their clean counterparts.
TEST(TreeIo, CrlfLineEndingsRoundTrip) {
  std::istringstream unix_file("#!model sum\n-1 4\n0 2\n0 3\n");
  const Tree clean = core::read_tree(unix_file);
  std::istringstream crlf("#!model sum\r\n-1 4\r\n0 2\r\n0 3\r\n");
  const Tree t = core::read_tree(crlf);
  EXPECT_EQ(t.memory_model(), core::MemoryModel::kSumInOut);
  EXPECT_EQ(t.canonical_hash(), clean.canonical_hash());
}

TEST(TreeIo, TrailingWhitespaceTolerated) {
  std::istringstream padded("-1 4 \t\n0 2\t\n0 3  \n");
  const Tree t = core::read_tree(padded);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.weight(2), 3);
}

TEST(TreeIo, FinalLineWithoutNewline) {
  std::istringstream clean("-1 4\n0 2\n0 3\n");
  std::istringstream chopped("-1 4\n0 2\n0 3");
  EXPECT_EQ(core::read_tree(chopped).canonical_hash(),
            core::read_tree(clean).canonical_hash());

  // Same, CRLF flavor with a bare \r at EOF.
  std::istringstream crlf_chopped("-1 4\r\n0 2\r\n0 3\r");
  EXPECT_EQ(core::read_tree(crlf_chopped).size(), 3u);
}

TEST(TreeHash, IndependentOfConstructionRoute) {
  const Tree direct = make_tree({{-1, 4}, {0, 2}, {0, 3}, {2, 5}});
  const Tree rebuilt = Tree::from_parents({-1, 0, 0, 2}, {4, 2, 3, 5});
  EXPECT_EQ(direct.canonical_hash(), rebuilt.canonical_hash());

  // A serialization round-trip preserves the logical content exactly.
  std::ostringstream out;
  core::write_tree(out, direct);
  std::istringstream in(out.str());
  EXPECT_EQ(core::read_tree(in).canonical_hash(), direct.canonical_hash());

  // Converting the memory model there and back restores the hash too.
  const Tree sum = direct.with_memory_model(core::MemoryModel::kSumInOut);
  EXPECT_EQ(sum.with_memory_model(core::MemoryModel::kMaxInOut).canonical_hash(),
            direct.canonical_hash());
}

TEST(TreeHash, DistinguishesContentModelAndNumbering) {
  const Tree base = make_tree({{-1, 4}, {0, 2}, {0, 3}});
  const Tree reweighted = make_tree({{-1, 4}, {0, 2}, {0, 7}});
  EXPECT_NE(base.canonical_hash(), reweighted.canonical_hash());

  const Tree reshaped = make_tree({{-1, 4}, {0, 2}, {1, 3}});
  EXPECT_NE(base.canonical_hash(), reshaped.canonical_hash());

  EXPECT_NE(base.canonical_hash(),
            base.with_memory_model(core::MemoryModel::kSumInOut).canonical_hash());

  // Isomorphic but renumbered trees hash differently on purpose: cached
  // schedules and I/O functions are expressed in node ids.
  const Tree renumbered = make_tree({{-1, 4}, {0, 3}, {0, 2}});
  EXPECT_NE(base.canonical_hash(), renumbered.canonical_hash());
}

}  // namespace
}  // namespace ooctree
