// Tests for Liu's optimal peak-memory traversal (OPTMINMEM) — the
// hill-valley segment algorithm. The key oracle is exhaustive search on
// small trees: every shape x weight combination must match the brute-force
// optimum exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/brute_force.hpp"
#include "src/core/homogeneous.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/minmem_postorder.hpp"
#include "src/treegen/paper_trees.hpp"
#include "test_support.hpp"

namespace ooctree {
namespace {

using core::kNoNode;
using core::make_tree;
using core::opt_minmem;
using core::peak_memory;
using core::Tree;
using core::Weight;

TEST(OptMinMem, PeakMatchesScheduleSimulation) {
  util::Rng rng(101);
  for (int rep = 0; rep < 60; ++rep) {
    const Tree t = test::small_random_tree(10, 12, rng);
    const auto r = opt_minmem(t);
    EXPECT_TRUE(core::is_topological_order(t, r.schedule));
    EXPECT_EQ(r.peak, peak_memory(t, r.schedule));
  }
}

TEST(OptMinMem, MatchesBruteForceOnRandomTrees) {
  util::Rng rng(103);
  for (int rep = 0; rep < 80; ++rep) {
    const Tree t = test::small_random_tree(8, 9, rng);
    const auto opt = opt_minmem(t);
    const auto bf = core::brute_force_min_peak(t);
    EXPECT_EQ(opt.peak, bf.objective) << t.to_string();
  }
}

TEST(OptMinMem, MatchesBruteForceOnWideTrees) {
  util::Rng rng(107);
  for (int rep = 0; rep < 60; ++rep) {
    const Tree t = test::small_random_wide_tree(8, 7, rng);
    EXPECT_EQ(opt_minmem(t).peak, core::brute_force_min_peak(t).objective) << t.to_string();
  }
}

TEST(OptMinMem, ExhaustiveOverAllShapesOfSize6) {
  // Every binary-tree shape with 6 nodes, three deterministic weight
  // patterns each: the optimal algorithm must equal brute force everywhere.
  const auto count = treegen::catalan_number(6);
  util::Rng rng(109);
  for (treegen::u128 rank = 0; rank < count; ++rank) {
    const Tree shape = treegen::unrank_binary_tree(6, rank);
    for (int wpat = 0; wpat < 3; ++wpat) {
      const Tree t = (wpat == 0)
                         ? shape
                         : treegen::with_uniform_weights(shape, 1, wpat == 1 ? 4 : 20, rng);
      EXPECT_EQ(opt_minmem(t).peak, core::brute_force_min_peak(t).objective);
    }
  }
}

TEST(OptMinMem, NeverWorseThanBestPostorder) {
  util::Rng rng(113);
  for (int rep = 0; rep < 50; ++rep) {
    const Tree t = test::small_random_tree(40, 30, rng);
    EXPECT_LE(opt_minmem(t).peak, core::postorder_minmem(t).peak);
  }
}

TEST(OptMinMem, StrictlyBeatsPostorderSomewhere) {
  // The classic example where interrupting a subtree helps (paper Sec. 2:
  // postorders are arbitrarily worse). Use Figure 2(b): optimal peak is 8,
  // while any postorder (chain after chain) pays 9.
  const auto inst = treegen::fig2b();
  EXPECT_EQ(opt_minmem(inst.tree).peak, 8);
  EXPECT_EQ(core::postorder_minmem(inst.tree).peak, 9);
}

TEST(OptMinMem, HomogeneousPeakEqualsLabel) {
  // Lemmas 1+2: on homogeneous trees the optimal peak is l(root).
  util::Rng rng(127);
  for (int rep = 0; rep < 40; ++rep) {
    const Tree shape = treegen::uniform_binary_tree_exact(12, rng);
    EXPECT_EQ(opt_minmem(shape).peak, core::homogeneous_min_peak(shape));
  }
}

TEST(OptMinMem, SegmentsAreNormalized) {
  util::Rng rng(131);
  for (int rep = 0; rep < 40; ++rep) {
    const Tree t = test::small_random_tree(20, 15, rng);
    const auto r = opt_minmem(t);
    ASSERT_FALSE(r.segments.empty());
    for (std::size_t s = 0; s + 1 < r.segments.size(); ++s) {
      EXPECT_GT(r.segments[s].first, r.segments[s + 1].first) << "hills must strictly decrease";
      EXPECT_LT(r.segments[s].second, r.segments[s + 1].second)
          << "valleys must strictly increase";
    }
    EXPECT_EQ(r.segments.front().first, r.peak);
    EXPECT_EQ(r.segments.back().second, t.weight(t.root()));
  }
}

TEST(OptMinMem, DeepChainNoStackOverflow) {
  std::vector<core::NodeId> parent(120000, kNoNode);
  std::vector<Weight> weight(parent.size());
  for (std::size_t i = 1; i < parent.size(); ++i) parent[i] = static_cast<core::NodeId>(i - 1);
  for (std::size_t i = 0; i < weight.size(); ++i) weight[i] = 1 + static_cast<Weight>(i % 17);
  const Tree chain = Tree::from_parents(std::move(parent), std::move(weight));
  const auto r = opt_minmem(chain);
  EXPECT_EQ(r.peak, peak_memory(chain, r.schedule));
  // A chain admits exactly one topological order, so the peak is forced.
  EXPECT_EQ(r.peak, peak_memory(chain, chain.postorder()));
}

TEST(OptMinMem, AllPeaksMatchPerSubtreeRuns) {
  util::Rng rng(137);
  const Tree t = test::small_random_tree(25, 10, rng);
  const auto peaks = core::opt_minmem_all_peaks(t);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto id = static_cast<core::NodeId>(i);
    std::vector<core::NodeId> old_ids;
    const Tree sub = t.subtree(id, &old_ids);
    EXPECT_EQ(peaks[i], opt_minmem(sub).peak) << "subtree rooted at " << id;
    if (t.parent(id) != kNoNode) {
      EXPECT_LE(peaks[i], peaks[static_cast<std::size_t>(t.parent(id))]) << "peak monotonicity";
    }
  }
}

TEST(OptMinMem, PeakOnlyVariantAgrees) {
  util::Rng rng(139);
  for (int rep = 0; rep < 20; ++rep) {
    const Tree t = test::small_random_wide_tree(30, 12, rng);
    EXPECT_EQ(core::opt_minmem_peak(t, t.root()), opt_minmem(t).peak);
  }
}

TEST(OptMinMem, SingleNodeAndStar) {
  EXPECT_EQ(opt_minmem(make_tree({{kNoNode, 4}})).peak, 4);
  // Star: root(1) with leaves 5, 6, 7: all leaves resident -> 18.
  const Tree star = make_tree({{kNoNode, 1}, {0, 5}, {0, 6}, {0, 7}});
  EXPECT_EQ(opt_minmem(star).peak, 18);
}

/// Compares the engine's cached state at every node with one-shot runs.
void expect_engine_matches(const core::IncrementalMinMem& engine, const Tree& t) {
  const auto peaks = core::opt_minmem_all_peaks(t);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto id = static_cast<core::NodeId>(i);
    ASSERT_TRUE(engine.has(id));
    EXPECT_EQ(engine.peak(id), peaks[i]) << "node " << id;
  }
  const core::OptMinMemResult expected = opt_minmem(t);
  const auto seq = engine.sequence(t.root());
  ASSERT_EQ(seq.size(), expected.segments.size());
  for (std::size_t k = 0; k < seq.size(); ++k) {
    EXPECT_EQ(seq[k].hill, expected.segments[k].first);
    EXPECT_EQ(seq[k].valley, expected.segments[k].second);
  }
  core::Schedule schedule;
  engine.extract_schedule(t.root(), schedule);
  EXPECT_EQ(schedule, expected.schedule);
}

TEST(IncrementalMinMem, RepeatedRecombinationStaysExact) {
  // Every round supersedes every node's slice, so garbage outgrows the live
  // pool and the engine compacts several times along the way.
  util::Rng rng(141);
  const Tree t = test::small_random_wide_tree(300, 40, rng);
  core::IncrementalMinMem engine;
  const std::vector<core::NodeId> order = t.postorder();
  for (const core::NodeId u : order) engine.combine(t, u);
  for (int round = 0; round < 6; ++round) {
    for (const core::NodeId u : order) engine.combine(t, u);
    expect_engine_matches(engine, t);
  }
}

TEST(IncrementalMinMem, ReleaseModeOutsideAPostorder) {
  // Children before parents but not in a postorder (deepest level first):
  // siblings' slices are not the pool's tail when their parent combines,
  // so release mode must fall back to appending.
  util::Rng rng(143);
  const Tree t = test::small_random_wide_tree(200, 40, rng);
  const auto idx = [](core::NodeId i) { return static_cast<std::size_t>(i); };
  std::vector<std::size_t> depth(t.size(), 0);
  std::vector<core::NodeId> order = t.postorder();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const core::NodeId p = t.parent(*it);
    if (p != kNoNode) depth[idx(*it)] = depth[idx(p)] + 1;
  }
  std::stable_sort(order.begin(), order.end(), [&](core::NodeId a, core::NodeId b) {
    return depth[idx(a)] > depth[idx(b)];
  });
  core::IncrementalMinMem engine;
  for (const core::NodeId u : order) engine.combine(t, u, /*release_children=*/true);
  const core::OptMinMemResult expected = opt_minmem(t);
  EXPECT_EQ(engine.peak(t.root()), expected.peak);
  core::Schedule schedule;
  engine.extract_schedule(t.root(), schedule);
  EXPECT_EQ(schedule, expected.schedule);
  for (const core::NodeId c : t.children(t.root())) EXPECT_FALSE(engine.has(c));
}

}  // namespace
}  // namespace ooctree
