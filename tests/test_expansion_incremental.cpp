// Differential tests for the incremental expansion engine: the
// TreeBuilder-maintained tree, the in-place/batch ExpandedTree operations
// and the incremental rec_expand must be *bit-identical* to the reference
// implementations (Tree::from_parents rebuilds and the oracles of
// tests/oracles/rec_expand_reference.hpp) on every observable quantity — schedules, I/O
// volumes, expansion volumes, peaks — under both memory models.
#include <gtest/gtest.h>

#include <limits>

#include <vector>

#include "src/core/expansion.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/rec_expand.hpp"
#include "src/core/tree_builder.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/treegen/shapes.hpp"
#include "src/treegen/weights.hpp"
#include "test_support.hpp"
#include "tests/oracles/rec_expand_reference.hpp"

namespace ooctree {
namespace {

using core::ExpandedTree;
using core::IoFunction;
using core::kNoNode;
using core::MemoryModel;
using core::NodeId;
using core::RecExpandOptions;
using core::RecExpandResult;
using core::Tree;
using core::TreeBuilder;
using core::Weight;

/// Asserts that two trees are indistinguishable through the whole public
/// Tree interface (structure, derived quantities, aggregates).
void expect_same_tree(const Tree& a, const Tree& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.root(), b.root());
  EXPECT_EQ(a.memory_model(), b.memory_model());
  EXPECT_EQ(a.total_weight(), b.total_weight());
  EXPECT_EQ(a.min_feasible_memory(), b.min_feasible_memory());
  for (std::size_t k = 0; k < a.size(); ++k) {
    const auto i = static_cast<NodeId>(k);
    EXPECT_EQ(a.parent(i), b.parent(i)) << "node " << k;
    EXPECT_EQ(a.weight(i), b.weight(i)) << "node " << k;
    EXPECT_EQ(a.child_weight_sum(i), b.child_weight_sum(i)) << "node " << k;
    EXPECT_EQ(a.wbar(i), b.wbar(i)) << "node " << k;
    const auto ca = a.children(i);
    const auto cb = b.children(i);
    ASSERT_EQ(ca.size(), cb.size()) << "node " << k;
    for (std::size_t j = 0; j < ca.size(); ++j) EXPECT_EQ(ca[j], cb[j]) << "node " << k;
  }
  EXPECT_EQ(a.postorder(), b.postorder());
}

void expect_same_expanded(const ExpandedTree& a, const ExpandedTree& b) {
  expect_same_tree(a.tree, b.tree);
  EXPECT_EQ(a.origin, b.origin);
  ASSERT_EQ(a.role.size(), b.role.size());
  for (std::size_t k = 0; k < a.role.size(); ++k) EXPECT_EQ(a.role[k], b.role[k]) << "node " << k;
  EXPECT_EQ(a.expansion_volume, b.expansion_volume);
}

Tree with_model(const Tree& t, MemoryModel model) {
  return t.memory_model() == model ? t : t.with_memory_model(model);
}

TEST(TreeBuilder, MatchesFromParentsRebuildOverRandomExpansionSequences) {
  util::Rng rng(1201);
  for (int rep = 0; rep < 20; ++rep) {
    const MemoryModel model =
        rep % 2 == 0 ? MemoryModel::kMaxInOut : MemoryModel::kSumInOut;
    Tree seed = with_model(test::small_random_tree(14, 12, rng), model);
    TreeBuilder builder(seed);
    std::vector<NodeId> parent(seed.size());
    std::vector<Weight> weight(seed.size());
    for (std::size_t k = 0; k < seed.size(); ++k) {
      parent[k] = seed.parent(static_cast<NodeId>(k));
      weight[k] = seed.weight(static_cast<NodeId>(k));
    }
    for (int step = 0; step < 25; ++step) {
      const auto i = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(parent.size()) - 1));
      const Weight w = weight[static_cast<std::size_t>(i)];
      const Weight tau = rng.uniform_int(0, w);
      const auto [i2, i3] = builder.expand(i, tau);
      EXPECT_EQ(static_cast<std::size_t>(i2), parent.size());
      EXPECT_EQ(static_cast<std::size_t>(i3), parent.size() + 1);
      // Mirror the expansion on raw arrays and rebuild from scratch.
      parent.push_back(i3);
      parent.push_back(parent[static_cast<std::size_t>(i)]);
      parent[static_cast<std::size_t>(i)] = i2;
      weight.push_back(w - tau);
      weight.push_back(w);
      const Tree rebuilt = Tree::from_parents(parent, weight, model);
      expect_same_tree(builder.tree(), rebuilt);
    }
  }
}

TEST(TreeBuilder, ExpandingTheRootRerootsTheTree) {
  const Tree t = core::make_tree({{kNoNode, 4}, {0, 2}, {0, 3}});
  TreeBuilder builder(t);
  const auto [i2, i3] = builder.expand(t.root(), 4);
  EXPECT_EQ(builder.tree().root(), i3);
  EXPECT_EQ(builder.tree().parent(i3), kNoNode);
  EXPECT_EQ(builder.tree().parent(i2), i3);
  EXPECT_EQ(builder.tree().parent(0), i2);
  EXPECT_EQ(builder.tree().weight(i2), 0);
  EXPECT_EQ(builder.tree().weight(i3), 4);
}

TEST(TreeBuilder, RejectsBadArguments) {
  TreeBuilder builder(core::make_tree({{kNoNode, 2}, {0, 5}}));
  EXPECT_THROW((void)builder.expand(7, 1), std::invalid_argument);
  EXPECT_THROW((void)builder.expand(1, -1), std::invalid_argument);
  EXPECT_THROW((void)builder.expand(1, 6), std::invalid_argument);
}

TEST(ExpansionIncremental, ExpandMatchesRebuildReference) {
  util::Rng rng(1213);
  for (int rep = 0; rep < 15; ++rep) {
    const Tree t = rep % 2 == 0 ? test::small_random_tree(12, 10, rng)
                                : test::small_random_wide_tree(12, 10, rng);
    ExpandedTree fast = ExpandedTree::identity(t);
    ExpandedTree slow = ExpandedTree::identity(t);
    for (int step = 0; step < 10; ++step) {
      const auto i = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(fast.tree.size()) - 1));
      const Weight tau = rng.uniform_int(0, fast.tree.weight(i));
      fast = fast.expand(i, tau);
      slow = core::oracle::expand_rebuild(slow, i, tau);
      expect_same_expanded(fast, slow);
    }
  }
}

TEST(ExpansionIncremental, BatchExpandMatchesSequentialExpansion) {
  util::Rng rng(1217);
  for (int rep = 0; rep < 15; ++rep) {
    const Tree t = test::small_random_tree(13, 9, rng);
    IoFunction io(t.size(), 0);
    for (std::size_t k = 0; k < t.size(); ++k) {
      // Mix zero and positive taus; rep 0 gives *every* node tau > 0
      // (weights from small_random_tree are always >= 1).
      const Weight w = t.weight(static_cast<NodeId>(k));
      io[k] = (rep == 0) ? 1 : rng.uniform_int(0, w);
    }
    ExpandedTree batch = ExpandedTree::identity(t);
    batch.expand_all(io);
    ExpandedTree sequential = ExpandedTree::identity(t);
    for (std::size_t k = 0; k < t.size(); ++k)
      if (io[k] > 0)
        sequential = core::oracle::expand_rebuild(sequential, static_cast<NodeId>(k), io[k]);
    expect_same_expanded(batch, sequential);
  }
}

TEST(ExpansionIncremental, InPlaceOperationsAreExceptionSafe) {
  // A failed in-place expansion must leave the ExpandedTree untouched (the
  // tree is moved into the TreeBuilder, so validation has to happen first).
  const Tree t = core::make_tree({{kNoNode, 2}, {0, 5}, {1, 3}});
  ExpandedTree e = ExpandedTree::identity(t);
  EXPECT_THROW((void)e.expand_in_place(9, 1), std::invalid_argument);
  EXPECT_THROW((void)e.expand_in_place(1, -1), std::invalid_argument);
  EXPECT_THROW((void)e.expand_in_place(1, 6), std::invalid_argument);
  IoFunction bad(t.size(), 0);
  bad[2] = 4;  // > weight(2) == 3
  EXPECT_THROW(e.expand_all(bad), std::invalid_argument);
  expect_same_expanded(e, ExpandedTree::identity(t));
  e.expand_in_place(1, 2);  // still fully usable afterwards
  EXPECT_EQ(e.tree.size(), t.size() + 2);
}

TEST(ExpansionIncremental, ScheduleFromIoOnAllPositiveTau) {
  // The satellite case for the batch API: a tree where *every* node
  // (including the root) carries tau > 0, so schedule_from_io expands all
  // of them in one batch. The resulting schedule must be a valid traversal
  // within the I/O budget it was given.
  util::Rng rng(1223);
  for (int rep = 0; rep < 10; ++rep) {
    const Tree t = test::small_random_tree(11, 8, rng);
    IoFunction io(t.size(), 0);
    for (std::size_t k = 0; k < t.size(); ++k)
      io[k] = std::max<Weight>(1, t.weight(static_cast<NodeId>(k)) / 2);
    // With every datum partially spilled, the expanded tree's optimal peak
    // is at most the in-core peak; use that bound so a schedule must exist.
    const Weight memory = core::opt_minmem(t).peak;
    const auto sched = core::schedule_from_io(t, io, memory);
    ASSERT_TRUE(sched.has_value());
    EXPECT_TRUE(core::is_topological_order(t, *sched));
    const core::FifResult fif = core::simulate_fif(t, *sched, memory);
    ASSERT_TRUE(fif.feasible);
    Weight budget = 0;
    for (const Weight x : io) budget += x;
    EXPECT_LE(fif.io_volume, budget);
    test::expect_valid_traversal(t, *sched, fif.io, memory);
  }
}

void expect_same_rec_expand(const RecExpandResult& a, const RecExpandResult& b) {
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.evaluation.io_volume, b.evaluation.io_volume);
  EXPECT_EQ(a.evaluation.io, b.evaluation.io);
  EXPECT_EQ(a.evaluation.peak_resident, b.evaluation.peak_resident);
  EXPECT_EQ(a.expansion_volume, b.expansion_volume);
  EXPECT_EQ(a.expansions, b.expansions);
  EXPECT_EQ(a.final_peak, b.final_peak);
}

TEST(RecExpandIncremental, MatchesReferenceOnRandomTreesBothModels) {
  util::Rng rng(1229);
  for (int rep = 0; rep < 24; ++rep) {
    const std::size_t n = 20 + static_cast<std::size_t>(rng.uniform_int(0, 80));
    Tree t = rep % 3 == 2 ? test::small_random_wide_tree(n, 12, rng)
                          : test::small_random_tree(n, 12, rng);
    if (rep % 2 == 1) t = t.with_memory_model(MemoryModel::kSumInOut);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    if (peak <= lb) continue;
    for (const Weight m : {lb, lb + (peak - lb) / 10, (lb + peak) / 2}) {
      for (const bool full : {true, false}) {
        RecExpandOptions opts;
        if (!full) opts.max_expansions_per_node = 2;
        const RecExpandResult inc = core::rec_expand(t, m, opts);
        const RecExpandResult ref = core::oracle::rec_expand_reference(t, m, opts);
        expect_same_rec_expand(inc, ref);
      }
    }
  }
}

TEST(RecExpandIncremental, MatchesReferenceOnStructuredShapes) {
  util::Rng rng(1231);
  std::vector<Tree> shapes;
  {
    std::vector<Weight> w(40);
    for (auto& x : w) x = rng.uniform_int(1, 50);
    shapes.push_back(treegen::chain_tree(w));
  }
  shapes.push_back(
      treegen::with_uniform_weights(treegen::caterpillar_tree(15, 3, 1), 1, 30, rng));
  shapes.push_back(treegen::with_uniform_weights(treegen::star_tree(12, 1, 1), 1, 30, rng));
  shapes.push_back(
      treegen::with_uniform_weights(treegen::complete_kary_tree(2, 5, 1), 1, 30, rng));
  for (const Tree& t : shapes) {
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    for (const Weight m : {lb, (lb + peak) / 2}) {
      const RecExpandResult inc = core::full_rec_expand(t, m);
      const RecExpandResult ref = core::oracle::rec_expand_reference(t, m, RecExpandOptions{});
      expect_same_rec_expand(inc, ref);
    }
  }
}

TEST(RecExpandIncremental, MatchesReferenceUnderExpansionCaps) {
  util::Rng rng(1249);
  for (int rep = 0; rep < 8; ++rep) {
    const Tree t = test::small_random_tree(40, 15, rng);
    const Weight m = t.min_feasible_memory();
    RecExpandOptions opts;
    opts.max_expansions_per_node = 1 + static_cast<std::size_t>(rep % 3);
    opts.global_expansion_cap = 2 + static_cast<std::size_t>(rep % 5);
    expect_same_rec_expand(core::rec_expand(t, m, opts),
                           core::oracle::rec_expand_reference(t, m, opts));
  }
}

TEST(RecExpandIncremental, MatchesReferenceOnSynthInstances) {
  // Mid-sized SYNTH trees (the paper's dataset shape) at the paper's three
  // memory bounds — the configuration bench_recexpand_scaling tracks.
  util::Rng rng(20170208);
  for (int rep = 0; rep < 4; ++rep) {
    const Tree t = treegen::synth_instance(220, 1, 100, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    if (peak <= lb) continue;
    const Weight m11 = lb + (peak - lb) / 10;  // close to LB: many expansions
    for (const Weight m : {lb, m11, peak - 1}) {
      expect_same_rec_expand(core::full_rec_expand(t, m),
                             core::oracle::rec_expand_reference(t, m, RecExpandOptions{}));
      RecExpandOptions two;
      two.max_expansions_per_node = 2;
      expect_same_rec_expand(core::rec_expand(t, m, two),
                             core::oracle::rec_expand_reference(t, m, two));
    }
  }
}

// Equal and near-equal weights on high fan-in shapes: many active data
// share a consumer, so the FiF's tie-break between siblings and the
// victim rule's "first sibling on a tie" decide the expansions.
TEST(RecExpandIncremental, MatchesReferenceOnTiedSiblings) {
  util::Rng rng(1259);
  std::vector<Tree> shapes;
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t n = 30 + static_cast<std::size_t>(rng.uniform_int(0, 170));
    shapes.push_back(treegen::random_recursive_tree(n, rng));
    shapes.push_back(
        treegen::with_uniform_weights(treegen::random_recursive_tree(n, rng), 1, 3, rng));
  }
  shapes.push_back(treegen::caterpillar_tree(12, 4, 1));
  shapes.push_back(treegen::spider_tree(6, 5, 1));
  shapes.push_back(treegen::complete_kary_tree(3, 4, 1));
  shapes.push_back(treegen::with_uniform_weights(treegen::star_tree(10, 1, 1), 1, 2, rng));
  for (const Tree& shape : shapes) {
    for (const MemoryModel model : {MemoryModel::kMaxInOut, MemoryModel::kSumInOut}) {
      const Tree t = shape.with_memory_model(model);
      const Weight lb = t.min_feasible_memory();
      const Weight peak = core::opt_minmem(t).peak;
      for (Weight m = lb; m < peak; m += std::max<Weight>(1, (peak - lb) / 10)) {
        for (const std::size_t cap : {std::size_t{2}, std::numeric_limits<std::size_t>::max()}) {
          RecExpandOptions opts;
          opts.max_expansions_per_node = cap;
          expect_same_rec_expand(core::rec_expand(t, m, opts),
                                 core::oracle::rec_expand_reference(t, m, opts));
        }
      }
    }
  }
}

// A broom (a chain above a hub of two-node legs): hundreds of active
// siblings share the hub's step in the subtree FiF, so its rank order
// among them decides the victims.
TEST(RecExpandIncremental, MatchesReferenceOnBroom) {
  util::Rng rng(1277);
  const Tree shape = test::broom_tree(20, 150, 40, rng);
  for (const MemoryModel model : {MemoryModel::kMaxInOut, MemoryModel::kSumInOut}) {
    const Tree t = shape.with_memory_model(model);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::opt_minmem(t).peak;
    ASSERT_LT(lb, peak);
    for (Weight m = lb; m < peak; m += std::max<Weight>(1, (peak - lb) / 6)) {
      for (const std::size_t cap : {std::size_t{2}, std::numeric_limits<std::size_t>::max()}) {
        RecExpandOptions opts;
        opts.max_expansions_per_node = cap;
        const RecExpandResult inc = core::rec_expand(t, m, opts);
        EXPECT_GT(inc.expansions, 0U) << "M = " << m;
        expect_same_rec_expand(inc, core::oracle::rec_expand_reference(t, m, opts));
      }
    }
  }
}

}  // namespace
}  // namespace ooctree
