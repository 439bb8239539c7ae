// Tests for the Furthest-in-the-Future eviction simulator (Theorem 1),
// and the differential against the std::set oracle
// (tests/oracles/fif_reference.hpp).
#include <gtest/gtest.h>

#include <iterator>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "src/core/brute_force.hpp"
#include "src/core/fif_simulator.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/rank_set.hpp"
#include "test_support.hpp"
#include "tests/oracles/fif_reference.hpp"

namespace ooctree {
namespace {

using core::kNoNode;
using core::make_tree;
using core::Schedule;
using core::simulate_fif;
using core::Tree;
using core::Weight;

TEST(Fif, NoIoWhenMemoryIsAmple) {
  const Tree t = make_tree({{kNoNode, 2}, {0, 3}, {1, 4}});
  const core::FifResult r = simulate_fif(t, {2, 1, 0}, 100);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.io_volume, 0);
  EXPECT_EQ(r.peak_resident, 4);
}

TEST(Fif, IoIsZeroIffPeakFits) {
  util::Rng rng(11);
  for (int rep = 0; rep < 40; ++rep) {
    const Tree t = test::small_random_tree(8, 9, rng);
    const Schedule order = t.postorder();
    const Weight peak = core::peak_memory(t, order);
    EXPECT_EQ(simulate_fif(t, order, peak).io_volume, 0);
    if (peak > t.min_feasible_memory()) {
      EXPECT_GT(simulate_fif(t, order, peak - 1).io_volume, 0);
    }
  }
}

TEST(Fif, InfeasibleWhenWbarExceedsMemory) {
  const Tree t = make_tree({{kNoNode, 2}, {0, 3}, {1, 4}});
  EXPECT_FALSE(simulate_fif(t, {2, 1, 0}, 3).feasible);
  EXPECT_EQ(core::fif_io_volume(t, {2, 1, 0}, 3), -1);
}

TEST(Fif, RejectsNonTopologicalSchedule) {
  const Tree t = make_tree({{kNoNode, 2}, {0, 3}, {1, 4}});
  EXPECT_THROW((void)simulate_fif(t, {0, 1, 2}, 10), std::invalid_argument);
}

TEST(Fif, EvictsFurthestInFutureFirst) {
  // Root 0 with three chains; the schedule leaves data 1, 2, 3 active with
  // consumers at different times. A squeeze should evict the one whose
  // parent runs last.
  //   0(1) <- 1(4) , 2(4), 3(4); 1 <- 4(leaf 6); 2 <- 5(leaf 6); 3 <- 6(leaf 6)
  const Tree t = make_tree(
      {{kNoNode, 1}, {0, 4}, {0, 4}, {0, 4}, {1, 6}, {2, 6}, {3, 6}});
  // Schedule: 4,1 (chain A), 5,2 (chain B), 6,3 (chain C), 0.
  // M = 12: executing 5 needs active {1:4} + 6 = 10 fits; executing 6 needs
  // {1:4, 2:4} + 6 = 14 -> evict 2 units. Victim must be the child of the
  // latest-scheduled parent among active {1 (parent 0), 2 (parent 0)} — both
  // consumed by the root, tie broken by id, so node 2 loses 2 units.
  const core::FifResult r = simulate_fif(t, {4, 1, 5, 2, 6, 3, 0}, 12);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.io_volume, 2);
  EXPECT_EQ(r.io[2], 2);
  EXPECT_EQ(r.io[1], 0);
}

TEST(Fif, EvictionSkipsChildrenOfCurrentNode) {
  // Node 1's datum must not be evicted while node 0 (its parent) runs.
  //   0(1) <- 1(5), 2(5); 2 <- 3(leaf 9)
  const Tree t = make_tree({{kNoNode, 1}, {0, 5}, {0, 5}, {2, 9}});
  // Schedule 1, 3, 2, 0 with M = 14: executing 3 has active {1:5}: 5+9=14 ok;
  // 2: active {1:5} + wbar(2)=9 -> 14 ok; 0: children 1,2 pinned: wbar=10 ok.
  const core::FifResult r = simulate_fif(t, {1, 3, 2, 0}, 14);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.io_volume, 0);
}

TEST(Fif, PartialEvictionAmounts) {
  //   0(1) <- 1(10), 2(3); 2 <- 3(leaf 8)
  const Tree t = make_tree({{kNoNode, 1}, {0, 10}, {0, 3}, {2, 8}});
  // Schedule 1, 3, 2, 0; M = 13. Executing 3: active {1:10} + 8 = 18 ->
  // evict 5 of node 1 (partial). Executing 2: active {1:5} + wbar(2)=8 = 13
  // fits. Root: children 10+3 pinned -> wbar 13 fits (1 read back).
  const core::FifResult r = simulate_fif(t, {1, 3, 2, 0}, 13);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.io[1], 5);
  EXPECT_EQ(r.io_volume, 5);
}

TEST(Fif, ReturnsValidTraversal) {
  util::Rng rng(23);
  for (int rep = 0; rep < 60; ++rep) {
    const Tree t = test::small_random_tree(9, 12, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight peak = core::peak_memory(t, t.postorder());
    for (const Weight m : {lb, (lb + peak) / 2, peak}) {
      (void)test::checked_fif_io(t, t.postorder(), m);
    }
  }
}

TEST(Fif, IoMonotoneInMemory) {
  util::Rng rng(31);
  for (int rep = 0; rep < 30; ++rep) {
    const Tree t = test::small_random_wide_tree(10, 8, rng);
    const Schedule order = t.postorder();
    const Weight lb = t.min_feasible_memory();
    Weight previous = std::numeric_limits<Weight>::max();
    for (Weight m = lb; m <= lb + 20; ++m) {
      const Weight io = simulate_fif(t, order, m).io_volume;
      EXPECT_LE(io, previous) << "more memory must not increase FiF I/O";
      previous = io;
    }
  }
}

TEST(Fif, FifBeatsOrMatchesAnyValidIoFunction) {
  // Theorem 1: FiF is optimal for a fixed schedule. Cross-check against the
  // exhaustively best tau on small instances by trying all topological
  // orders: for each order, no valid traversal can use less I/O than FiF.
  util::Rng rng(47);
  for (int rep = 0; rep < 10; ++rep) {
    const Tree t = test::small_random_tree(6, 6, rng);
    const Weight lb = t.min_feasible_memory();
    const Weight m = lb + 2;
    core::for_each_topological_order(t, [&](const Schedule& s) {
      const core::FifResult fif = simulate_fif(t, s, m);
      ASSERT_TRUE(fif.feasible);
      // Any tau that writes less than FiF somewhere must be invalid:
      // validate the FiF tau and a family of reductions of it.
      test::expect_valid_traversal(t, s, fif.io, m);
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (fif.io[i] > 0) {
          core::IoFunction reduced = fif.io;
          reduced[i] -= 1;
          EXPECT_TRUE(core::validate_traversal(t, s, reduced, m).has_value())
              << "reducing FiF tau stayed valid: FiF was not minimal";
        }
      }
    });
  }
}

TEST(Fif, PeakResidentNeverExceedsMemory) {
  util::Rng rng(59);
  for (int rep = 0; rep < 30; ++rep) {
    const Tree t = test::small_random_wide_tree(12, 10, rng);
    const Weight m = t.min_feasible_memory() + 3;
    const core::FifResult r = simulate_fif(t, t.postorder(), m);
    ASSERT_TRUE(r.feasible);
    EXPECT_LE(r.peak_resident, m);
  }
}

// --- The active set over dense ranks ---------------------------------------

// Random inserts, erases (present or not) and max queries against a
// std::set, at sizes on both sides of each level boundary (64, 64^2, 64^3),
// reusing one RankSet across resets that shrink and grow it.
TEST(RankSet, MatchesOrderedSet) {
  util::Rng rng(67);
  core::RankSet set;
  for (const std::size_t n : {1, 2, 63, 64, 65, 4096, 4097, 300, 262144, 262145, 5000}) {
    set.reset(n);
    std::set<std::size_t> want;
    EXPECT_EQ(set.max(), core::RankSet::npos) << "n=" << n;
    for (int op = 0; op < 20000; ++op) {
      const std::size_t r = rng.index(n);
      if (rng.index(3) != 0) {
        set.insert(r);
        want.insert(r);
      } else {
        set.erase(r);
        want.erase(r);
      }
      const std::size_t top = want.empty() ? core::RankSet::npos : *want.rbegin();
      ASSERT_EQ(set.max(), top) << "n=" << n << " op=" << op;
    }
    while (!want.empty()) {  // drain from the top, as FiF evicts
      ASSERT_EQ(set.max(), *want.rbegin()) << "n=" << n;
      set.erase(*want.rbegin());
      want.erase(std::prev(want.end()));
    }
    EXPECT_EQ(set.max(), core::RankSet::npos) << "n=" << n;
  }
}

// --- Differential against the std::set oracle ----------------------------

enum class Shape { kSynth, kSynthEqual, kCaterpillar, kCaterpillarEqual, kSpider,
                   kRecursive, kRecursiveEqual, kRecursiveZero, kStar, kBroom };

/// Roughly n nodes of the given shape. The "Equal" variants give every node
/// weight 1, so siblings tie on size and many active data share a parent
/// step; "Zero" draws weights from [0, 3], so some outputs are empty. Star
/// and Broom (test::broom_tree) hang up to n/2 two-node legs under one hub,
/// so thousands of active siblings share one parent step at n = 5000.
Tree make_shape(Shape shape, std::size_t n, util::Rng& rng) {
  switch (shape) {
    case Shape::kStar:
      return test::broom_tree(0, (n - 1) / 2, 100, rng);
    case Shape::kBroom:
      return test::broom_tree(n / 4, (n - 1 - n / 4) / 2, 100, rng);
    case Shape::kSynth:
      return treegen::synth_instance(n, 1, 100, rng);
    case Shape::kSynthEqual:
      return treegen::with_constant_weights(treegen::uniform_binary_tree(n, rng), 1);
    case Shape::kCaterpillar:
      return treegen::with_uniform_weights(treegen::caterpillar_tree((n + 3) / 4, 3, 1), 1, 100,
                                           rng);
    case Shape::kCaterpillarEqual:
      return treegen::caterpillar_tree((n + 3) / 4, 3, 1);
    case Shape::kSpider: {
      const std::size_t legs = n < 8 ? 1 + n / 3 : 12;
      const std::size_t leg_len = n > legs ? (n - 1) / legs : 1;
      return treegen::with_uniform_weights(treegen::spider_tree(legs, leg_len, 1), 1, 100, rng);
    }
    case Shape::kRecursive:
      return treegen::with_uniform_weights(treegen::random_recursive_tree(n, rng), 1, 100, rng);
    case Shape::kRecursiveEqual:
      return treegen::random_recursive_tree(n, rng);
    case Shape::kRecursiveZero:
      return treegen::with_uniform_weights(treegen::random_recursive_tree(n, rng), 0, 3, rng);
  }
  return treegen::random_recursive_tree(1, rng);
}

/// A uniformly drawn ready task at every step: a topological order that is
/// neither a postorder nor OptMinMem's.
Schedule random_topological_order(const Tree& t, util::Rng& rng) {
  std::vector<std::size_t> waiting(t.size());
  Schedule ready;
  for (std::size_t i = 0; i < t.size(); ++i) {
    waiting[i] = t.num_children(static_cast<core::NodeId>(i));
    if (waiting[i] == 0) ready.push_back(static_cast<core::NodeId>(i));
  }
  Schedule order;
  while (!ready.empty()) {
    const std::size_t k = rng.index(ready.size());
    const core::NodeId node = ready[k];
    ready[k] = ready.back();
    ready.pop_back();
    order.push_back(node);
    const core::NodeId p = t.parent(node);
    if (p != kNoNode && --waiting[static_cast<std::size_t>(p)] == 0) ready.push_back(p);
  }
  return order;
}

void expect_same_fif(const core::FifResult& got, const core::FifResult& want,
                     const std::string& label) {
  EXPECT_EQ(got.feasible, want.feasible) << label;
  EXPECT_EQ(got.io, want.io) << label;
  EXPECT_EQ(got.io_volume, want.io_volume) << label;
  EXPECT_EQ(got.peak_resident, want.peak_resident) << label;
  EXPECT_EQ(got.evictions, want.evictions) << label;
}

class FifDifferential : public ::testing::TestWithParam<Shape> {};

// Every FifResult field, under both memory models, for three schedules per
// tree (OptMinMem's, the postorder, a random topological order) at bounds
// from one below LB (infeasible: the partial result must match too) up to
// the schedule's in-core peak. At n = 5000 ranks pass 64^2, so the
// bitset's second summary level is used; that size runs one seed.
TEST_P(FifDifferential, MatchesSetReference) {
  for (const std::size_t n : {1, 2, 7, 60, 400, 5000}) {
    for (std::uint64_t seed = 1; seed <= (n < 5000 ? 3 : 1); ++seed) {
      util::Rng rng(seed * 1000 + n);
      const Tree shape = make_shape(GetParam(), n, rng);
      for (const core::MemoryModel model :
           {core::MemoryModel::kMaxInOut, core::MemoryModel::kSumInOut}) {
        const Tree t = shape.with_memory_model(model);
        const std::vector<Schedule> schedules = {core::opt_minmem(t).schedule, t.postorder(),
                                                 random_topological_order(t, rng)};
        for (std::size_t k = 0; k < schedules.size(); ++k) {
          const Schedule& schedule = schedules[k];
          const Weight lb = t.min_feasible_memory();
          const Weight peak = core::peak_memory(t, schedule);
          std::vector<Weight> bounds = {lb - 1, peak};
          for (int step = 0; step < 8; ++step) bounds.push_back(lb + (peak - lb) * step / 8);
          for (const Weight m : bounds) {
            if (m < 0) continue;
            const std::string label = "n=" + std::to_string(n) + " seed=" +
                                      std::to_string(seed) + " model=" +
                                      std::to_string(static_cast<int>(model)) + " schedule=" +
                                      std::to_string(k) + " M=" + std::to_string(m);
            expect_same_fif(simulate_fif(t, schedule, m),
                            core::oracle::fif_reference(t, schedule, m), label);
          }
        }
      }
    }
  }
}

const char* shape_label(Shape shape) {
  switch (shape) {
    case Shape::kSynth: return "Synth";
    case Shape::kSynthEqual: return "SynthEqual";
    case Shape::kCaterpillar: return "Caterpillar";
    case Shape::kCaterpillarEqual: return "CaterpillarEqual";
    case Shape::kSpider: return "Spider";
    case Shape::kRecursive: return "Recursive";
    case Shape::kRecursiveEqual: return "RecursiveEqual";
    case Shape::kRecursiveZero: return "RecursiveZero";
    case Shape::kStar: return "Star";
    case Shape::kBroom: return "Broom";
  }
  return "Unknown";
}

void PrintTo(Shape shape, std::ostream* os) { *os << shape_label(shape); }

std::string shape_name(const ::testing::TestParamInfo<Shape>& info) {
  return shape_label(info.param);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FifDifferential,
                         ::testing::Values(Shape::kSynth, Shape::kSynthEqual, Shape::kCaterpillar,
                                           Shape::kCaterpillarEqual, Shape::kSpider,
                                           Shape::kRecursive, Shape::kRecursiveEqual,
                                           Shape::kRecursiveZero, Shape::kStar, Shape::kBroom),
                         shape_name);

// Malformed schedules are rejected by both, before anything is simulated.
TEST(FifDifferential, BothRejectMalformedSchedules) {
  const Tree t = make_tree({{kNoNode, 2}, {0, 3}, {1, 4}});
  for (const Schedule& bad : {Schedule{0, 1, 2}, Schedule{2, 2, 0}, Schedule{2, 1},
                              Schedule{2, 1, 0, 0}, Schedule{2, 7, 0}, Schedule{-1, 1, 0}}) {
    EXPECT_THROW((void)simulate_fif(t, bad, 10), std::invalid_argument);
    EXPECT_THROW((void)core::oracle::fif_reference(t, bad, 10), std::invalid_argument);
  }
}

}  // namespace
}  // namespace ooctree
