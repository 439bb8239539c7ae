// ReadySet (src/parallel/ready_set.hpp) against a brute-force ordered map
// from rank to frames: seeded random insert/erase sequences, the bulk
// build, and every query — contains, first_fit with its passed count, kth
// and next — from every rank, on sizes that are and are not powers of two.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "src/parallel/ready_set.hpp"
#include "src/util/rng.hpp"

namespace ooctree {
namespace {

using core::Weight;
using parallel::ReadySet;
using Brute = std::map<std::size_t, Weight>;

struct Fit {
  std::size_t rank;
  std::int64_t passed;
};

Fit brute_first_fit(const Brute& ready, std::size_t n, std::size_t from, Weight slack) {
  std::int64_t passed = 0;
  for (auto it = ready.lower_bound(from); it != ready.end(); ++it) {
    if (it->second <= slack) return {it->first, passed};
    ++passed;
  }
  return {n, passed};
}

std::size_t brute_kth(const Brute& ready, std::size_t n, std::size_t from, std::int64_t k) {
  auto it = ready.lower_bound(from);
  for (std::int64_t i = 1; i < k && it != ready.end(); ++i) ++it;
  return it == ready.end() ? n : it->first;
}

/// Every query of `set` from every rank (and past the end) against `ready`.
void expect_same(const ReadySet& set, const Brute& ready, std::size_t n, util::Rng& rng) {
  set.audit();
  for (std::size_t r = 0; r < n; ++r) ASSERT_EQ(set.contains(r), ready.count(r) == 1) << r;
  for (std::size_t from = 0; from <= n + 1; ++from) {
    const auto it = ready.lower_bound(from);
    ASSERT_EQ(set.next(from), it == ready.end() ? n : it->first) << "next " << from;
    for (const std::int64_t k : {std::int64_t{1}, std::int64_t{2}, std::int64_t{5}})
      ASSERT_EQ(set.kth(from, k), brute_kth(ready, n, from, k)) << "kth " << from << " " << k;
    const auto slack = static_cast<Weight>(rng.index(12));
    std::int64_t passed = -1;
    const std::size_t fit = set.first_fit(from, slack, passed);
    const Fit want = brute_first_fit(ready, n, from, slack);
    ASSERT_EQ(fit, want.rank) << "first_fit " << from << " slack " << slack;
    ASSERT_EQ(passed, want.passed) << "first_fit " << from << " slack " << slack;
  }
}

class ReadySetDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReadySetDifferential, MatchesOrderedMap) {
  const std::size_t n = GetParam();
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed * 1000 + n);
    // Bulk build from a random subset, at a density that varies by seed.
    ReadySet set(n);
    Brute ready;
    for (std::size_t r = 0; r < n; ++r) {
      if (rng.index(4) < seed) {
        const auto frames = static_cast<Weight>(rng.index(10));
        set.place(r, frames);
        ready[r] = frames;
      }
    }
    set.build();
    expect_same(set, ready, n, rng);
    // Random single-rank updates, checked after each batch.
    for (int batch = 0; batch < 8; ++batch) {
      for (std::size_t op = 0; op < 1 + n / 4; ++op) {
        const std::size_t r = rng.index(n);
        if (ready.count(r) == 1) {
          set.erase(r);
          ready.erase(r);
        } else {
          const auto frames = static_cast<Weight>(rng.index(10));
          set.insert(r, frames);
          ready[r] = frames;
        }
      }
      expect_same(set, ready, n, rng);
    }
    // Drain in rank order, as completed starts do.
    while (!ready.empty()) {
      const std::size_t r = set.next(0);
      ASSERT_EQ(r, ready.begin()->first);
      set.erase(r);
      ready.erase(ready.begin());
    }
    expect_same(set, ready, n, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReadySetDifferential,
                         ::testing::Values(1, 2, 3, 63, 64, 65, 100, 128, 129, 257, 1000, 1024),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

TEST(ReadySet, EmptyBuildAnswersNothing) {
  ReadySet set(70);
  set.build();
  std::int64_t passed = -1;
  EXPECT_EQ(set.first_fit(0, 100, passed), 70u);
  EXPECT_EQ(passed, 0);
  EXPECT_EQ(set.kth(0, 1), 70u);
  EXPECT_EQ(set.next(0), 70u);
  EXPECT_EQ(set.next(69), 70u);
  set.audit();
}

}  // namespace
}  // namespace ooctree
