// Tests of the service's content-addressed source cache
// (src/service/source_cache.hpp): every answer served through a cached
// shape must be identical() to one from a cache-less service, which parses
// every file afresh; the key must follow the bytes, never the path; failures
// must read exactly as the loaders' own; and the cached bytes must stay
// within the budget.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/tree_io.hpp"
#include "src/service/plan_service.hpp"
#include "src/service/source_cache.hpp"
#include "src/sparse/assembly_tree.hpp"
#include "src/sparse/generators.hpp"
#include "src/sparse/matrix_market.hpp"
#include "test_support.hpp"

namespace ooctree {
namespace {

using core::MemoryModel;
using service::PlanRequest;
using service::PlanResponse;
using service::PlanService;
using service::ServiceConfig;
using service::SourceCache;
using service::TreeSource;

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

/// A .tree file of a random `n`-node tree, written under `model`.
std::string write_random_tree(const std::string& name, std::size_t n, std::uint64_t seed,
                              MemoryModel model = MemoryModel::kMaxInOut) {
  util::Rng rng(seed);
  const std::string path = temp_path(name);
  core::save_tree(path, test::small_random_tree(n, 50, rng).with_memory_model(model));
  return path;
}

PlanRequest path_request(std::int64_t id, TreeSource source, const std::string& path,
                         MemoryModel model = MemoryModel::kMaxInOut, double memory_lb = 1.5,
                         core::Strategy strategy = core::Strategy::kRecExpand) {
  PlanRequest request;
  request.id = id;
  request.source = source;
  request.path = path;
  request.model = model;
  request.memory_lb = memory_lb;
  request.strategy = strategy;
  return request;
}

/// The answer of a cache-less service, which parses the file afresh.
PlanResponse fresh_answer(const PlanRequest& request) {
  PlanService fresh(ServiceConfig{.threads = 1, .cache_capacity = 0});
  return fresh.plan(request);
}

void expect_matches_fresh(const PlanResponse& got, const PlanRequest& request) {
  const PlanResponse expect = fresh_answer(request);
  ASSERT_TRUE(expect.stats->ok) << expect.stats->error;
  ASSERT_TRUE(got.stats->ok) << got.stats->error;
  EXPECT_TRUE(service::identical(*got.stats, *expect.stats))
      << request.path << " model " << static_cast<int>(request.model);
}

TEST(SourceKey, FollowsKindLengthAndEveryByte) {
  const service::SourceKey key = service::source_key(TreeSource::kTreeFile, "-1 5\n0 3\n");
  EXPECT_EQ(key, service::source_key(TreeSource::kTreeFile, "-1 5\n0 3\n"));
  EXPECT_EQ(key.length, 9u);
  EXPECT_NE(key, service::source_key(TreeSource::kMatrixMarket, "-1 5\n0 3\n"));
  EXPECT_NE(key, service::source_key(TreeSource::kTreeFile, "-1 5\n0 4\n"));
  EXPECT_NE(key, service::source_key(TreeSource::kTreeFile, "-1 5\n1 3\n"));
  // A zero byte past the end pads like the tail; the length tells them apart.
  const std::string padded("-1 5\n0 3\n\0", 10);
  EXPECT_NE(key, service::source_key(TreeSource::kTreeFile, padded));
  const service::SourceKey wide = service::source_key(TreeSource::kTreeFile, padded);
  EXPECT_NE(wide.digest_lo, key.digest_lo);
  EXPECT_NE(wide.digest_hi, key.digest_hi);
}

TEST(SourceCacheService, AnswersMatchACachelessServiceUnderBothModels) {
  util::Rng rng(11);
  const std::string grid = temp_path("source_cache_diff_grid.mtx");
  const std::string random = temp_path("source_cache_diff_random.mtx");
  sparse::save_matrix_market(grid, sparse::grid2d(7, 6));
  sparse::save_matrix_market(random, sparse::random_symmetric(60, 3.0, rng));
  const std::vector<std::pair<TreeSource, std::string>> files = {
      {TreeSource::kMatrixMarket, grid},
      {TreeSource::kMatrixMarket, random},
      {TreeSource::kTreeFile, write_random_tree("source_cache_diff_max.tree", 40, 3)},
      // Written under the sum model: the file's own model line must not
      // leak into the cached shape or into the answer under `max`.
      {TreeSource::kTreeFile,
       write_random_tree("source_cache_diff_sum.tree", 45, 4, MemoryModel::kSumInOut)},
  };

  PlanService planner(ServiceConfig{.threads = 1});
  std::int64_t id = 0;
  for (const auto& [source, path] : files) {
    // The shape is cached under `max` first, then served under `sum`.
    for (const MemoryModel model : {MemoryModel::kMaxInOut, MemoryModel::kSumInOut})
      for (const core::Strategy strategy : {core::Strategy::kRecExpand, core::Strategy::kOptMinMem})
        for (const double memory_lb : {1.0, 2.0}) {
          const PlanRequest request = path_request(++id, source, path, model, memory_lb, strategy);
          expect_matches_fresh(planner.plan(request), request);
        }
  }
  const service::ServiceStats stats = planner.stats();
  EXPECT_EQ(stats.source_misses, files.size());
  EXPECT_EQ(stats.source_hits, static_cast<std::uint64_t>(id) - files.size());
  EXPECT_GT(stats.source_bytes, 0u);
  EXPECT_EQ(stats.failed, 0u);
  planner.audit(/*quiescent=*/true);
}

TEST(SourceCacheService, IdenticalBytesAtTwoPathsShareOneEntry) {
  const std::string first = temp_path("source_cache_twin_a.mtx");
  const std::string second = temp_path("source_cache_twin_b.mtx");
  sparse::save_matrix_market(first, sparse::grid2d(5, 5));
  sparse::save_matrix_market(second, sparse::grid2d(5, 5));

  PlanService planner(ServiceConfig{.threads = 1});
  const PlanRequest a = path_request(1, TreeSource::kMatrixMarket, first);
  const PlanRequest b =
      path_request(2, TreeSource::kMatrixMarket, second, MemoryModel::kSumInOut, 1.2);
  const PlanResponse answer_a = planner.plan(a);
  const PlanResponse answer_b = planner.plan(b);
  expect_matches_fresh(answer_a, a);
  expect_matches_fresh(answer_b, b);
  const service::ServiceStats stats = planner.stats();
  EXPECT_EQ(stats.source_misses, 1u);
  EXPECT_EQ(stats.source_hits, 1u);
  EXPECT_EQ(stats.source_bytes,
            answer_a.stats->nodes * (sizeof(core::NodeId) + sizeof(core::Weight)));
}

TEST(SourceCacheService, FileRewrittenInPlaceMissesAndMatchesAFreshAnswer) {
  // Both rewrites keep the byte length, so only the content can tell the
  // two versions apart.
  const struct {
    TreeSource source;
    std::string name;
    std::string before;
    std::string after;
  } cases[] = {
      {TreeSource::kTreeFile, "source_cache_rewrite.tree", "-1 5\n0 3\n0 4\n1 2\n",
       "-1 5\n0 3\n0 7\n1 2\n"},
      {TreeSource::kMatrixMarket, "source_cache_rewrite.mtx",
       "%%MatrixMarket matrix coordinate pattern symmetric\n4 4 3\n2 1\n3 2\n4 3\n",
       "%%MatrixMarket matrix coordinate pattern symmetric\n4 4 3\n2 1\n3 1\n4 1\n"},
  };
  for (const auto& c : cases) {
    ASSERT_EQ(c.before.size(), c.after.size());
    const std::string path = temp_path(c.name);
    PlanService planner(ServiceConfig{.threads = 1});
    const PlanRequest request = path_request(1, c.source, path, MemoryModel::kMaxInOut, 1.0);
    write_file(path, c.before);
    const PlanResponse first = planner.plan(request);
    expect_matches_fresh(first, request);
    write_file(path, c.after);
    const PlanResponse second = planner.plan(request);
    expect_matches_fresh(second, request);
    EXPECT_NE(first.stats->tree_hash, second.stats->tree_hash) << c.name;
    EXPECT_EQ(planner.stats().source_misses, 2u) << c.name;
    EXPECT_EQ(planner.stats().source_hits, 0u) << c.name;
    // Writing the old bytes back finds the old shape again.
    write_file(path, c.before);
    EXPECT_TRUE(service::identical(*planner.plan(request).stats, *first.stats)) << c.name;
    EXPECT_EQ(planner.stats().source_hits, 1u) << c.name;
  }
}

/// What `load` throws, or "" when it succeeds.
template <class Load>
std::string loader_error(Load load) {
  try {
    (void)load();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(SourceCacheService, MissingAndMalformedFilesFailWithTheLoadersText) {
  const std::string missing_mtx = temp_path("source_cache_missing.mtx");
  const std::string missing_tree = temp_path("source_cache_missing.tree");
  std::remove(missing_mtx.c_str());
  std::remove(missing_tree.c_str());
  const std::string bad_field = temp_path("source_cache_bad_field.mtx");
  write_file(bad_field, "%%MatrixMarket matrix coordinate banana symmetric\n2 2 1\n2 1 3\n");
  const std::string long_body = temp_path("source_cache_long_body.mtx");
  write_file(long_body,
             "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2 1\n3 2\n3 1\n");
  const std::string bad_tree = temp_path("source_cache_bad.tree");
  write_file(bad_tree, "-1 5\n0 3 extra\n");
  const std::string cyclic_tree = temp_path("source_cache_cyclic.tree");
  write_file(cyclic_tree, "-1 5\n2 3\n1 4\n");

  // The text the service gave before it read files itself: the loaders'.
  const auto mtx_error = [](const std::string& path) {
    return loader_error([&] { return sparse::mtx_assembly_tree(sparse::load_matrix_market(path)); });
  };
  const auto tree_error = [](const std::string& path) {
    return loader_error([&] { return core::load_tree(path); });
  };
  const std::vector<std::pair<PlanRequest, std::string>> cases = {
      {path_request(1, TreeSource::kMatrixMarket, missing_mtx), mtx_error(missing_mtx)},
      {path_request(2, TreeSource::kTreeFile, missing_tree), tree_error(missing_tree)},
      {path_request(3, TreeSource::kMatrixMarket, bad_field), mtx_error(bad_field)},
      {path_request(4, TreeSource::kMatrixMarket, long_body), mtx_error(long_body)},
      {path_request(5, TreeSource::kTreeFile, bad_tree), tree_error(bad_tree)},
      {path_request(6, TreeSource::kTreeFile, cyclic_tree), tree_error(cyclic_tree)},
  };
  EXPECT_EQ(cases[0].second, "load_matrix_market: cannot open " + missing_mtx);
  EXPECT_EQ(cases[1].second, "load_tree: cannot open " + missing_tree);
  EXPECT_NE(cases[3].second.find("more entries than the size line declares"), std::string::npos)
      << cases[3].second;

  PlanService planner(ServiceConfig{.threads = 1});
  for (int round = 0; round < 2; ++round)  // failures are never cached
    for (const auto& [request, expect] : cases) {
      ASSERT_FALSE(expect.empty()) << request.path;
      const PlanResponse got = planner.plan(request);
      EXPECT_FALSE(got.stats->ok) << request.path;
      EXPECT_EQ(got.stats->error, expect) << request.path;
      EXPECT_EQ(fresh_answer(request).stats->error, expect) << request.path;
    }
  EXPECT_EQ(planner.stats().source_bytes, 0u);
  EXPECT_EQ(planner.stats().source_hits, 0u);
  planner.audit(/*quiescent=*/true);
}

TEST(SourceCacheService, FusedGroupsMaterializeThroughTheCache) {
  const std::string path = temp_path("source_cache_fused.mtx");
  sparse::save_matrix_market(path, sparse::grid2d(6, 6));
  std::vector<PlanRequest> batch;
  for (const double memory_lb : {1.0, 1.5, 2.0})
    batch.push_back(path_request(static_cast<std::int64_t>(batch.size()) + 1,
                                 TreeSource::kMatrixMarket, path, MemoryModel::kSumInOut,
                                 memory_lb, core::Strategy::kOptMinMem));
  PlanService planner(ServiceConfig{.threads = 1});
  for (int round = 0; round < 2; ++round) {
    const std::vector<PlanResponse> responses = planner.plan_fused(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) expect_matches_fresh(responses[i], batch[i]);
  }
  // One materialization per fused group: a miss, then a hit.
  EXPECT_EQ(planner.stats().source_misses, 1u);
  EXPECT_EQ(planner.stats().source_hits, 1u);
}

TEST(SourceCache, DistinctFilesStayWithinTheBudget) {
  constexpr std::size_t kNodes = 100;
  constexpr std::size_t kShapeBytes = kNodes * (sizeof(core::NodeId) + sizeof(core::Weight));
  constexpr std::size_t kBudget = 3 * kShapeBytes + kShapeBytes / 2;
  SourceCache cache(kBudget);
  std::vector<std::string> paths;
  for (std::uint64_t f = 0; f < 12; ++f) {
    paths.push_back(
        write_random_tree("source_cache_budget_" + std::to_string(f) + ".tree", kNodes, 100 + f));
    const core::Tree tree = cache.tree(TreeSource::kTreeFile, paths.back(), MemoryModel::kMaxInOut);
    EXPECT_EQ(tree.canonical_hash(), core::load_tree(paths.back()).canonical_hash());
    const service::SourceCounters counters = cache.counters();
    EXPECT_LE(counters.bytes, kBudget);
    EXPECT_EQ(counters.bytes, counters.entries * kShapeBytes);
    cache.audit();
  }
  EXPECT_EQ(cache.counters().entries, 3u);
  EXPECT_EQ(cache.counters().misses, 12u);
  // The three most recent shapes are held; the oldest is gone.
  (void)cache.tree(TreeSource::kTreeFile, paths[11], MemoryModel::kSumInOut);
  EXPECT_EQ(cache.counters().hits, 1u);
  (void)cache.tree(TreeSource::kTreeFile, paths[0], MemoryModel::kSumInOut);
  EXPECT_EQ(cache.counters().misses, 13u);

  // A shape larger than the whole budget is parsed but never stored.
  const std::string big = write_random_tree("source_cache_budget_big.tree", 4 * kNodes, 7);
  const std::size_t before = cache.counters().bytes;
  for (int round = 0; round < 2; ++round)
    (void)cache.tree(TreeSource::kTreeFile, big, MemoryModel::kMaxInOut);
  EXPECT_EQ(cache.counters().bytes, before);
  EXPECT_EQ(cache.counters().misses, 15u);
  cache.audit();
}

TEST(SourceCache, ZeroBudgetParsesEveryTimeAndCountsNothing) {
  const std::string path = write_random_tree("source_cache_zero_budget.tree", 30, 9);
  SourceCache cache(0);
  for (int round = 0; round < 2; ++round) {
    const core::Tree tree = cache.tree(TreeSource::kTreeFile, path, MemoryModel::kSumInOut);
    EXPECT_EQ(tree.canonical_hash(),
              core::load_tree(path).with_memory_model(MemoryModel::kSumInOut).canonical_hash());
  }
  const service::SourceCounters counters = cache.counters();
  EXPECT_EQ(counters.hits + counters.misses + counters.bytes + counters.entries, 0u);
  cache.audit();
}

}  // namespace
}  // namespace ooctree
