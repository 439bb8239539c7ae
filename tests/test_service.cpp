// Planning-service suite: cache identity (cached == computed, bit for
// bit), cross-source deduplication through Tree::canonical_hash, LRU
// eviction, deterministic per-request seeding regardless of thread count
// and submission order, request decoding (JSONL + CSV), failure responses,
// and the parallel-replay path against direct simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <sstream>

#include "src/core/snapshot.hpp"
#include "src/core/strategies.hpp"
#include "src/core/tree_io.hpp"
#include "src/parallel/parallel_sim.hpp"
#include "src/service/plan_service.hpp"
#include "src/service/request_io.hpp"
#include "src/sparse/assembly_tree.hpp"
#include "src/sparse/matrix_market.hpp"
#include "src/util/rng.hpp"
#include "tests/test_support.hpp"

namespace ooctree {
namespace {

using service::PlanRequest;
using service::PlanResponse;
using service::PlanService;
using service::Served;
using service::ServiceConfig;
using service::TreeSource;

/// A request carrying `tree` inline as parent/weight vectors.
PlanRequest parents_request(const core::Tree& tree, std::int64_t id, double memory_lb = 1.2) {
  PlanRequest request;
  request.id = id;
  request.source = TreeSource::kParents;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    request.parent.push_back(tree.parent(static_cast<core::NodeId>(i)));
    request.weight.push_back(tree.weight(static_cast<core::NodeId>(i)));
  }
  request.memory_lb = memory_lb;
  return request;
}

core::Tree test_tree(std::uint64_t seed, std::size_t n = 60) {
  util::Rng rng(seed);
  return test::small_random_tree(n, 50, rng);
}

TEST(PlanService, CachedResponseIsBitIdentical) {
  PlanService planner(ServiceConfig{.threads = 1});
  const PlanRequest request = parents_request(test_tree(1), 1);
  const PlanResponse first = planner.plan(request);
  const PlanResponse second = planner.plan(request);
  ASSERT_TRUE(first.stats->ok) << first.stats->error;
  EXPECT_EQ(first.served, Served::kComputed);
  EXPECT_EQ(second.served, Served::kCached);
  EXPECT_TRUE(service::identical(*first.stats, *second.stats));
  // Stronger than equality: cache hits share the leader's object.
  EXPECT_EQ(first.stats.get(), second.stats.get());
}

TEST(PlanService, CachedEqualsUncachedComputation) {
  const PlanRequest request = parents_request(test_tree(2), 5);
  PlanService cached(ServiceConfig{.threads = 1});
  PlanService uncached(ServiceConfig{.threads = 1, .cache_capacity = 0, .coalesce = false});
  (void)cached.plan(request);  // warm
  const PlanResponse hit = cached.plan(request);
  const PlanResponse raw = uncached.plan(request);
  EXPECT_EQ(hit.served, Served::kCached);
  EXPECT_EQ(raw.served, Served::kComputed);
  EXPECT_TRUE(service::identical(*hit.stats, *raw.stats));
}

TEST(PlanService, SynthFingerprintServesWithoutMaterializing) {
  PlanService planner(ServiceConfig{.threads = 1});
  PlanRequest request;
  request.id = 1;
  request.nodes = 80;
  request.seed = 42;  // explicit: duplicates share the spec
  request.memory_lb = 1.3;
  const PlanResponse first = planner.plan(request);
  request.id = 2;  // different id, same value-determined spec
  const PlanResponse second = planner.plan(request);
  ASSERT_TRUE(first.stats->ok);
  EXPECT_EQ(second.served, Served::kCached);
  EXPECT_EQ(first.stats.get(), second.stats.get());
  EXPECT_EQ(second.id, 2);  // per-request metadata still per-request
}

TEST(PlanService, DerivedStreamsMakeSeedZeroRequestsIndependent) {
  PlanService planner(ServiceConfig{.threads = 1});
  PlanRequest request;
  request.nodes = 80;
  request.seed = 0;  // derive from (service seed, id)
  request.id = 1;
  const PlanResponse a = planner.plan(request);
  request.id = 2;
  const PlanResponse b = planner.plan(request);
  ASSERT_TRUE(a.stats->ok && b.stats->ok);
  EXPECT_EQ(b.served, Served::kComputed);  // different stream, different tree
  EXPECT_NE(a.stats->tree_hash, b.stats->tree_hash);
}

TEST(PlanService, CrossSourceDeduplicationThroughCanonicalHash) {
  const core::Tree tree = test_tree(3);
  const std::string path = ::testing::TempDir() + "service_dedup.tree";
  core::save_tree(path, tree);

  PlanService planner(ServiceConfig{.threads = 1});
  const PlanResponse via_parents = planner.plan(parents_request(tree, 1));
  PlanRequest file_request;
  file_request.id = 2;
  file_request.source = TreeSource::kTreeFile;
  file_request.path = path;
  file_request.memory_lb = 1.2;  // same resolved bound as parents_request
  const PlanResponse via_file = planner.plan(file_request);
  ASSERT_TRUE(via_parents.stats->ok) << via_parents.stats->error;
  ASSERT_TRUE(via_file.stats->ok) << via_file.stats->error;
  // File sources cannot be fingerprinted, but the canonical tree hash
  // recognizes the identical instance and reuses the plan.
  EXPECT_EQ(via_file.served, Served::kCached);
  EXPECT_EQ(via_parents.stats.get(), via_file.stats.get());
}

TEST(PlanService, DeterministicAcrossThreadCountAndSubmissionOrder) {
  std::vector<PlanRequest> batch;
  for (int k = 0; k < 24; ++k) {
    PlanRequest request;
    request.id = k + 1;
    request.nodes = 50 + static_cast<std::size_t>(k % 5) * 10;
    request.seed = 0;  // derived stream: the determinism contract under test
    request.memory_lb = 1.1 + 0.1 * (k % 3);
    request.strategy =
        k % 2 == 0 ? core::Strategy::kRecExpand : core::Strategy::kPostOrderMinIo;
    batch.push_back(request);
  }

  PlanService serial(ServiceConfig{.threads = 1});
  std::vector<std::shared_ptr<const service::PlanStats>> expected(batch.size());
  for (const PlanRequest& request : batch)
    expected[static_cast<std::size_t>(request.id) - 1] = serial.plan(request).stats;

  std::vector<PlanRequest> shuffled = batch;
  std::mt19937_64 shuffle_rng(7);
  std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
  PlanService threaded(ServiceConfig{.threads = 8});
  auto futures = threaded.submit_batch(shuffled);
  for (std::size_t k = 0; k < shuffled.size(); ++k) {
    const PlanResponse response = futures[k].get();
    const auto& want = *expected[static_cast<std::size_t>(response.id) - 1];
    EXPECT_TRUE(service::identical(*response.stats, want))
        << "request id " << response.id << " diverged across scheduling";
  }
}

TEST(PlanService, DuplicateConcurrentRequestsComputeOnce) {
  PlanService planner(ServiceConfig{.threads = 4});
  PlanRequest request;
  request.nodes = 300;
  request.seed = 99;
  request.memory_lb = 1.1;
  std::vector<PlanRequest> batch;
  for (int k = 0; k < 12; ++k) {
    request.id = k + 1;
    batch.push_back(request);
  }
  auto futures = planner.submit_batch(batch);
  std::shared_ptr<const service::PlanStats> first;
  for (auto& future : futures) {
    const PlanResponse response = future.get();
    ASSERT_TRUE(response.stats->ok);
    if (first == nullptr) first = response.stats;
    EXPECT_EQ(response.stats.get(), first.get());  // one shared computation
  }
  const service::ServiceStats stats = planner.stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.cached + stats.coalesced, 11u);
}

TEST(PlanService, LruEvictsUnderTinyCapacity) {
  PlanService planner(ServiceConfig{.threads = 1, .cache_capacity = 1, .cache_shards = 1});
  const PlanRequest a = parents_request(test_tree(10), 1);
  const PlanRequest b = parents_request(test_tree(11), 2);
  (void)planner.plan(a);
  (void)planner.plan(b);  // evicts a (capacity 1)
  const PlanResponse again = planner.plan(a);
  EXPECT_EQ(again.served, Served::kComputed);
  EXPECT_GE(planner.stats().cache.evictions, 1u);
}

TEST(PlanService, AbsoluteBoundBelowLbFailsCleanly) {
  PlanService planner(ServiceConfig{.threads = 1});
  PlanRequest request = parents_request(test_tree(4), 1);
  request.memory = 1;  // below LB for any nontrivial tree
  const PlanResponse response = planner.plan(request);
  EXPECT_FALSE(response.stats->ok);
  EXPECT_NE(response.stats->error.find("below the feasibility bound"), std::string::npos);
  EXPECT_EQ(planner.stats().failed, 1u);
}

TEST(PlanService, UnrepresentableMemoryMultipleFails) {
  // LB * memory_lb at or beyond 2^63 has no int64 bound; converting it is
  // undefined and on x86 used to plan at the tightest bound LB instead.
  std::istringstream jsonl(R"({"id": 1, "nodes": 200, "seed": 5, "memory_lb": 1e300})"
                           "\n"
                           R"({"id": 3, "nodes": 200, "seed": 5, "memory_lb": 1e15})"
                           "\n");
  std::istringstream csv(
      "id,nodes,seed,memory_lb\n"
      "4,200,5,1e300\n"
      "5,200,5,1e15\n");
  std::vector<PlanRequest> requests = service::read_requests_jsonl(jsonl);
  for (PlanRequest& r : service::read_requests_csv(csv)) requests.push_back(std::move(r));
  // 1e400 overflows to infinity: the decoder refuses it, and a request
  // built in code with an infinite multiple still fails at serve time.
  EXPECT_THROW((void)service::request_from_json(
                   R"({"id": 2, "nodes": 200, "seed": 5, "memory_lb": 1e400})"),
               std::runtime_error);
  PlanRequest infinite = requests.front();
  infinite.id = 2;
  infinite.memory_lb = std::numeric_limits<double>::infinity();
  requests.insert(requests.begin() + 1, infinite);
  ASSERT_EQ(requests.size(), 5u);
  const auto representable = [](const PlanRequest& r) { return r.memory_lb < 1e16; };

  util::Rng rng(5);
  const core::Weight lb = treegen::synth_instance(200, 1, 100, rng).min_feasible_memory();
  const auto check = [&](const PlanRequest& request, const PlanResponse& response) {
    if (representable(request)) {
      ASSERT_TRUE(response.stats->ok) << response.stats->error;
      EXPECT_EQ(response.stats->lb, lb);
      EXPECT_EQ(response.stats->memory, static_cast<core::Weight>(static_cast<double>(lb) * 1e15));
    } else {
      EXPECT_FALSE(response.stats->ok) << "memory_lb " << request.memory_lb;
      EXPECT_NE(response.stats->error.find("beyond the int64 range"), std::string::npos);
    }
  };

  // The ordinary serve() path, one request at a time...
  PlanService single(ServiceConfig{.threads = 1});
  for (const PlanRequest& request : requests) check(request, single.plan(request));
  // ...and the fused path: all five share one tree, so they form one group.
  PlanService fused(ServiceConfig{.threads = 1});
  const std::vector<PlanResponse> responses = fused.plan_fused(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_NE(responses[i].served, Served::kComputed);
    check(requests[i], responses[i]);
  }
}

TEST(PlanService, MissingFileFailsAndIsNotCached) {
  PlanService planner(ServiceConfig{.threads = 1});
  PlanRequest request;
  request.id = 1;
  request.source = TreeSource::kTreeFile;
  request.path = ::testing::TempDir() + "no_such_instance.tree";
  EXPECT_FALSE(planner.plan(request).stats->ok);
  EXPECT_FALSE(planner.plan(request).stats->ok);
  EXPECT_EQ(planner.stats().computed, 2u);  // failures never populate the cache
  EXPECT_EQ(planner.stats().cached, 0u);
}

TEST(PlanService, ReplayMatchesDirectParallelSimulation) {
  const core::Tree tree = test_tree(5, 80);
  PlanRequest request = parents_request(tree, 1, 1.3);
  parallel::ParallelConfig pc;
  pc.workers = 3;
  pc.priority = parallel::Priority::kSequentialOrder;
  request.parallel = pc;

  PlanService planner(ServiceConfig{.threads = 1});
  const PlanResponse response = planner.plan(request);
  ASSERT_TRUE(response.stats->ok) << response.stats->error;
  ASSERT_TRUE(response.stats->replayed);

  const core::Weight memory = response.stats->memory;
  const auto direct_plan = core::run_strategy(core::Strategy::kRecExpand, tree, memory);
  pc.memory = memory;
  const auto direct = parallel::simulate_parallel(tree, pc, direct_plan.schedule);
  EXPECT_EQ(response.stats->schedule, direct_plan.schedule);
  EXPECT_EQ(response.stats->makespan, direct.makespan);
  EXPECT_EQ(response.stats->parallel_io, direct.io_volume);
  EXPECT_EQ(response.stats->replay_feasible, direct.feasible);
}

TEST(PlanService, PagedReplayMatchesDirectPagedSimulation) {
  const core::Tree tree = test_tree(6, 80);
  PlanRequest request = parents_request(tree, 1, 1.2);
  parallel::ParallelConfig pc;
  pc.workers = 2;
  pc.priority = parallel::Priority::kSequentialOrder;
  request.parallel = pc;
  request.page_size = 4;

  PlanService planner(ServiceConfig{.threads = 1});
  const PlanResponse response = planner.plan(request);
  ASSERT_TRUE(response.stats->ok) << response.stats->error;
  ASSERT_TRUE(response.stats->replayed);
  EXPECT_EQ(response.stats->page_size, 4);

  const core::Weight memory = response.stats->memory;
  const auto direct_plan = core::run_strategy(core::Strategy::kRecExpand, tree, memory);
  parallel::PagedParallelConfig paged;
  paged.base = pc;
  paged.base.memory = memory;
  paged.page_size = 4;
  const auto direct = parallel::simulate_parallel_paged(tree, paged, direct_plan.schedule);
  EXPECT_EQ(response.stats->replay_feasible, direct.base.feasible);
  EXPECT_EQ(response.stats->makespan, direct.base.makespan);
  EXPECT_EQ(response.stats->parallel_io, direct.base.io_volume);
  EXPECT_EQ(response.stats->pages_written, direct.pages_written);
  EXPECT_EQ(response.stats->pages_read, direct.pages_read);
  EXPECT_EQ(response.stats->parallel_io, direct.pages_written * 4);
}

// Disk-pipeline round trip: a pipelined request replays through the
// service bit-identically to the direct paged simulation, pipeline
// ledgers included.
TEST(PlanService, PipelinedReplayMatchesDirectPagedSimulation) {
  const core::Tree tree = test_tree(9, 80);
  PlanRequest request = parents_request(tree, 1, 1.1);
  parallel::ParallelConfig pc;
  pc.workers = 2;
  pc.priority = parallel::Priority::kSequentialOrder;
  pc.write_queue_depth = 4;
  pc.prefetch_window = 4;
  request.parallel = pc;
  request.page_size = 4;
  request.disk_latency = 0.5;
  request.disk_bandwidth = 8.0;

  PlanService planner(ServiceConfig{.threads = 1});
  const PlanResponse response = planner.plan(request);
  ASSERT_TRUE(response.stats->ok) << response.stats->error;
  ASSERT_TRUE(response.stats->replayed);

  const core::Weight memory = response.stats->memory;
  const auto direct_plan = core::run_strategy(core::Strategy::kRecExpand, tree, memory);
  parallel::PagedParallelConfig paged;
  paged.base = pc;
  paged.base.memory = memory;
  paged.page_size = 4;
  paged.disk = iosim::DiskModel{0.5, 8.0};
  const auto direct = parallel::simulate_parallel_paged(tree, paged, direct_plan.schedule);
  EXPECT_EQ(response.stats->makespan, direct.base.makespan);
  EXPECT_EQ(response.stats->read_stall, direct.read_stall);
  EXPECT_EQ(response.stats->write_stall, direct.write_stall);
  EXPECT_EQ(response.stats->prefetch_issued, direct.prefetch_issued);
  EXPECT_EQ(response.stats->prefetch_useful, direct.prefetch_useful);
  EXPECT_EQ(response.stats->prefetch_wasted, direct.prefetch_wasted);
  EXPECT_EQ(response.stats->prefetch_issued,
            response.stats->prefetch_useful + response.stats->prefetch_wasted);
}

// The pipeline knobs shape the answer, so they must separate cache
// entries: the same instance with and without the pipeline may not
// collide.
TEST(PlanService, PipelineKnobsSeparateCacheEntries) {
  PlanService planner(ServiceConfig{.threads = 1});
  PlanRequest request = parents_request(test_tree(10, 70), 1, 1.1);
  parallel::ParallelConfig pc;
  pc.workers = 2;
  request.parallel = pc;
  request.page_size = 4;
  request.disk_latency = 0.5;
  request.disk_bandwidth = 4.0;
  const PlanResponse sync = planner.plan(request);
  request.parallel->write_queue_depth = 4;
  request.parallel->prefetch_window = 4;
  const PlanResponse piped = planner.plan(request);
  ASSERT_TRUE(sync.stats->ok) << sync.stats->error;
  ASSERT_TRUE(piped.stats->ok) << piped.stats->error;
  EXPECT_EQ(piped.served, Served::kComputed) << "pipeline knobs must not collide in the cache";
  EXPECT_FALSE(service::identical(*sync.stats, *piped.stats));
  EXPECT_EQ(planner.plan(request).served, Served::kCached);
}

// Pipeline knobs without a disk model would silently be inert — the
// service rejects the request instead of caching a misleading answer.
TEST(PlanService, PipelineKnobsWithoutDiskFail) {
  PlanService planner(ServiceConfig{.threads = 1});
  PlanRequest request = parents_request(test_tree(11), 1);
  parallel::ParallelConfig pc;
  pc.workers = 2;
  pc.write_queue_depth = 2;
  request.parallel = pc;
  request.page_size = 4;  // no disk_bandwidth
  const PlanResponse response = planner.plan(request);
  ASSERT_FALSE(response.stats->ok);
  EXPECT_NE(response.stats->error.find("require a disk model"), std::string::npos);
  EXPECT_EQ(planner.stats().cached, 0u);
  request.parallel->write_queue_depth = 0;
  request.parallel->prefetch_window = 3;
  EXPECT_FALSE(planner.plan(request).stats->ok);
}

TEST(PlanService, PageSizeSeparatesCacheEntries) {
  // Identical instance and replay config, different page geometry: the
  // answers differ, so the fingerprints must too.
  PlanService planner(ServiceConfig{.threads = 1});
  PlanRequest request = parents_request(test_tree(7, 70), 1, 1.1);
  parallel::ParallelConfig pc;
  pc.workers = 2;
  request.parallel = pc;
  request.page_size = 0;  // unit replay
  const PlanResponse unit = planner.plan(request);
  request.page_size = 8;
  const PlanResponse paged = planner.plan(request);
  ASSERT_TRUE(unit.stats->ok) << unit.stats->error;
  ASSERT_TRUE(paged.stats->ok) << paged.stats->error;
  EXPECT_EQ(paged.served, Served::kComputed) << "page_size must not collide in the cache";
  EXPECT_FALSE(service::identical(*unit.stats, *paged.stats));
  // Re-serving either geometry hits its own entry.
  EXPECT_EQ(planner.plan(request).served, Served::kCached);
  request.page_size = 0;
  EXPECT_EQ(planner.plan(request).served, Served::kCached);
}

TEST(PlanService, PageSizeWithoutReplayFails) {
  PlanService planner(ServiceConfig{.threads = 1});
  PlanRequest request = parents_request(test_tree(8), 1);
  // Warm the cache with the valid page_size=0 twin first: the invalid
  // request below must fail, not collide with this entry and be served
  // its cached success (regression: page_size used to enter the key only
  // under a parallel config, and validation ran after the cache layers).
  ASSERT_TRUE(planner.plan(request).stats->ok);
  request.page_size = 4;  // no parallel config
  const PlanResponse response = planner.plan(request);
  ASSERT_FALSE(response.stats->ok);
  EXPECT_EQ(response.served, Served::kComputed);
  EXPECT_NE(response.stats->error.find("page_size"), std::string::npos);
  EXPECT_EQ(planner.stats().cached, 0u);
  // The invalid answer is not cached either: retrying still fails.
  EXPECT_FALSE(planner.plan(request).stats->ok);
}

TEST(PlanService, MatrixMarketRequestMatchesDirectPipeline) {
  const std::string path = ::testing::TempDir() + "service_instance.mtx";
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n"
        << "6 6 11\n"
        << "1 1\n2 2\n3 3\n4 4\n5 5\n6 6\n"
        << "2 1\n3 2\n5 4\n6 5\n6 1\n";
  }
  PlanRequest request;
  request.id = 1;
  request.source = TreeSource::kMatrixMarket;
  request.path = path;
  request.memory_lb = 1.0;

  PlanService planner(ServiceConfig{.threads = 1});
  const PlanResponse response = planner.plan(request);
  ASSERT_TRUE(response.stats->ok) << response.stats->error;

  const core::Tree tree = sparse::mtx_assembly_tree(sparse::load_matrix_market(path));
  EXPECT_EQ(response.stats->tree_hash, tree.canonical_hash());
  EXPECT_EQ(response.stats->nodes, tree.size());
  EXPECT_EQ(response.stats->lb, tree.min_feasible_memory());
}

// ---------------------------------------------------------------------------
// Request decoding.

TEST(RequestIo, ParsesJsonlFields) {
  const auto request = service::request_from_json(
      R"({"id": 7, "nodes": 120, "w_lo": 2, "w_hi": 9, "seed": 5, "memory_lb": 1.5, )"
      R"("strategy": "optminmem", "workers": 4, "priority": "critical-path", "evict": "lru", )"
      R"("backfill_depth": 1, "page_size": 16})");
  EXPECT_EQ(request.id, 7);
  EXPECT_EQ(request.source, TreeSource::kSynth);
  EXPECT_EQ(request.nodes, 120u);
  EXPECT_EQ(request.w_lo, 2);
  EXPECT_EQ(request.w_hi, 9);
  EXPECT_EQ(request.seed, 5u);
  EXPECT_DOUBLE_EQ(request.memory_lb, 1.5);
  EXPECT_EQ(request.strategy, core::Strategy::kOptMinMem);
  ASSERT_TRUE(request.parallel.has_value());
  EXPECT_EQ(request.parallel->workers, 4);
  EXPECT_EQ(request.parallel->priority, parallel::Priority::kCriticalPath);
  EXPECT_EQ(request.parallel->evict, core::EvictionPolicy::kLru);
  EXPECT_EQ(request.parallel->backfill_depth, 1);
  EXPECT_EQ(request.page_size, 16);
}

TEST(RequestIo, ParsesParentArraysAndInfersSource) {
  const auto request = service::request_from_json(
      R"({"parent": [-1, 0, 0], "weight": [5, 3, 2], "memory": 10})");
  EXPECT_EQ(request.source, TreeSource::kParents);
  EXPECT_EQ(request.parent, (std::vector<core::NodeId>{-1, 0, 0}));
  EXPECT_EQ(request.weight, (std::vector<core::Weight>{5, 3, 2}));
  EXPECT_EQ(request.memory, 10);
}

TEST(RequestIo, InfersFileSourcesFromPath) {
  EXPECT_EQ(service::request_from_json(R"({"path": "a.mtx"})").source,
            TreeSource::kMatrixMarket);
  EXPECT_EQ(service::request_from_json(R"({"path": "a.tree"})").source, TreeSource::kTreeFile);
}

TEST(RequestIo, RejectsMalformedInput) {
  EXPECT_THROW((void)service::request_from_json(R"({"nodes": })"), std::runtime_error);
  EXPECT_THROW((void)service::request_from_json(R"({"frobnicate": 1})"), std::runtime_error);
  EXPECT_THROW((void)service::request_from_json(R"({"source": "tree"})"), std::runtime_error);
  EXPECT_THROW((void)service::request_from_json(R"({"nodes": 5} trailing)"),
               std::runtime_error);
  // Replay knobs without workers would silently drop the replay block.
  EXPECT_THROW((void)service::request_from_json(R"({"nodes": 5, "evict": "lru"})"),
               std::runtime_error);
  EXPECT_THROW((void)service::request_from_json(R"({"nodes": 5, "page_size": 4})"),
               std::runtime_error);
  EXPECT_THROW(
      (void)service::request_from_json(R"({"nodes": 5, "workers": 2, "page_size": 0})"),
      std::runtime_error);
  std::istringstream bad("{\"nodes\": 10}\n{\"oops\n");
  EXPECT_THROW((void)service::read_requests_jsonl(bad), std::runtime_error);
  // CSV booleans must be 1/0/true/false, not a silent false.
  std::istringstream bad_bool("nodes,workers,residency\n8,2,ture\n");
  EXPECT_THROW((void)service::read_requests_csv(bad_bool), std::runtime_error);
}

// The removed replay keys are unknown fields, in JSONL (whatever the value
// type) and in a CSV header; a known field of the wrong type is not.
TEST(RequestIo, RejectsRemovedReplayKeysAsUnknown) {
  const auto error_of = [](const std::function<void()>& decode) -> std::string {
    try {
      decode();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "accepted";
  };
  const std::string unknown = "unknown request field";
  for (const char* line : {R"({"workers": 2, "backfill": false})",
                           R"({"workers": 2, "backfill": 1})",
                           R"({"workers": 2, "reserve_penalty": 0.5})"})
    EXPECT_NE(error_of([&] { (void)service::request_from_json(line); }).find(unknown),
              std::string::npos)
        << line;
  for (const char* csv : {"nodes,workers,backfill\n8,2,true\n", "workers,reserve_penalty\n2,1\n"}) {
    std::istringstream in(csv);
    EXPECT_NE(error_of([&] { (void)service::read_requests_csv(in); }).find(unknown),
              std::string::npos)
        << csv;
  }
  EXPECT_EQ(error_of([] { (void)service::request_from_json(R"({"nodes": true})"); })
                .find(unknown),
            std::string::npos);
}

// FIFO keyed on the same clock as LRU in every engine: "fifo" stays a
// spelling of "lru", so old request streams decode to the same request and
// share its cache key.
TEST(RequestIo, FifoIsAnAliasOfLru) {
  const PlanRequest fifo =
      service::request_from_json(R"({"nodes": 30, "seed": 3, "workers": 2, "evict": "fifo"})");
  const PlanRequest lru =
      service::request_from_json(R"({"nodes": 30, "seed": 3, "workers": 2, "evict": "lru"})");
  ASSERT_TRUE(fifo.parallel.has_value());
  EXPECT_EQ(fifo.parallel->evict, core::EvictionPolicy::kLru);
  EXPECT_EQ(service::params_fingerprint(fifo, 100, 3), service::params_fingerprint(lru, 100, 3));
  EXPECT_EQ(service::request_fingerprint(fifo, 3), service::request_fingerprint(lru, 3));
}

TEST(RequestIo, ParsesDiskPipelineKnobs) {
  const auto request = service::request_from_json(
      R"({"nodes": 64, "workers": 2, "page_size": 4, "disk_latency": 0.5, )"
      R"("disk_bandwidth": 8, "write_queue_depth": 3, "prefetch_window": 5})");
  ASSERT_TRUE(request.parallel.has_value());
  EXPECT_EQ(request.parallel->write_queue_depth, 3);
  EXPECT_EQ(request.parallel->prefetch_window, 5);
  EXPECT_DOUBLE_EQ(request.disk_latency, 0.5);
  EXPECT_DOUBLE_EQ(request.disk_bandwidth, 8.0);
}

TEST(RequestIo, RejectsBadDiskPipelineKnobs) {
  // Negative knobs are decode errors, not clamped values.
  EXPECT_THROW((void)service::request_from_json(
                   R"({"nodes": 8, "workers": 2, "write_queue_depth": -1})"),
               std::runtime_error);
  EXPECT_THROW(
      (void)service::request_from_json(R"({"nodes": 8, "workers": 2, "prefetch_window": -2})"),
      std::runtime_error);
  // Knobs are replay fields: without workers the replay block would be
  // silently dropped, so the decoder refuses.
  EXPECT_THROW((void)service::request_from_json(R"({"nodes": 8, "write_queue_depth": 2})"),
               std::runtime_error);
  EXPECT_THROW((void)service::request_from_json(R"({"nodes": 8, "prefetch_window": 2})"),
               std::runtime_error);
}

// The int-typed replay knobs reject values past INT_MAX in both formats
// instead of truncating them (2^32 + 8 used to decode as 8), and accept
// INT_MAX itself.
TEST(RequestIo, RejectsReplayKnobsAboveIntMax) {
  // One request per key; every key but workers needs workers set.
  const auto jsonl = [](const std::string& key, const std::string& value) {
    return R"({"nodes": 8, "workers": )" +
           (key == "workers" ? value : "2, \"" + key + "\": " + value) + "}";
  };
  const auto csv = [](const std::string& key, const std::string& value) {
    return key == "workers" ? "nodes,workers\n8," + value + "\n"
                            : "nodes,workers," + key + "\n8,2," + value + "\n";
  };
  for (const char* key : {"workers", "backfill_depth", "write_queue_depth", "prefetch_window"}) {
    for (const char* value : {"2147483648", "4294967304"}) {
      EXPECT_THROW((void)service::request_from_json(jsonl(key, value)), std::runtime_error)
          << key << "=" << value;
      std::istringstream in(csv(key, value));
      EXPECT_THROW((void)service::read_requests_csv(in), std::runtime_error)
          << key << "=" << value << " (CSV)";
    }
    EXPECT_NO_THROW((void)service::request_from_json(jsonl(key, "2147483647"))) << key;
  }
}

// `nodes` sizes a tree whose ids are core::NodeId (int32_t): a count past
// its maximum is a decode error in both formats, and the maximum itself
// decodes. The requests are only decoded, never served.
TEST(RequestIo, RejectsNodesAboveNodeIdMax) {
  for (const std::string value : {"2147483648", "4294967304"}) {
    EXPECT_THROW((void)service::request_from_json(R"({"nodes": )" + value + "}"),
                 std::runtime_error)
        << value;
    std::istringstream in("nodes\n" + value + "\n");
    EXPECT_THROW((void)service::read_requests_csv(in), std::runtime_error) << value << " (CSV)";
  }
  EXPECT_EQ(service::request_from_json(R"({"nodes": 2147483647})").nodes, 2147483647u);
  std::istringstream in("nodes\n2147483647\n");
  const auto requests = service::read_requests_csv(in);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].nodes, 2147483647u);
}

TEST(RequestIo, ReadsDiskPipelineKnobsFromCsv) {
  std::istringstream in(
      "nodes,workers,page_size,disk_bandwidth,write_queue_depth,prefetch_window\n"
      "64,2,4,8,3,5\n");
  const auto requests = service::read_requests_csv(in);
  ASSERT_EQ(requests.size(), 1u);
  ASSERT_TRUE(requests[0].parallel.has_value());
  EXPECT_EQ(requests[0].parallel->write_queue_depth, 3);
  EXPECT_EQ(requests[0].parallel->prefetch_window, 5);
  EXPECT_DOUBLE_EQ(requests[0].disk_bandwidth, 8.0);
}

TEST(RequestIo, NameParsingIsCaseInsensitive) {
  const auto request = service::request_from_json(
      R"({"nodes": 8, "model": "Max", "strategy": "RECEXPAND", "workers": 2, "evict": "LRU"})");
  EXPECT_EQ(request.model, core::MemoryModel::kMaxInOut);
  EXPECT_EQ(request.strategy, core::Strategy::kRecExpand);
  EXPECT_EQ(request.parallel->evict, core::EvictionPolicy::kLru);
}

TEST(RequestIo, ReadsJsonlStreamWithCommentsAndFallbackIds) {
  std::istringstream in(
      "# demo batch\n"
      "{\"nodes\": 40}\n"
      "\n"
      "{\"id\": 9, \"nodes\": 50}\n");
  const auto requests = service::read_requests_jsonl(in);
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].id, 2);  // line ordinal
  EXPECT_EQ(requests[0].nodes, 40u);
  EXPECT_EQ(requests[1].id, 9);
}

TEST(RequestIo, ReadsCsvBatches) {
  std::istringstream in(
      "id,nodes,seed,memory_lb,strategy,workers\n"
      "1,64,11,1.5,recexpand,\n"
      "2,128,12,,postorder,2\n");
  const auto requests = service::read_requests_csv(in);
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].nodes, 64u);
  EXPECT_DOUBLE_EQ(requests[0].memory_lb, 1.5);
  EXPECT_FALSE(requests[0].parallel.has_value());
  EXPECT_EQ(requests[1].strategy, core::Strategy::kPostOrderMinIo);
  EXPECT_DOUBLE_EQ(requests[1].memory_lb, 2.0);  // empty cell keeps the default
  ASSERT_TRUE(requests[1].parallel.has_value());
  EXPECT_EQ(requests[1].parallel->workers, 2);
}

TEST(RequestIo, AutoDetectsFormat) {
  const std::string jsonl_path = ::testing::TempDir() + "batch_auto.jsonl";
  {
    std::ofstream out(jsonl_path);
    out << "{\"nodes\": 32}\n";
  }
  const std::string csv_path = ::testing::TempDir() + "batch_auto.csv";
  {
    std::ofstream out(csv_path);
    out << "nodes\n48\n";
  }
  EXPECT_EQ(service::load_requests(jsonl_path)[0].nodes, 32u);
  EXPECT_EQ(service::load_requests(csv_path)[0].nodes, 48u);
}

TEST(RequestIo, InfersSnapshotSourceFromPath) {
  EXPECT_EQ(service::request_from_json(R"({"path": "a.otree"})").source,
            TreeSource::kSnapshot);
  EXPECT_EQ(service::request_from_json(R"({"source": "snapshot", "path": "x"})").source,
            TreeSource::kSnapshot);
}

// The two consumers of a CacheKey — shard routing and bucket hashing —
// historically used distinct ad-hoc mixers; both now derive from
// cache_key_digest. Pin the agreement over a spread of keys, including
// adversarial ones (all-zero, single-bit, equal halves).
TEST(ResultCacheHash, ShardAndBucketDeriveFromOneDigest) {
  const service::ResultCache cache(64, 8);
  util::Rng rng(99);
  std::vector<service::CacheKey> keys = {
      {0, 0}, {1, 0}, {0, 1}, {~0ULL, ~0ULL}, {42, 42}, {1ULL << 63, 0}};
  for (int i = 0; i < 256; ++i) keys.push_back({rng.engine()(), rng.engine()()});
  for (const service::CacheKey& k : keys) {
    const std::uint64_t digest = service::cache_key_digest(k);
    EXPECT_EQ(service::CacheKeyHash{}(k), static_cast<std::size_t>(digest));
    EXPECT_EQ(cache.shard_index(k),
              static_cast<std::size_t>((digest >> 32) & (cache.shard_count() - 1)));
    EXPECT_LT(cache.shard_index(k), cache.shard_count());
  }
}

/// A fresh, empty persist directory (TempDir survives across test runs, so
/// leftover .plan files from a previous invocation must not leak in).
std::string fresh_persist_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::shared_ptr<const service::PlanStats> fake_stats(std::uint64_t tree_hash) {
  auto stats = std::make_shared<service::PlanStats>();
  stats->ok = true;
  stats->nodes = 3;
  stats->tree_hash = tree_hash;
  stats->total_weight = 9;
  stats->lb = 7;
  stats->memory = 10;
  stats->strategy = core::Strategy::kPostOrderMinIo;
  stats->schedule = {2, 1, 0};
  stats->io = {0, 2, 0};
  stats->io_volume = 2;
  stats->peak_resident = 9;
  stats->evictions = 1;
  return stats;
}

TEST(ResultCache, PersistentSpillRestoreRoundTrip) {
  const std::string dir = fresh_persist_dir("plan_cache_spill");
  const service::CacheKey hot{101, 5};
  const service::CacheKey cold{202, 5};
  service::ResultCache cache(1, 1, dir);  // capacity 1: second put evicts
  cache.put(cold, fake_stats(202));
  cache.put(hot, fake_stats(101));  // evicts cold -> spilled to dir
  EXPECT_GE(cache.counters().spilled, 1u);

  // RAM miss on the evicted key falls back to the directory.
  const auto restored = cache.get(cold);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(service::identical(*restored, *fake_stats(202)));
  EXPECT_GE(cache.counters().restored, 1u);
  cache.audit();
}

TEST(ResultCache, NonPersistableEntriesStayRamOnly) {
  const std::string dir = fresh_persist_dir("plan_cache_ram_only");
  service::ResultCache cache(1, 1, dir);
  cache.put({301, 1}, fake_stats(301), /*persistable=*/false);
  cache.put({302, 1}, fake_stats(302), /*persistable=*/false);  // evicts 301
  EXPECT_EQ(cache.counters().spilled, 0u);
  EXPECT_EQ(cache.get({301, 1}), nullptr);  // gone for good
}

// A .plan file of an older format version (v2 keyed replays with the
// removed backfill and reserve_penalty mixes) is neither preloaded nor
// restored: it could only hold a cache slot under a key no request makes.
TEST(ResultCache, OlderPlanVersionIsNotServed) {
  const std::string dir = fresh_persist_dir("plan_cache_old_version");
  const service::CacheKey key{99, 4};
  { service::ResultCache(16, 2, dir).put(key, fake_stats(99)); }  // flushed on destroy
  int patched = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++patched;
    std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);  // the version field follows the 8-byte magic
    const std::uint32_t v2 = 2;
    f.write(reinterpret_cast<const char*>(&v2), sizeof v2);
  }
  ASSERT_EQ(patched, 1);
  service::ResultCache reborn(16, 2, dir);
  EXPECT_EQ(reborn.counters().entries, 0u);
  EXPECT_EQ(reborn.get(key), nullptr);
}

TEST(ResultCache, FlushOnDestroyThenPreload) {
  const std::string dir = fresh_persist_dir("plan_cache_flush");
  const service::CacheKey key{77, 8};
  {
    service::ResultCache cache(16, 2, dir);
    cache.put(key, fake_stats(77));
  }  // destructor flushes the live persistable entry
  service::ResultCache reborn(16, 2, dir);
  const auto value = reborn.get(key);
  ASSERT_NE(value, nullptr);
  EXPECT_TRUE(service::identical(*value, *fake_stats(77)));
}

/// The key a .plan file is stored under, from its "<tree>-<params>.plan" name.
service::CacheKey key_of_plan_file(const std::filesystem::path& path) {
  const std::string stem = path.stem().string();
  return {std::stoull(stem.substr(0, 16), nullptr, 16), std::stoull(stem.substr(17), nullptr, 16)};
}

// A spilled plan whose strategy is out of the enum's range is a miss: the
// reborn cache neither preloads nor restores it, and the service plans the
// request again, identically to the original. Serving it used to abort the
// whole batch in strategy_name.
TEST(ResultCache, OutOfRangeStrategyIsRecomputed) {
  const std::string dir = fresh_persist_dir("plan_cache_bad_strategy");
  const PlanRequest request = parents_request(test_tree(57), 1);
  service::PlanStats original;
  {
    PlanService first(ServiceConfig{.threads = 1, .persist_dir = dir});
    const PlanResponse computed = first.plan(request);
    ASSERT_TRUE(computed.stats->ok) << computed.stats->error;
    original = *computed.stats;
  }
  std::vector<service::CacheKey> keys;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    keys.push_back(key_of_plan_file(entry.path()));
    std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    // magic 8, version 4, reserved 4, key 16, ok 1, empty error 8, then
    // nodes, tree_hash, total_weight, lb and memory at 8 bytes each.
    f.seekp(81);
    const std::uint32_t bad = 99;
    f.write(reinterpret_cast<const char*>(&bad), sizeof bad);
  }
  ASSERT_EQ(keys.size(), 1u);
  {
    service::ResultCache reborn(16, 2, dir);
    EXPECT_EQ(reborn.counters().entries, 0u);
    EXPECT_EQ(reborn.get(keys.front()), nullptr);
  }
  PlanService second(ServiceConfig{.threads = 1, .persist_dir = dir});
  const PlanResponse replanned = second.plan(request);
  ASSERT_TRUE(replanned.stats->ok) << replanned.stats->error;
  EXPECT_EQ(replanned.served, Served::kComputed);
  EXPECT_TRUE(service::identical(original, *replanned.stats));
}

// An ok plan must schedule every node of its tree; a file whose schedule
// length disagrees with `nodes` is a miss.
TEST(ResultCache, ScheduleShorterThanTreeIsNotServed) {
  const std::string dir = fresh_persist_dir("plan_cache_short_schedule");
  auto stats = std::make_shared<service::PlanStats>(*fake_stats(88));
  stats->nodes = 4;  // the schedule lists 3
  { service::ResultCache(16, 2, dir).put({88, 1}, stats); }
  service::ResultCache reborn(16, 2, dir);
  EXPECT_EQ(reborn.counters().entries, 0u);
  EXPECT_EQ(reborn.get({88, 1}), nullptr);
}

// The ISSUE acceptance test: a restarted service with the same persist
// directory serves a previously planned request from cache, bit-identical
// to the originally computed response.
TEST(PlanService, PersistentCacheSurvivesRestart) {
  const std::string dir = fresh_persist_dir("plan_cache_restart");
  const PlanRequest request = parents_request(test_tree(55), 1);
  service::PlanStats original;
  {
    PlanService first(ServiceConfig{.threads = 1, .persist_dir = dir});
    const PlanResponse computed = first.plan(request);
    ASSERT_TRUE(computed.stats->ok) << computed.stats->error;
    EXPECT_EQ(computed.served, Served::kComputed);
    original = *computed.stats;
  }  // service destroyed: canonical entry flushed to dir

  PlanService second(ServiceConfig{.threads = 1, .persist_dir = dir});
  const PlanResponse replayed = second.plan(request);
  ASSERT_TRUE(replayed.stats->ok) << replayed.stats->error;
  EXPECT_EQ(replayed.served, Served::kCached);
  EXPECT_TRUE(service::identical(original, *replayed.stats));
  EXPECT_EQ(second.stats().computed, 0u);
  second.audit(/*quiescent=*/true);
}

// A .otree snapshot request plans bit-identically to the same instance
// submitted as inline parent vectors, and deduplicates against it through
// the canonical-tree cache layer.
TEST(PlanService, SnapshotSourceMatchesParentsSource) {
  const core::Tree tree = test_tree(66);
  const std::string path = ::testing::TempDir() + "service_instance.otree";
  core::save_snapshot(path, tree);

  PlanService planner(ServiceConfig{.threads = 1});
  const PlanResponse via_parents = planner.plan(parents_request(tree, 1));
  ASSERT_TRUE(via_parents.stats->ok) << via_parents.stats->error;

  PlanRequest snap;
  snap.id = 2;
  snap.source = TreeSource::kSnapshot;
  snap.path = path;
  snap.memory_lb = 1.2;
  const PlanResponse via_snapshot = planner.plan(snap);
  ASSERT_TRUE(via_snapshot.stats->ok) << via_snapshot.stats->error;
  EXPECT_EQ(via_snapshot.served, Served::kCached);  // canonical-hash dedup
  EXPECT_TRUE(service::identical(*via_parents.stats, *via_snapshot.stats));
}

}  // namespace
}  // namespace ooctree
