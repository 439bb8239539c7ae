// High-contention stress suite — the workload the tsan preset exists for.
// Every test here drives >= 8 threads into the concurrent production path:
// PlanService duplicate storms over the three dedup layers, the source
// cache and the tree-pass cache, explicit ThreadPool::shutdown() racing a pack of submitters,
// sharded ResultCache eviction under concurrent hits, and mixed
// submit/parallel_for traffic on one pool. The sizes are deliberately modest per operation (single-core
// CI runners, 5-15x TSan slowdown) but the interleaving count is not: each
// test performs thousands of lock acquisitions across independent mutexes,
// which is what ThreadSanitizer needs to explore orderings. The suite also
// runs under release/dev/asan-ubsan like every other suite; the audit()
// sweeps at the end assert the shared state survived the storm intact in
// any preset.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/service/plan_service.hpp"
#include "src/service/result_cache.hpp"
#include "src/sparse/generators.hpp"
#include "src/sparse/matrix_market.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace ooctree {
namespace {

using service::CacheKey;
using service::PlanRequest;
using service::PlanResponse;
using service::PlanService;
using service::PlanStats;
using service::ResultCache;
using service::ServiceConfig;

/// A value-determined generator request: duplicates of one spec share the
/// fingerprint, the canonical key and (while racing) the in-flight entry.
PlanRequest synth_request(std::int64_t id, std::uint64_t spec_seed, std::size_t nodes = 48) {
  PlanRequest request;
  request.id = id;
  request.nodes = nodes;
  request.seed = spec_seed;  // explicit: duplicates share the value-spec
  request.memory_lb = 1.25;
  return request;
}

TEST(ConcurrencyStress, DuplicateStormServesOneSharedComputation) {
  // 256 copies of one spec race through 8 workers: exactly one computation
  // may run at a time (leader), everyone else must attach to it or hit the
  // cache — and every response must hand out the *same* immutable object.
  PlanService planner(ServiceConfig{.threads = 8});
  constexpr int kRequests = 256;
  std::vector<PlanRequest> batch;
  batch.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) batch.push_back(synth_request(i, 4242));
  auto futures = planner.submit_batch(std::move(batch));

  std::vector<PlanResponse> responses;
  responses.reserve(futures.size());
  for (auto& f : futures) responses.push_back(f.get());

  ASSERT_TRUE(responses.front().stats->ok) << responses.front().stats->error;
  for (const PlanResponse& r : responses) {
    ASSERT_TRUE(r.stats->ok) << r.stats->error;
    // Pointer equality, not value equality: dedup layers share the object.
    EXPECT_EQ(r.stats.get(), responses.front().stats.get());
  }
  const auto stats = planner.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.computed + stats.cached + stats.coalesced, stats.completed);
  EXPECT_GE(stats.computed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  planner.audit(/*quiescent=*/true);
}

TEST(ConcurrencyStress, MixedSpecStormStaysDeterministicPerSpec) {
  // 24 distinct specs x 12 duplicates, shuffled across 8 workers: each
  // spec's responses must agree with each other *and* with a single-thread
  // reference service — scheduling order must not leak into results.
  constexpr int kSpecs = 24;
  constexpr int kRepeats = 12;
  PlanService planner(ServiceConfig{.threads = 8});
  std::vector<PlanRequest> batch;
  batch.reserve(kSpecs * kRepeats);
  for (int repeat = 0; repeat < kRepeats; ++repeat)
    for (int spec = 0; spec < kSpecs; ++spec)
      batch.push_back(synth_request(repeat * kSpecs + spec, 1000 + spec));
  auto futures = planner.submit_batch(std::move(batch));
  std::vector<PlanResponse> responses;
  responses.reserve(futures.size());
  for (auto& f : futures) responses.push_back(f.get());

  PlanService reference(ServiceConfig{.threads = 1});
  for (int spec = 0; spec < kSpecs; ++spec) {
    const PlanResponse expect = reference.plan(synth_request(9000 + spec, 1000 + spec));
    ASSERT_TRUE(expect.stats->ok) << expect.stats->error;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      const PlanResponse& got = responses[static_cast<std::size_t>(repeat * kSpecs + spec)];
      ASSERT_TRUE(got.stats->ok) << got.stats->error;
      EXPECT_TRUE(service::identical(*got.stats, *expect.stats)) << "spec " << spec;
    }
  }
  const auto stats = planner.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kSpecs * kRepeats));
  EXPECT_EQ(stats.computed + stats.cached + stats.coalesced, stats.completed);
  planner.audit(/*quiescent=*/true);
}

TEST(ConcurrencyStress, AuditIsSafeWhileRequestsAreInFlight) {
  // The monotone-counter audit must hold at *every* instant, so hammer it
  // from a dedicated thread while 8 workers serve a duplicate-heavy batch.
  PlanService planner(ServiceConfig{.threads = 8});
  std::vector<PlanRequest> batch;
  for (int i = 0; i < 192; ++i) batch.push_back(synth_request(i, 7 + (i % 6)));
  auto futures = planner.submit_batch(std::move(batch));

  std::atomic<bool> done{false};
  std::thread auditor([&] {
    while (!done.load()) planner.audit();  // must never throw mid-flight
  });
  for (auto& f : futures) (void)f.get();
  done.store(true);
  auditor.join();
  planner.audit(/*quiescent=*/true);
}

TEST(ConcurrencyStress, MatrixMarketStormSharesShapesAcrossWorkers) {
  // 8 workers race over .mtx files through the source cache: three files
  // requested again and again, a fourth path holding the first one's
  // bytes, and 16 files requested once. Misses on one content race to
  // insert its shape; hits race with inserts and with an auditor. Every
  // answer must match a single-thread cache-less service, which parses
  // each file afresh.
  util::Rng rng(77);
  const auto write = [](const std::string& name, const sparse::SymPattern& pattern) {
    const std::string path = ::testing::TempDir() + "stress_source_" + name + ".mtx";
    sparse::save_matrix_market(path, pattern);
    return path;
  };
  std::vector<std::string> shared = {write("grid", sparse::grid2d(8, 8)),
                                     write("grid9", sparse::grid2d_9pt(6, 6)),
                                     write("random", sparse::random_symmetric(80, 3.0, rng)),
                                     write("grid_twin", sparse::grid2d(8, 8))};
  std::vector<std::string> distinct;
  for (int f = 0; f < 16; ++f)
    distinct.push_back(
        write("distinct" + std::to_string(f), sparse::random_symmetric(40 + f, 3.0, rng)));

  const auto mtx_request = [](std::int64_t id, const std::string& path, int variant) {
    PlanRequest request;
    request.id = id;
    request.source = service::TreeSource::kMatrixMarket;
    request.path = path;
    request.model = variant % 2 == 0 ? core::MemoryModel::kMaxInOut : core::MemoryModel::kSumInOut;
    request.memory_lb = 1.0 + 0.25 * (variant % 3);
    return request;
  };
  std::vector<PlanRequest> batch;
  for (int repeat = 0; repeat < 24; ++repeat)
    for (const std::string& path : shared)
      batch.push_back(mtx_request(static_cast<std::int64_t>(batch.size()), path, repeat));
  for (const std::string& path : distinct)
    batch.push_back(mtx_request(static_cast<std::int64_t>(batch.size()), path, 0));
  const std::vector<PlanRequest> requests = batch;

  PlanService planner(ServiceConfig{.threads = 8});
  auto futures = planner.submit_batch(std::move(batch));
  std::atomic<bool> done{false};
  std::thread auditor([&] {
    while (!done.load()) planner.audit();
  });
  std::vector<PlanResponse> responses;
  responses.reserve(futures.size());
  for (auto& f : futures) responses.push_back(f.get());
  done.store(true);
  auditor.join();

  PlanService reference(ServiceConfig{.threads = 1, .cache_capacity = 0});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].stats->ok) << responses[i].stats->error;
    const PlanResponse expect = reference.plan(requests[i]);
    EXPECT_TRUE(service::identical(*responses[i].stats, *expect.stats)) << requests[i].path;
  }
  const auto stats = planner.stats();
  EXPECT_EQ(stats.source_hits + stats.source_misses, requests.size());
  // At most one miss per racing worker on each content; at least one per
  // distinct content (the twin path shares the grid's).
  EXPECT_GE(stats.source_misses, 3u + distinct.size());
  EXPECT_LE(stats.source_misses, 8u * 3u + distinct.size());
  EXPECT_EQ(stats.failed, 0u);
  planner.audit(/*quiescent=*/true);
}

TEST(ConcurrencyStress, TreePassStormSharesStoredPassesAcrossThreads) {
  // 8 threads race fused sweeps over 6 trees (two threads per tree, so
  // inserts of one tree's pass race too), then 8 threads race singleton
  // requests over the same trees while an auditor sweeps: non-binding ones
  // read the stored passes, binding ones materialize. Every answer must
  // match a single-thread cache-less service.
  constexpr int kTrees = 6;
  constexpr int kThreads = 8;
  PlanService planner(ServiceConfig{.threads = 1});
  const auto sweep_member = [](std::uint64_t tree, double memory_lb, std::int64_t id) {
    PlanRequest request = synth_request(id, 300 + tree, /*nodes=*/400);
    request.strategy = core::Strategy::kOptMinMem;
    request.memory_lb = memory_lb;
    return request;
  };
  std::vector<core::Weight> unbound(kTrees);  // total weight + LB never binds
  {
    std::vector<std::thread> fillers;
    for (int t = 0; t < kThreads; ++t)
      fillers.emplace_back([&, t] {
        const auto tree = static_cast<std::uint64_t>(t % kTrees);
        const std::vector<PlanResponse> sweep =
            planner.plan_fused({sweep_member(tree, 1.0, t), sweep_member(tree, 1.5, t)});
        EXPECT_TRUE(sweep[0].stats->ok) << sweep[0].stats->error;
        if (t < kTrees) unbound[tree] = sweep[0].stats->total_weight + sweep[0].stats->lb;
      });
    for (auto& f : fillers) f.join();
  }
  ASSERT_EQ(planner.stats().pass_entries, static_cast<std::size_t>(kTrees));

  std::vector<PlanRequest> requests;
  for (int t = 0; t < kTrees; ++t)
    for (const auto strategy : {core::Strategy::kOptMinMem, core::Strategy::kRecExpand}) {
      for (const core::Weight extra : {0, 1, 2}) {
        PlanRequest request = sweep_member(static_cast<std::uint64_t>(t), 1.0, 0);
        request.strategy = strategy;
        request.memory = unbound[static_cast<std::size_t>(t)] + extra;
        requests.push_back(request);
      }
      PlanRequest binding = sweep_member(static_cast<std::uint64_t>(t), 1.0, 0);
      binding.strategy = strategy;
      requests.push_back(binding);
    }
  std::vector<std::vector<PlanResponse>> answers(kThreads);
  std::atomic<bool> done{false};
  std::thread auditor([&] {
    while (!done.load()) planner.audit();
  });
  {
    std::vector<std::thread> readers;
    for (int t = 0; t < kThreads; ++t)
      readers.emplace_back([&, t] {
        for (std::size_t k = 0; k < requests.size(); ++k)
          answers[static_cast<std::size_t>(t)].push_back(
              planner.plan(requests[(k + static_cast<std::size_t>(t) * 5) % requests.size()]));
      });
    for (auto& r : readers) r.join();
  }
  done.store(true);
  auditor.join();

  PlanService reference(ServiceConfig{.threads = 1, .cache_capacity = 0});
  std::vector<std::shared_ptr<const PlanStats>> truth;
  for (const PlanRequest& request : requests) truth.push_back(reference.plan(request).stats);
  for (int t = 0; t < kThreads; ++t)
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const PlanResponse& response = answers[static_cast<std::size_t>(t)][k];
      ASSERT_TRUE(response.stats->ok) << response.stats->error;
      EXPECT_TRUE(service::identical(
          *response.stats, *truth[(k + static_cast<std::size_t>(t) * 5) % requests.size()]));
    }
  // Each non-binding (tree, strategy, bound) is answered from its pass at
  // least once; racing duplicates may each be, the rest are cache hits.
  EXPECT_GE(planner.stats().pass_answers, static_cast<std::uint64_t>(kTrees * 2 * 3));
  planner.audit(/*quiescent=*/true);
}

TEST(ConcurrencyStress, ShutdownRacingSubmittersLosesNoFuture) {
  // 8 producers hammer submit() while the main thread shuts the pool down.
  // The contract under the race: each submit either enqueues (its future
  // must then resolve — drain-then-stop) or throws; nothing hangs, nothing
  // is dropped, and the executed count equals the accepted count.
  util::ThreadPool pool(4);
  constexpr int kProducers = 8;
  std::atomic<std::int64_t> executed{0};
  std::atomic<std::int64_t> accepted{0};
  std::atomic<bool> go{false};
  std::vector<std::vector<std::future<int>>> futures(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 4000; ++i) {
        try {
          futures[static_cast<std::size_t>(p)].push_back(pool.submit([&executed, i] {
            executed.fetch_add(1);
            return i;
          }));
          accepted.fetch_add(1);
        } catch (const std::runtime_error&) {
          return;  // shutdown won the race: stop producing
        }
      }
    });
  }
  go.store(true);
  std::this_thread::yield();
  pool.shutdown();  // races the producers on purpose
  for (auto& t : producers) t.join();
  pool.shutdown();  // idempotent second call is a no-op

  std::int64_t resolved = 0;
  for (int p = 0; p < kProducers; ++p)
    for (auto& f : futures[static_cast<std::size_t>(p)]) {
      EXPECT_GE(f.get(), 0);  // resolves, never broken_promise
      ++resolved;
    }
  EXPECT_EQ(resolved, accepted.load());
  EXPECT_EQ(executed.load(), accepted.load());
  EXPECT_THROW((void)pool.submit([] { return 0; }), std::runtime_error);
}

TEST(ConcurrencyStress, ShardedCacheSurvivesEvictionUnderConcurrentHits) {
  // Small capacity + hot keyspace: constant eviction while 8 threads mix
  // gets and puts and a ninth runs the full-consistency audit in a loop.
  // Values are tagged with their key so any cross-key corruption surfaces.
  constexpr std::size_t kCapacity = 64;
  constexpr std::uint64_t kKeys = 256;
  ResultCache cache(kCapacity, 8);
  std::atomic<bool> done{false};
  std::thread auditor([&] {
    while (!done.load()) cache.audit();  // shard-locked: safe mid-traffic
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&cache, w] {
      for (std::uint64_t i = 0; i < 3000; ++i) {
        const std::uint64_t k = (i * 31 + static_cast<std::uint64_t>(w) * 977) % kKeys;
        const CacheKey key{k, 0xabcdULL};
        if (i % 3 == 0) {
          auto value = std::make_shared<PlanStats>();
          value->io_volume = static_cast<core::Weight>(k);
          cache.put(key, std::move(value));
        } else if (auto hit = cache.get(key)) {
          // A hit must carry its own key's payload.
          if (hit->io_volume != static_cast<core::Weight>(k))
            FAIL() << "cross-key corruption at key " << k;
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  done.store(true);
  auditor.join();

  cache.audit();
  const auto counters = cache.counters();
  EXPECT_LE(counters.entries, counters.capacity);
  EXPECT_EQ(counters.insertions, counters.evictions + counters.entries);
  EXPECT_GT(counters.evictions, 0u) << "capacity must actually churn";
  EXPECT_GT(counters.hits, 0u);
}

TEST(ConcurrencyStress, MixedSubmitAndParallelForTraffic) {
  // Both idioms share one queue: 4 threads run blocking parallel_fors
  // while 4 others stream futures through the same pool.
  util::ThreadPool pool(8);
  std::atomic<std::int64_t> loop_hits{0};
  std::atomic<std::int64_t> future_sum{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round)
        pool.parallel_for(64, [&loop_hits](std::size_t) { loop_hits.fetch_add(1); });
    });
    callers.emplace_back([&] {
      std::vector<std::future<int>> futures;
      futures.reserve(400);
      for (int i = 0; i < 400; ++i) futures.push_back(pool.submit([i] { return i; }));
      for (auto& f : futures) future_sum.fetch_add(f.get());
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(loop_hits.load(), 4 * 20 * 64);
  EXPECT_EQ(future_sum.load(), 4 * (399 * 400 / 2));
}

}  // namespace
}  // namespace ooctree
