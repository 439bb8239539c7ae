// Multi-tenant server suite (src/server/): weighted deficit-round-robin
// fairness (proportional shares, starvation bounds, in-flight caps, the
// fusion-rider extract path), bounded admission (shed / block-to-deadline
// policies, watermark hysteresis, counter conservation, close semantics),
// batch fusion bit-identity against independent computes across strategies
// and memory models, and PlanServer end-to-end: the overload storm (every
// future resolves, the queue bound holds), fairness under a backlog, fused
// dispatches, and drain-on-destruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/minmem_optimal.hpp"
#include "src/core/rec_expand.hpp"
#include "src/core/strategies.hpp"
#include "src/core/tree.hpp"
#include "src/server/admission.hpp"
#include "src/server/fair_scheduler.hpp"
#include "src/server/plan_server.hpp"
#include "src/service/plan_service.hpp"
#include "src/service/request_io.hpp"
#include "src/util/rng.hpp"
#include "tests/test_support.hpp"

namespace ooctree {
namespace {

using server::Admission;
using server::AdmissionConfig;
using server::AdmissionQueue;
using server::FairScheduler;
using server::OverloadPolicy;
using server::PlanServer;
using server::ServerConfig;
using server::ServerResponse;
using server::ServerStats;
using service::PlanRequest;
using service::PlanResponse;
using service::PlanService;
using service::Served;
using service::ServiceConfig;
using service::TreeSource;

/// A small synthetic-spec request with an explicit seed, so every request
/// built from the same (seed, nodes) materializes the same tree.
PlanRequest synth_request(std::int64_t id, std::uint64_t seed, std::size_t nodes = 120,
                          double memory_lb = 1.2) {
  PlanRequest request;
  request.id = id;
  request.nodes = nodes;
  request.seed = seed;
  request.memory_lb = memory_lb;
  return request;
}

/// A deliberately expensive request used to keep the single dispatch worker
/// busy while a test stages the scheduler queue behind it.
PlanRequest plug_request(const std::string& tenant) {
  PlanRequest request = synth_request(-1, 4242, 60000, 1.02);
  request.tenant = tenant;
  request.strategy = core::Strategy::kFullRecExpand;
  return request;
}

/// Polls until the server has dispatched at least `n` requests (the plug
/// is on a worker, so requests submitted now will queue behind it).
void wait_for_dispatches(const PlanServer& srv, std::uint64_t n) {
  while (srv.stats().dispatched < n)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// ---------------------------------------------------------------------------
// FairScheduler (unit-tested with T = int; the server instantiates it with
// its queue items — same template, same arithmetic).
// ---------------------------------------------------------------------------

TEST(FairScheduler, WeightedSharesAreProportionalOverABusyInterval) {
  FairScheduler<int> sched;
  sched.set_weight("heavy", 3.0);
  sched.set_weight("light", 1.0);
  for (int i = 0; i < 40; ++i) {
    sched.push("heavy", i);
    sched.push("light", i);
  }
  int heavy = 0;
  int light = 0;
  for (int i = 0; i < 24; ++i) {
    auto item = sched.pop();
    ASSERT_TRUE(item.has_value());
    (item->first == "heavy" ? heavy : light)++;
    sched.end_inflight(item->first);
  }
  // DRR with both tenants backlogged: exactly weight-proportional.
  EXPECT_EQ(heavy, 18);
  EXPECT_EQ(light, 6);
}

TEST(FairScheduler, EqualWeightsBoundStarvationOfASmallTenant) {
  FairScheduler<int> sched;
  for (int i = 0; i < 100; ++i) sched.push("hot", i);
  for (int i = 0; i < 5; ++i) sched.push("cold", i);
  // With equal weights the cold tenant is served every other dispatch, so
  // its 5 requests all leave within the first 10 pops — the starvation
  // bound the fairness bench pins at the server level.
  int cold_served = 0;
  for (int i = 0; i < 10; ++i) {
    auto item = sched.pop();
    ASSERT_TRUE(item.has_value());
    if (item->first == "cold") ++cold_served;
    sched.end_inflight(item->first);
  }
  EXPECT_EQ(cold_served, 5);
}

TEST(FairScheduler, FractionalWeightsServeEveryOtherRound) {
  // weight 0.5 vs 1.0: the half-weight tenant needs two ring visits to
  // earn one request of credit, giving a strict 1:2 service pattern.
  FairScheduler<int> sched;
  sched.set_weight("half", 0.5);
  sched.set_weight("full", 1.0);
  for (int i = 0; i < 30; ++i) {
    sched.push("half", i);
    sched.push("full", i);
  }
  int half = 0;
  int full = 0;
  for (int i = 0; i < 30; ++i) {
    auto item = sched.pop();
    ASSERT_TRUE(item.has_value());
    (item->first == "half" ? half : full)++;
    sched.end_inflight(item->first);
  }
  EXPECT_EQ(half, 10);
  EXPECT_EQ(full, 20);
}

TEST(FairScheduler, InflightCapSkipsSaturatedTenants) {
  FairScheduler<int> sched(1.0, /*inflight_cap=*/1);
  sched.push("a", 1);
  sched.push("a", 2);
  sched.push("b", 7);

  auto first = sched.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first, "a");
  // "a" is at its cap; the next dispatch must come from "b" even though
  // "a" still has queued work and ring priority.
  auto second = sched.pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->first, "b");
  // Everything eligible is capped or empty now.
  EXPECT_FALSE(sched.eligible());
  EXPECT_FALSE(sched.pop().has_value());
  EXPECT_EQ(sched.queued(), 1u);

  sched.end_inflight("a");
  auto third = sched.pop();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->first, "a");
  EXPECT_EQ(third->second, 2);
}

TEST(FairScheduler, ExtractIfPullsRidersWithoutChargingTheDeficit) {
  FairScheduler<int> sched(1.0, /*inflight_cap=*/1);
  for (int v : {1, 2, 3, 4}) sched.push("a", v);
  for (int v : {10, 11, 12}) sched.push("b", v);

  // Riders are pulled in ring order then queue order, ignore the in-flight
  // cap, and honor the limit.
  auto even = sched.extract_if([](int v) { return v % 2 == 0; }, 2);
  ASSERT_EQ(even.size(), 2u);
  EXPECT_EQ(even[0].second, 2);
  EXPECT_EQ(even[1].second, 4);
  EXPECT_EQ(even[0].first, "a");
  EXPECT_EQ(sched.queued(), 5u);
  EXPECT_EQ(sched.inflight(), 2u);  // riders count as dispatched work

  auto rest = sched.extract_if([](int v) { return v >= 10; }, 100);
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0].second, 10);
  EXPECT_EQ(rest[2].second, 12);
  for (const auto& [tenant, value] : even) sched.end_inflight(tenant);
  for (const auto& [tenant, value] : rest) sched.end_inflight(tenant);
  EXPECT_EQ(sched.inflight(), 0u);

  // The cap never applied to riders, but pop() still enforces it.
  auto lead = sched.pop();
  ASSERT_TRUE(lead.has_value());
  EXPECT_EQ(lead->first, "a");
  EXPECT_EQ(lead->second, 1);
}

TEST(FairScheduler, CountersTrackPerTenantAccounting) {
  FairScheduler<int> sched;
  sched.set_weight("b", 2.0);
  sched.push("a", 1);
  sched.push("b", 2);
  sched.push("b", 3);
  auto item = sched.pop();
  ASSERT_TRUE(item.has_value());

  const auto counters = sched.counters();
  ASSERT_EQ(counters.size(), 2u);  // name-sorted: a, b
  EXPECT_EQ(counters[0].tenant, "a");
  EXPECT_EQ(counters[1].tenant, "b");
  EXPECT_EQ(counters[0].pushed, 1u);
  EXPECT_EQ(counters[1].pushed, 2u);
  EXPECT_DOUBLE_EQ(counters[1].weight, 2.0);
  EXPECT_EQ(counters[0].served + counters[1].served, 1u);
  EXPECT_EQ(counters[0].queued + counters[1].queued, 2u);
}

TEST(FairScheduler, InvalidWeightsAndPhantomCompletionsThrow) {
  EXPECT_THROW(FairScheduler<int>(0.0), std::invalid_argument);
  FairScheduler<int> sched;
  EXPECT_THROW(sched.set_weight("a", -1.0), std::invalid_argument);
  EXPECT_THROW(sched.end_inflight("ghost"), std::logic_error);
}

// ---------------------------------------------------------------------------
// AdmissionQueue
// ---------------------------------------------------------------------------

TEST(AdmissionQueue, ShedsAtDepthAndRecoversOnRelease) {
  AdmissionQueue queue(AdmissionConfig{.depth = 2});
  EXPECT_EQ(queue.acquire(), Admission::kAdmitted);
  EXPECT_EQ(queue.acquire(), Admission::kAdmitted);
  EXPECT_EQ(queue.acquire(), Admission::kShedFull);
  queue.release();
  EXPECT_EQ(queue.acquire(), Admission::kAdmitted);

  const auto counters = queue.counters();
  EXPECT_EQ(counters.submitted, 4u);
  EXPECT_EQ(counters.admitted, 3u);
  EXPECT_EQ(counters.shed_full, 1u);
  EXPECT_EQ(counters.submitted, counters.admitted + counters.shed());
  EXPECT_EQ(counters.depth, 2u);
  EXPECT_EQ(counters.peak, 2u);
}

TEST(AdmissionQueue, BlockPolicyTimesOutWithoutARelease) {
  AdmissionQueue queue(AdmissionConfig{
      .depth = 1, .policy = OverloadPolicy::kBlock, .block_timeout_ms = 25.0});
  EXPECT_EQ(queue.acquire(), Admission::kAdmitted);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.acquire(), Admission::kShedTimeout);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(waited).count(), 20);
  const auto counters = queue.counters();
  EXPECT_EQ(counters.blocked, 1u);
  EXPECT_EQ(counters.shed_timeout, 1u);
  EXPECT_EQ(counters.submitted, counters.admitted + counters.shed());
}

TEST(AdmissionQueue, BlockPolicyWakesOnRelease) {
  AdmissionQueue queue(AdmissionConfig{
      .depth = 1, .policy = OverloadPolicy::kBlock, .block_timeout_ms = 10000.0});
  EXPECT_EQ(queue.acquire(), Admission::kAdmitted);
  std::thread releaser([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.release();
  });
  // Well under the 10 s deadline: the release wakes the waiter.
  EXPECT_EQ(queue.acquire(), Admission::kAdmitted);
  releaser.join();
  EXPECT_EQ(queue.counters().blocked, 1u);
}

TEST(AdmissionQueue, WatermarksAddHysteresisToTheOverloadSignal) {
  AdmissionQueue queue(AdmissionConfig{
      .depth = 8, .high_watermark = 6, .low_watermark = 2});
  for (int i = 0; i < 5; ++i) ASSERT_EQ(queue.acquire(), Admission::kAdmitted);
  EXPECT_FALSE(queue.overloaded());
  ASSERT_EQ(queue.acquire(), Admission::kAdmitted);  // depth 6: crosses high
  EXPECT_TRUE(queue.overloaded());
  queue.release(3);  // depth 3: between the marks — still overloaded
  EXPECT_TRUE(queue.overloaded());
  queue.release(1);  // depth 2: back at low — clears
  EXPECT_FALSE(queue.overloaded());
  EXPECT_EQ(queue.counters().overload_entries, 1u);
}

TEST(AdmissionQueue, DefaultWatermarksDeriveFromDepth) {
  AdmissionQueue queue(AdmissionConfig{.depth = 8});
  EXPECT_EQ(queue.config().high_watermark, 6u);  // 3·depth/4
  EXPECT_EQ(queue.config().low_watermark, 4u);   // depth/2
}

TEST(AdmissionQueue, CloseShedsNewcomersAndWakesBlockedWaiters) {
  AdmissionQueue queue(AdmissionConfig{
      .depth = 1, .policy = OverloadPolicy::kBlock, .block_timeout_ms = 10000.0});
  ASSERT_EQ(queue.acquire(), Admission::kAdmitted);
  std::promise<Admission> verdict;
  std::thread waiter([&queue, &verdict] { verdict.set_value(queue.acquire()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it block
  queue.close();
  EXPECT_EQ(verdict.get_future().get(), Admission::kShedClosed);
  waiter.join();
  EXPECT_EQ(queue.acquire(), Admission::kShedClosed);
  const auto counters = queue.counters();
  EXPECT_EQ(counters.shed_closed, 2u);
  EXPECT_EQ(counters.submitted, counters.admitted + counters.shed());
}

TEST(AdmissionQueue, InvalidConfigsAndOverReleaseThrow) {
  EXPECT_THROW(AdmissionQueue(AdmissionConfig{.depth = 0}), std::invalid_argument);
  EXPECT_THROW(AdmissionQueue(AdmissionConfig{.depth = 4, .block_timeout_ms = -1.0}),
               std::invalid_argument);
  EXPECT_THROW(AdmissionQueue(AdmissionConfig{.depth = 4, .high_watermark = 2,
                                              .low_watermark = 3}),
               std::invalid_argument);
  EXPECT_THROW(AdmissionQueue(AdmissionConfig{.depth = 4, .high_watermark = 5,
                                              .low_watermark = 1}),
               std::invalid_argument);
  AdmissionQueue queue(AdmissionConfig{.depth = 4});
  ASSERT_EQ(queue.acquire(), Admission::kAdmitted);
  EXPECT_THROW(queue.release(2), std::logic_error);
}

TEST(AdmissionQueue, PolicyNamesRoundTrip) {
  EXPECT_EQ(server::overload_policy_name(OverloadPolicy::kShed), "shed");
  EXPECT_EQ(server::overload_policy_name(OverloadPolicy::kBlock), "block");
  EXPECT_EQ(server::overload_policy_from_name("shed"), OverloadPolicy::kShed);
  EXPECT_EQ(server::overload_policy_from_name("reject"), OverloadPolicy::kShed);
  EXPECT_EQ(server::overload_policy_from_name("block"), OverloadPolicy::kBlock);
  EXPECT_EQ(server::overload_policy_from_name("wait"), OverloadPolicy::kBlock);
  EXPECT_THROW((void)server::overload_policy_from_name("bogus"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Batch fusion (PlanService::plan_fused)
// ---------------------------------------------------------------------------

TEST(PlanFused, BitIdenticalToIndependentPlansAcrossStrategiesAndModels) {
  // The acceptance gate of the fusion layer: K requests over one tree at
  // different memory bounds, every strategy, both memory models — the
  // fused batch must match K independent cache-free computes bit for bit.
  const core::Strategy strategies[] = {
      core::Strategy::kPostOrderMinIo, core::Strategy::kOptMinMem,
      core::Strategy::kRecExpand, core::Strategy::kFullRecExpand};
  const core::MemoryModel models[] = {core::MemoryModel::kMaxInOut,
                                      core::MemoryModel::kSumInOut};
  const double bounds[] = {1.05, 1.3, 2.0};

  std::vector<PlanRequest> batch;
  std::int64_t id = 0;
  for (const auto model : models)
    for (const auto strategy : strategies)
      for (const double lb : bounds) {
        PlanRequest request = synth_request(++id, /*seed=*/77, /*nodes=*/120, lb);
        request.model = model;
        request.strategy = strategy;
        batch.push_back(request);
      }

  PlanService fused_service(ServiceConfig{.threads = 1, .cache_capacity = 0, .coalesce = false});
  const std::vector<PlanResponse> fused = fused_service.plan_fused(batch);
  ASSERT_EQ(fused.size(), batch.size());

  PlanService independent(ServiceConfig{.threads = 1, .cache_capacity = 0, .coalesce = false});
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(fused[i].stats->ok) << fused[i].stats->error;
    EXPECT_EQ(fused[i].served, Served::kFused);
    EXPECT_EQ(fused[i].id, batch[i].id);
    const PlanResponse reference = independent.plan(batch[i]);
    ASSERT_TRUE(reference.stats->ok) << reference.stats->error;
    EXPECT_TRUE(service::identical(*fused[i].stats, *reference.stats))
        << "strategy " << core::strategy_name(batch[i].strategy) << " lb "
        << batch[i].memory_lb;
  }
  EXPECT_EQ(fused_service.stats().fused, batch.size());
  EXPECT_NO_THROW(fused_service.audit(/*quiescent=*/true));
}

TEST(PlanFused, UnexpandedRecExpandMembersMatchIndependentPlansInEitherOrder) {
  // A fused group answers RecExpand / FullRecExpand members whose bound is
  // at or above the tree's OptMinMem peak from its one OptMinMem pass.
  // Bounds straddle the peak (peak - 1, peak, peak + 1) and sweep the
  // tenant-repeat multiples of LB; the batch runs binding members first and
  // then non-binding members first. Every answer must equal an independent
  // cache-less plan(), and fused_unexpanded must count exactly the
  // expanding members at or above the peak.
  const core::Strategy strategies[] = {core::Strategy::kRecExpand,
                                       core::Strategy::kFullRecExpand,
                                       core::Strategy::kOptMinMem};
  const double multiples[] = {1.0, 1.1, 1.25, 1.5, 2.0, 3.0};
  const ServiceConfig raw{.threads = 1, .cache_capacity = 0, .coalesce = false};

  struct Member {
    PlanRequest request;
    core::Weight memory = 0;
    bool unexpanded = false;
  };
  std::vector<Member> members;
  std::int64_t id = 0;
  for (const auto model : {core::MemoryModel::kMaxInOut, core::MemoryModel::kSumInOut}) {
    PlanRequest base = synth_request(0, /*seed=*/91, /*nodes=*/600);
    base.model = model;
    const core::Tree tree =
        service::materialize_tree(base, service::effective_seed(base, raw.seed));
    const core::Weight peak = core::opt_minmem(tree).peak;
    ASSERT_GT(peak, tree.min_feasible_memory()) << "peak - 1 must be a feasible bound";

    std::vector<PlanRequest> requests;
    for (const auto strategy : strategies) {
      for (const core::Weight memory : {peak - 1, peak, peak + 1}) {
        PlanRequest request = base;
        request.strategy = strategy;
        request.memory = memory;
        requests.push_back(request);
      }
      for (const double lb : multiples) {
        PlanRequest request = base;
        request.strategy = strategy;
        request.memory_lb = lb;
        requests.push_back(request);
      }
    }
    PlanRequest paged = base;  // a non-binding member with a paged replay
    paged.strategy = core::Strategy::kRecExpand;
    paged.memory = peak + 1;
    parallel::ParallelConfig pc;
    pc.workers = 4;
    paged.parallel = pc;
    paged.page_size = 4;
    requests.push_back(paged);

    for (PlanRequest& request : requests) {
      request.id = ++id;
      const core::Weight memory = service::resolve_memory(request, tree);
      const bool expanding = request.strategy != core::Strategy::kOptMinMem;
      members.push_back({request, memory, expanding && memory >= peak});
    }
  }
  const auto expected = static_cast<std::uint64_t>(
      std::count_if(members.begin(), members.end(), [](const Member& m) { return m.unexpanded; }));
  const auto expanding = static_cast<std::uint64_t>(
      std::count_if(members.begin(), members.end(), [](const Member& m) {
        return m.request.strategy != core::Strategy::kOptMinMem;
      }));
  ASSERT_GT(expected, 0u);
  ASSERT_LT(expected, expanding) << "some expanding member must bind";

  PlanService independent(raw);
  for (const bool binding_first : {true, false}) {
    std::stable_sort(members.begin(), members.end(), [&](const Member& a, const Member& b) {
      return binding_first ? a.memory < b.memory : a.memory > b.memory;
    });
    std::vector<PlanRequest> batch;
    for (const Member& m : members) batch.push_back(m.request);

    PlanService fused_service(raw);
    const std::vector<PlanResponse> fused = fused_service.plan_fused(batch);
    ASSERT_EQ(fused.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE("binding_first=" + std::to_string(binding_first) + " strategy " +
                   core::strategy_name(batch[i].strategy) + " M=" +
                   std::to_string(members[i].memory));
      ASSERT_TRUE(fused[i].stats->ok) << fused[i].stats->error;
      EXPECT_EQ(fused[i].served, Served::kFused);
      EXPECT_EQ(fused[i].id, batch[i].id);
      const PlanResponse reference = independent.plan(batch[i]);
      ASSERT_TRUE(reference.stats->ok) << reference.stats->error;
      EXPECT_TRUE(service::identical(*fused[i].stats, *reference.stats));
    }
    EXPECT_EQ(fused_service.stats().fused, batch.size());
    EXPECT_EQ(fused_service.stats().fused_unexpanded, expected);
    EXPECT_NO_THROW(fused_service.audit(/*quiescent=*/true));
  }
  EXPECT_EQ(independent.stats().fused_unexpanded, 0u);
}

/// The inline parent/weight twin of a SYNTH request's tree.
PlanRequest parents_request(const PlanRequest& synth) {
  const core::Tree tree = service::materialize_tree(synth, synth.seed);
  PlanRequest request = synth;
  request.source = TreeSource::kParents;
  for (std::size_t v = 0; v < tree.size(); ++v) {
    const auto id = static_cast<core::NodeId>(v);
    request.parent.push_back(tree.parent(id));
    request.weight.push_back(tree.weight(id));
  }
  return request;
}

TEST(TreePassCache, NonBindingAnswersMatchIndependentPlans) {
  // A fused sweep stores its tree's OptMinMem pass. Later singleton and
  // fused requests over that tree straddle the peak (peak - 1, peak,
  // peak + 1) and sweep the tenant-repeat multiples of LB, for OptMinMem,
  // RecExpand and FullRecExpand, plus a non-binding paged replay and a
  // PostOrderMinIO request. Every answer must equal a cache-less plan(),
  // and pass_answers must count exactly the answers taken from the stored
  // pass: the first request of each (strategy, bound) at or above the
  // peak without a replay, for one of those three strategies.
  const core::Strategy strategies[] = {core::Strategy::kOptMinMem, core::Strategy::kRecExpand,
                                       core::Strategy::kFullRecExpand};
  const double multiples[] = {1.0, 1.1, 1.25, 1.5, 2.0, 3.0};
  const ServiceConfig raw{.threads = 1, .cache_capacity = 0, .coalesce = false};
  const ServiceConfig cached{.threads = 1, .cache_capacity = 4096};
  PlanService independent(raw);
  std::int64_t id = 0;
  for (const bool inline_tree : {false, true}) {
    for (const auto model : {core::MemoryModel::kMaxInOut, core::MemoryModel::kSumInOut}) {
      for (const bool fused : {false, true}) {
        SCOPED_TRACE(std::string(inline_tree ? "parents" : "synth") +
                     (model == core::MemoryModel::kMaxInOut ? " max" : " sum") +
                     (fused ? " fused" : " singletons"));
        PlanRequest base = synth_request(0, /*seed=*/91, /*nodes=*/600);
        if (inline_tree) base = parents_request(base);
        base.model = model;
        const core::Tree tree =
            service::materialize_tree(base, service::effective_seed(base, raw.seed));
        const core::Weight peak = core::opt_minmem(tree).peak;
        ASSERT_GT(peak, tree.min_feasible_memory()) << "peak - 1 must be a feasible bound";

        // (strategy, bound, replayed) of every answer the result cache holds.
        std::set<std::tuple<core::Strategy, core::Weight, bool>> answered;
        PlanService planner(cached);
        std::vector<PlanRequest> sweep;
        for (const core::Weight memory : {peak + 7, peak + 8}) {
          PlanRequest request = base;
          request.id = ++id;
          request.strategy = core::Strategy::kOptMinMem;
          request.memory = memory;
          sweep.push_back(request);
          answered.insert({request.strategy, memory, false});
        }
        for (const PlanResponse& response : planner.plan_fused(sweep))
          ASSERT_TRUE(response.stats->ok) << response.stats->error;
        ASSERT_EQ(planner.stats().pass_entries, 1u);
        ASSERT_EQ(planner.stats().pass_answers, 0u);

        std::vector<PlanRequest> requests;
        for (const auto strategy : strategies) {
          for (const core::Weight memory : {peak - 1, peak, peak + 1}) {
            PlanRequest request = base;
            request.strategy = strategy;
            request.memory = memory;
            requests.push_back(request);
          }
          for (const double lb : multiples) {
            PlanRequest request = base;
            request.strategy = strategy;
            request.memory_lb = lb;
            requests.push_back(request);
          }
        }
        PlanRequest paged = base;  // non-binding, but a replay needs the tree
        paged.strategy = core::Strategy::kRecExpand;
        paged.memory = peak + 1;
        parallel::ParallelConfig pc;
        pc.workers = 4;
        paged.parallel = pc;
        paged.page_size = 4;
        requests.push_back(paged);
        PlanRequest postorder = base;  // PostOrderMinIO never follows OptMinMem
        postorder.strategy = core::Strategy::kPostOrderMinIo;
        postorder.memory = peak + 1;
        requests.push_back(postorder);

        std::uint64_t expected = 0;
        for (PlanRequest& request : requests) {
          request.id = ++id;
          const core::Weight memory = service::resolve_memory(request, tree);
          const bool replayed = request.parallel.has_value();
          const bool fresh = answered.insert({request.strategy, memory, replayed}).second;
          if (fresh && !replayed && memory >= peak &&
              request.strategy != core::Strategy::kPostOrderMinIo)
            ++expected;
        }
        ASSERT_GT(expected, 0u);

        std::vector<PlanResponse> responses;
        if (fused) {
          responses = planner.plan_fused(requests);
        } else {
          for (const PlanRequest& request : requests) responses.push_back(planner.plan(request));
        }
        ASSERT_EQ(responses.size(), requests.size());
        for (std::size_t i = 0; i < requests.size(); ++i) {
          SCOPED_TRACE("strategy " + core::strategy_name(requests[i].strategy) + " memory " +
                       std::to_string(requests[i].memory) + " memory_lb " +
                       std::to_string(requests[i].memory_lb));
          ASSERT_TRUE(responses[i].stats->ok) << responses[i].stats->error;
          EXPECT_EQ(responses[i].id, requests[i].id);
          const PlanResponse reference = independent.plan(requests[i]);
          ASSERT_TRUE(reference.stats->ok) << reference.stats->error;
          EXPECT_TRUE(service::identical(*responses[i].stats, *reference.stats));
        }
        EXPECT_EQ(planner.stats().pass_answers, expected);
        EXPECT_EQ(planner.stats().pass_entries, 1u);
        EXPECT_NO_THROW(planner.audit(/*quiescent=*/true));
      }
    }
  }
  EXPECT_EQ(independent.stats().pass_answers, 0u);
  EXPECT_EQ(independent.stats().pass_entries, 0u);
}

TEST(TreePassCache, MoreTreesThanTheBudgetHoldsStayIdentical) {
  // Schedules that together outgrow the tree-pass budget: the cache drops
  // its least recently used passes and stays within the budget, and every
  // answer, from a stored pass or recomputed after an eviction, equals a
  // cache-less plan(). A bound of total weight + LB never binds.
  constexpr std::size_t kNodes = 60000;
  const std::size_t trees = service::kTreePassCacheBytes / (kNodes * sizeof(core::NodeId)) + 3;
  const ServiceConfig raw{.threads = 1, .cache_capacity = 0, .coalesce = false};
  PlanService planner(ServiceConfig{.threads = 1, .cache_capacity = 4096});
  PlanService independent(raw);
  std::int64_t id = 0;
  const auto request_for = [&](std::size_t t, double memory_lb) {
    PlanRequest request = synth_request(++id, 7000 + t, kNodes, memory_lb);
    request.strategy = core::Strategy::kOptMinMem;
    return request;
  };
  const auto query = [&](std::size_t t, core::Weight memory) {
    PlanRequest request = request_for(t, 2.0);
    request.strategy = core::Strategy::kRecExpand;
    request.memory = memory;
    const PlanResponse response = planner.plan(request);
    ASSERT_TRUE(response.stats->ok) << response.stats->error;
    EXPECT_TRUE(service::identical(*response.stats, *independent.plan(request).stats)) << t;
  };
  std::vector<core::Weight> unbound(trees);
  for (std::size_t t = 0; t < trees; ++t) {
    const std::vector<PlanResponse> sweep =
        planner.plan_fused({request_for(t, 1.0), request_for(t, 1.5)});
    ASSERT_TRUE(sweep[0].stats->ok) << sweep[0].stats->error;
    unbound[t] = sweep[0].stats->total_weight + sweep[0].stats->lb;
    query(t, unbound[t]);
    EXPECT_EQ(planner.stats().pass_answers, t + 1);
    EXPECT_LE(planner.stats().pass_bytes, service::kTreePassCacheBytes);
    EXPECT_NO_THROW(planner.audit());
  }
  const service::ServiceStats filled = planner.stats();
  EXPECT_LT(filled.pass_entries, trees);
  EXPECT_GT(filled.pass_entries, 0u);
  query(0, unbound[0] + 1);  // evicted long ago: planned again
  EXPECT_EQ(planner.stats().pass_answers, trees);
  query(trees - 1, unbound[trees - 1] + 1);  // the most recent pass is held
  EXPECT_EQ(planner.stats().pass_answers, trees + 1);
  EXPECT_NO_THROW(planner.audit(/*quiescent=*/true));
}

TEST(PlanFused, SingletonGroupsTakeTheOrdinaryServePath) {
  PlanService planner(ServiceConfig{.threads = 1});
  // Different explicit seeds: different trees, no group to fuse.
  const std::vector<PlanRequest> batch = {synth_request(1, 101), synth_request(2, 102)};
  const std::vector<PlanResponse> responses = planner.plan_fused(batch);
  ASSERT_EQ(responses.size(), 2u);
  for (const auto& response : responses) {
    ASSERT_TRUE(response.stats->ok) << response.stats->error;
    EXPECT_EQ(response.served, Served::kComputed);
  }
  EXPECT_EQ(planner.stats().fused, 0u);
}

TEST(PlanFused, WarmCacheStillAnswersFusedMembers) {
  PlanService planner(ServiceConfig{.threads = 1});
  const PlanRequest warm = synth_request(1, 55, 120, 1.3);
  const PlanResponse seeded = planner.plan(warm);
  ASSERT_TRUE(seeded.stats->ok);

  std::vector<PlanRequest> batch = {warm, warm, warm};
  batch[1].id = 2;
  batch[1].memory_lb = 1.6;  // same tree, new bound: a real fused compute
  batch[2].id = 3;
  batch[2].memory_lb = 1.9;
  const std::vector<PlanResponse> responses = planner.plan_fused(batch);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].served, Served::kCached);
  EXPECT_EQ(responses[0].stats.get(), seeded.stats.get());  // the same object
  EXPECT_EQ(responses[1].served, Served::kFused);
  EXPECT_EQ(responses[2].served, Served::kFused);
  EXPECT_NO_THROW(planner.audit(/*quiescent=*/true));
}

TEST(PlanFused, MemberFailuresStayPerMember) {
  PlanService planner(ServiceConfig{.threads = 1});
  std::vector<PlanRequest> batch = {synth_request(1, 33), synth_request(2, 33),
                                    synth_request(3, 33)};
  batch[1].page_size = 16;  // paged replay without a parallel config: invalid
  batch[2].memory = 1;      // absolute bound below LB: resolve_memory fails
  const std::vector<PlanResponse> responses = planner.plan_fused(batch);
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_TRUE(responses[0].stats->ok) << responses[0].stats->error;
  EXPECT_FALSE(responses[1].stats->ok);
  EXPECT_NE(responses[1].stats->error.find("page_size"), std::string::npos);
  EXPECT_FALSE(responses[2].stats->ok);
  EXPECT_NO_THROW(planner.audit(/*quiescent=*/true));
}

TEST(RecExpandSharedPeaks, OverloadMatchesSelfComputedPeaks) {
  util::Rng rng(9);
  const core::Tree tree = test::small_random_tree(150, 50, rng);
  const std::vector<core::Weight> peaks = core::opt_minmem_all_peaks(tree);
  core::RecExpandOptions options;
  options.max_expansions_per_node = 2;
  for (const double factor : {1.05, 1.2, 1.6}) {
    const auto memory = static_cast<core::Weight>(static_cast<double>(peaks.back()) * factor);
    const core::RecExpandResult direct = core::rec_expand(tree, memory, options);
    const core::RecExpandResult shared = core::rec_expand(tree, memory, options, peaks);
    EXPECT_EQ(direct.schedule, shared.schedule);
    EXPECT_EQ(direct.evaluation.io_volume, shared.evaluation.io_volume);
    EXPECT_EQ(direct.expansion_volume, shared.expansion_volume);
    EXPECT_EQ(direct.expansions, shared.expansions);
    EXPECT_EQ(direct.final_peak, shared.final_peak);
  }
}

TEST(RecExpandSharedPeaks, WrongSizedPeaksThrow) {
  util::Rng rng(10);
  const core::Tree tree = test::small_random_tree(40, 50, rng);
  std::vector<core::Weight> peaks = core::opt_minmem_all_peaks(tree);
  peaks.pop_back();
  EXPECT_THROW((void)core::rec_expand(tree, peaks.back() * 2, core::RecExpandOptions{}, peaks),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PlanServer end-to-end
// ---------------------------------------------------------------------------

TEST(PlanServer, OverloadStormShedsButNeverLosesAFuture) {
  // Offered load far beyond capacity against a tiny admission queue: the
  // depth bound must hold, the excess must shed as ok=false (never an
  // exception, never unbounded queueing), and every single future must
  // resolve. Run under TSan like every suite.
  ServerConfig config;
  config.service = ServiceConfig{.threads = 1, .cache_capacity = 0, .coalesce = false};
  config.workers = 1;
  config.admission.depth = 8;
  config.fuse = false;  // unique seeds anyway; keep dispatches 1:1

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  std::vector<std::future<ServerResponse>> futures(
      static_cast<std::size_t>(kProducers * kPerProducer));
  {
    PlanServer srv(config);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&srv, &futures, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const int index = p * kPerProducer + i;
          PlanRequest request = synth_request(index + 1, static_cast<std::uint64_t>(index + 1),
                                              /*nodes=*/300);
          request.tenant = "tenant-" + std::to_string(p);
          futures[static_cast<std::size_t>(index)] = srv.submit(std::move(request));
        }
      });
    }
    for (auto& producer : producers) producer.join();
    srv.drain();

    const ServerStats stats = srv.stats();
    EXPECT_EQ(stats.admission.submitted, static_cast<std::uint64_t>(kProducers * kPerProducer));
    EXPECT_EQ(stats.admission.submitted, stats.admission.admitted + stats.admission.shed());
    EXPECT_LE(stats.admission.peak, config.admission.depth);  // the bound held
    EXPECT_GT(stats.admission.shed(), 0u);                    // overload really shed
    EXPECT_EQ(stats.dispatched, stats.admission.admitted);    // drained completely
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_NO_THROW(srv.service().audit(/*quiescent=*/true));

    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    for (auto& future : futures) {
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
      const ServerResponse response = future.get();
      if (response.shed) {
        ++shed;
        EXPECT_FALSE(response.plan.stats->ok);
        EXPECT_EQ(response.plan.served, Served::kShed);
        EXPECT_EQ(response.dispatch_seq, 0u);
      } else {
        ++ok;
        EXPECT_TRUE(response.plan.stats->ok) << response.plan.stats->error;
        EXPECT_GT(response.dispatch_seq, 0u);
      }
    }
    EXPECT_EQ(ok, stats.admission.admitted);
    EXPECT_EQ(shed, stats.admission.shed());
    // Re-read futures vector outside the loop would move-from twice; done.
  }
}

TEST(PlanServer, ShedResponseCarriesTheReason) {
  ServerConfig config;
  config.service = ServiceConfig{.threads = 1};
  config.workers = 1;
  config.admission.depth = 1;

  PlanServer srv(config);
  auto plug = srv.submit(plug_request("plug"));
  wait_for_dispatches(srv, 1);  // the worker is busy; its slot is released

  PlanRequest queued = synth_request(2, 9, 80);
  queued.tenant = "acme";
  auto waiting = srv.submit(queued);  // holds the only slot

  PlanRequest rejected = synth_request(3, 10, 80);
  rejected.tenant = "acme";
  const ServerResponse shed = srv.submit(rejected).get();  // resolves immediately
  EXPECT_TRUE(shed.shed);
  EXPECT_EQ(shed.tenant, "acme");
  EXPECT_EQ(shed.plan.served, Served::kShed);
  EXPECT_FALSE(shed.plan.stats->ok);
  EXPECT_NE(shed.plan.stats->error.find("admission queue at capacity"), std::string::npos);
  EXPECT_EQ(shed.dispatch_seq, 0u);
  EXPECT_EQ(shed.plan.id, 3);

  srv.drain();
  EXPECT_TRUE(plug.get().plan.stats->ok);
  EXPECT_TRUE(waiting.get().plan.stats->ok);
}

TEST(PlanServer, EqualWeightTenantsInterleaveUnderBacklog) {
  // One worker, a slow plug on it, then a hot tenant's backlog of 30 and a
  // cold tenant's 10 staged behind it. Equal weights: DRR alternates, so
  // every cold request dispatches within the first ~2k slots — the cold
  // tenant is never starved behind the hot one's queue.
  ServerConfig config;
  config.service = ServiceConfig{.threads = 1};
  config.workers = 1;
  config.fuse = false;

  PlanServer srv(config);
  auto plug = srv.submit(plug_request("plug"));
  wait_for_dispatches(srv, 1);

  std::vector<std::future<ServerResponse>> hot;
  std::vector<std::future<ServerResponse>> cold;
  for (int i = 0; i < 30; ++i) {
    PlanRequest request = synth_request(100 + i, static_cast<std::uint64_t>(100 + i), 80);
    request.tenant = "hot";
    hot.push_back(srv.submit(std::move(request)));
  }
  for (int i = 0; i < 10; ++i) {
    PlanRequest request = synth_request(200 + i, static_cast<std::uint64_t>(200 + i), 80);
    request.tenant = "cold";
    cold.push_back(srv.submit(std::move(request)));
  }
  srv.drain();
  (void)plug.get();

  std::vector<std::uint64_t> cold_seqs;
  for (auto& future : cold) {
    const ServerResponse response = future.get();
    ASSERT_TRUE(response.plan.stats->ok) << response.plan.stats->error;
    cold_seqs.push_back(response.dispatch_seq);
  }
  std::sort(cold_seqs.begin(), cold_seqs.end());
  for (std::size_t k = 0; k < cold_seqs.size(); ++k) {
    // k-th cold dispatch within ~2(k+1) of the start (+ plug + slack for
    // any dispatches that slipped in while the backlog was being staged).
    EXPECT_LE(cold_seqs[k], 2 * (k + 1) + 5)
        << "cold request " << k << " starved behind the hot backlog";
  }
  for (auto& future : hot) EXPECT_TRUE(future.get().plan.stats->ok);

  const ServerStats stats = srv.stats();
  bool saw_hot = false;
  bool saw_cold = false;
  for (const auto& tenant : stats.tenants) {
    if (tenant.tenant == "hot") {
      saw_hot = true;
      EXPECT_EQ(tenant.pushed, 30u);
      EXPECT_EQ(tenant.served, 30u);
    }
    if (tenant.tenant == "cold") {
      saw_cold = true;
      EXPECT_EQ(tenant.pushed, 10u);
      EXPECT_EQ(tenant.served, 10u);
    }
  }
  EXPECT_TRUE(saw_hot);
  EXPECT_TRUE(saw_cold);
}

TEST(PlanServer, WeightsSkewTheDispatchShare) {
  // hot at weight 3 vs cold at weight 1, both backlogged behind a plug:
  // the first dispatch window must be split roughly 3:1.
  ServerConfig config;
  config.service = ServiceConfig{.threads = 1};
  config.workers = 1;
  config.fuse = false;
  config.weights = {{"hot", 3.0}, {"cold", 1.0}};

  PlanServer srv(config);
  auto plug = srv.submit(plug_request("plug"));
  wait_for_dispatches(srv, 1);

  std::vector<std::future<ServerResponse>> futures;
  for (int i = 0; i < 24; ++i) {
    PlanRequest request = synth_request(300 + i, static_cast<std::uint64_t>(300 + i), 80);
    request.tenant = "hot";
    futures.push_back(srv.submit(std::move(request)));
  }
  for (int i = 0; i < 8; ++i) {
    PlanRequest request = synth_request(400 + i, static_cast<std::uint64_t>(400 + i), 80);
    request.tenant = "cold";
    futures.push_back(srv.submit(std::move(request)));
  }
  srv.drain();
  (void)plug.get();

  // Count the split among the first 16 post-plug dispatches: exact DRR
  // gives hot 12 / cold 4; allow slack for dispatches that slipped in
  // while the backlog was still being staged.
  int hot_early = 0;
  int cold_early = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServerResponse response = futures[i].get();
    ASSERT_TRUE(response.plan.stats->ok) << response.plan.stats->error;
    if (response.dispatch_seq >= 2 && response.dispatch_seq <= 17) {
      (i < 24 ? hot_early : cold_early)++;
    }
  }
  EXPECT_GE(hot_early, 10);
  EXPECT_LE(cold_early, 6);
  EXPECT_GE(cold_early, 2);  // ...but never starved outright
}

TEST(PlanServer, FusesQueuedSameTreeRequestsAndStaysBitIdentical) {
  // A slow plug from tenant "a" with an in-flight cap of 1 keeps the
  // worker from popping further "a" requests until the plug completes, so
  // the six same-tree requests staged behind it dispatch as one fused
  // group regardless of timing.
  ServerConfig config;
  config.service = ServiceConfig{.threads = 1, .cache_capacity = 0, .coalesce = false};
  config.workers = 1;
  config.tenant_inflight_cap = 1;
  config.fuse_limit = 16;

  PlanServer srv(config);
  auto plug = srv.submit(plug_request("a"));
  wait_for_dispatches(srv, 1);

  const double bounds[] = {1.05, 1.2, 1.4, 1.6, 1.8, 2.0};
  std::vector<PlanRequest> requests;
  std::vector<std::future<ServerResponse>> futures;
  std::int64_t id = 10;
  for (const double lb : bounds) {
    PlanRequest request = synth_request(++id, /*seed=*/88, /*nodes=*/150, lb);
    request.tenant = "a";
    requests.push_back(request);
    futures.push_back(srv.submit(std::move(request)));
  }
  srv.drain();
  ASSERT_TRUE(plug.get().plan.stats->ok);

  const ServerStats stats = srv.stats();
  EXPECT_GE(stats.fused_groups, 1u);
  EXPECT_GE(stats.fused_requests, std::size(bounds) - 1);  // one may lead alone at worst
  EXPECT_GE(srv.service().stats().fused, std::size(bounds) - 1);

  PlanService independent(ServiceConfig{.threads = 1, .cache_capacity = 0, .coalesce = false});
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServerResponse response = futures[i].get();
    ASSERT_TRUE(response.plan.stats->ok) << response.plan.stats->error;
    EXPECT_GT(response.dispatch_seq, 0u);
    const PlanResponse reference = independent.plan(requests[i]);
    ASSERT_TRUE(reference.stats->ok);
    EXPECT_TRUE(service::identical(*response.plan.stats, *reference.stats))
        << "memory_lb " << requests[i].memory_lb;
  }
  EXPECT_NO_THROW(srv.service().audit(/*quiescent=*/true));
}

TEST(PlanServer, DestructionDrainsEveryAdmittedFuture) {
  std::vector<std::future<ServerResponse>> futures;
  {
    ServerConfig config;
    config.service = ServiceConfig{.threads = 1};
    config.workers = 1;
    config.admission.depth = 64;
    PlanServer srv(config);
    for (int i = 0; i < 20; ++i)
      futures.push_back(srv.submit(synth_request(i + 1, static_cast<std::uint64_t>(i + 1), 80)));
  }  // drain-then-stop: the destructor serves everything admitted
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const ServerResponse response = future.get();
    EXPECT_FALSE(response.shed);
    EXPECT_TRUE(response.plan.stats->ok) << response.plan.stats->error;
  }
}

TEST(PlanServer, BlockPolicySmokeEveryFutureResolves) {
  ServerConfig config;
  config.service = ServiceConfig{.threads = 1, .cache_capacity = 0, .coalesce = false};
  config.workers = 1;
  config.admission.depth = 2;
  config.admission.policy = OverloadPolicy::kBlock;
  config.admission.block_timeout_ms = 20.0;
  config.fuse = false;

  std::vector<std::future<ServerResponse>> futures;
  PlanServer srv(config);
  for (int i = 0; i < 20; ++i)
    futures.push_back(srv.submit(synth_request(i + 1, static_cast<std::uint64_t>(i + 1), 300)));
  srv.drain();

  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  for (auto& future : futures) (future.get().shed ? shed : ok)++;
  const ServerStats stats = srv.stats();
  EXPECT_EQ(ok + shed, 20u);
  EXPECT_EQ(stats.admission.submitted, stats.admission.admitted + stats.admission.shed());
  EXPECT_EQ(ok, stats.admission.admitted);
  // Timed-out admissions (if any) shed with the timeout verdict, not full.
  EXPECT_EQ(stats.admission.shed_full, 0u);
}

// ---------------------------------------------------------------------------
// Request plumbing
// ---------------------------------------------------------------------------

TEST(ServerRequests, TenantDecodesFromJsonlAndCsv) {
  const PlanRequest json =
      service::request_from_json(R"({"id": 3, "tenant": "acme", "nodes": 50})");
  EXPECT_EQ(json.tenant, "acme");
  EXPECT_EQ(json.id, 3);

  std::istringstream csv("id,tenant,nodes\n1,acme,50\n2,globex,60\n");
  const std::vector<PlanRequest> rows = service::read_requests_csv(csv);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].tenant, "acme");
  EXPECT_EQ(rows[1].tenant, "globex");
  EXPECT_EQ(rows[1].nodes, 60u);
}

TEST(ServerRequests, ServedNamesCoverTheServerClasses) {
  EXPECT_EQ(service::served_name(Served::kFused), "fused");
  EXPECT_EQ(service::served_name(Served::kShed), "shed");
}

TEST(ServerRequests, TreeIdentityGroupsByMaterializedTree) {
  const std::uint64_t seed = 7;
  PlanRequest a = synth_request(1, seed);
  PlanRequest b = synth_request(2, seed, /*nodes=*/120, /*memory_lb=*/1.9);
  b.strategy = core::Strategy::kOptMinMem;
  b.tenant = "other";  // routing metadata never affects the identity
  EXPECT_EQ(service::tree_identity(a, a.seed), service::tree_identity(b, b.seed));

  PlanRequest c = synth_request(3, seed + 1);
  EXPECT_NE(service::tree_identity(a, a.seed), service::tree_identity(c, c.seed));
  PlanRequest d = synth_request(4, seed);
  d.model = core::MemoryModel::kSumInOut;  // different model: different tree
  EXPECT_NE(service::tree_identity(a, a.seed), service::tree_identity(d, d.seed));
}

}  // namespace
}  // namespace ooctree
