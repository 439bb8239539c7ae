// PlanService — the asynchronous, batched, cached planning engine.
//
// The throughput front-end over the paper's algorithms: requests submitted
// through submit() run on a util::ThreadPool and resolve to
// std::future<PlanResponse>. A source cache and three result layers keep
// repeated instances from recomputing:
//   0. source cache — a .tree / .mtx request's file is read once and its
//      bytes digested; equal bytes rebuild the tree from a cached shape
//      instead of re-parsing (and, for .mtx, re-ordering and re-assembling)
//      it (source_cache.hpp);
//   1. request-fingerprint cache — value-determined requests (generator
//      specs, inline parent vectors) are answered from their spec digest
//      without materializing the tree;
//   2. canonical-tree cache — after materialization, the cache key is
//      (Tree::canonical_hash(), params digest), so the *same instance*
//      arriving as a generator spec, a parent vector or a file is served
//      from one entry;
//   3. in-flight coalescing — a request whose canonical key is currently
//      being computed attaches to that computation instead of duplicating
//      it (the leader never waits, so coalescing cannot deadlock even on a
//      single-thread pool).
// Both cache views share one sharded LRU store and hand out the same
// immutable PlanStats object, so cached, coalesced and computed responses
// are bit-identical (pinned by tests/test_service.cpp and the differential
// pass of bench_service_throughput).
//
// Determinism: a request's RNG stream is derived from (service seed,
// request id) via util::derive_seed, never from scheduling order — the
// same batch yields the same per-id results on 1 or 8 threads, shuffled or
// not. Failures (bad paths, infeasible bounds, malformed specs) become
// ok=false responses, never exceptions through the future, and are not
// cached.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/service/request.hpp"
#include "src/service/result_cache.hpp"
#include "src/service/source_cache.hpp"
#include "src/util/thread_pool.hpp"

namespace ooctree::service {

/// Service knobs.
struct ServiceConfig {
  std::size_t threads = 0;            ///< worker threads; 0 = hardware concurrency
  std::size_t cache_capacity = 4096;  ///< total cached results; 0 disables caching
  std::size_t cache_shards = 16;      ///< rounded up to a power of two
  std::uint64_t seed = 20170208;      ///< base seed for derived request streams
  bool coalesce = true;               ///< share identical in-flight computations
  /// Non-empty: persistent canonical cache — evicted/live canonical
  /// entries are spilled to this directory and reloaded on construction,
  /// so identical instances are served from cache across restarts.
  std::string persist_dir = {};
};

/// Service-level counters (monotonic over the service lifetime).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t computed = 0;   ///< planned from scratch
  std::uint64_t cached = 0;     ///< served from the result cache
  std::uint64_t coalesced = 0;  ///< attached to an in-flight computation
  std::uint64_t fused = 0;      ///< computed inside a fused same-tree batch
  /// Fused RecExpand / FullRecExpand members whose bound is at or above the
  /// tree's OptMinMem peak, answered from the group's one OptMinMem pass.
  std::uint64_t fused_unexpanded = 0;
  std::uint64_t failed = 0;     ///< ok=false responses
  CacheCounters cache;
  std::uint64_t source_hits = 0;    ///< text path requests rebuilt from a cached shape
  std::uint64_t source_misses = 0;  ///< text path requests parsed from their bytes
  std::size_t source_bytes = 0;     ///< shape bytes the source cache holds
};

/// Asynchronous batched planning front-end. Thread-safe; destruction
/// drains every submitted request (ThreadPool shutdown is drain-then-stop).
class PlanService {
 public:
  explicit PlanService(ServiceConfig config = {});

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// Enqueues one request; the future resolves to its response. Never
  /// resolves to an exception for bad requests — those come back ok=false.
  [[nodiscard]] std::future<PlanResponse> submit(PlanRequest request);

  /// Enqueues a whole batch, returning futures in request order.
  [[nodiscard]] std::vector<std::future<PlanResponse>> submit_batch(
      std::vector<PlanRequest> requests);

  /// Serves one request synchronously on the calling thread — the same
  /// path submit() takes (cache, coalescing, counters included).
  [[nodiscard]] PlanResponse plan(const PlanRequest& request);

  /// Serves a batch synchronously with *fusion*: requests that materialize
  /// the same tree (equal tree_identity) share one materialization and one
  /// OptMinMem pass (it does not depend on M) — instead of K independent
  /// full computes. OptMinMem members, and RecExpand / FullRecExpand
  /// members whose bound is at or above its peak (where RecExpand expands
  /// nothing), take its schedule; every member at or above the peak also
  /// shares one FiF of it, since memory never binds there. Everything
  /// shared is a pure function of the tree alone, so fused responses are
  /// bit-identical to independent plan() calls (pinned by
  /// tests/test_server.cpp and the fusion rows of
  /// bench_service_throughput). Fused members respond Served::kFused; the
  /// cache layers still apply (hits respond kCached), singleton groups take
  /// the ordinary serve() path, and responses come back in request order.
  /// Fused members skip in-flight coalescing — a concurrent identical
  /// leader costs a duplicate compute, never a wrong answer.
  [[nodiscard]] std::vector<PlanResponse> plan_fused(const std::vector<PlanRequest>& requests);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] std::size_t threads() const { return pool_.size(); }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

  /// Consistency sweep over the service counters, the in-flight table and
  /// the result cache, throwing core::AuditError on drift. Safe to call
  /// while requests are in flight: it only asserts the monotone relations
  /// that hold mid-serve (completed <= computed + cached + coalesced +
  /// fused <= submitted, fused_unexpanded <= fused, every pending
  /// in-flight future valid) plus the full ResultCache::audit() and
  /// SourceCache::audit(). At quiescence (every future resolved) the
  /// in-flight table must be empty — pass `quiescent = true` to assert
  /// that and the exact completed == served-class balance.
  void audit(bool quiescent = false) const;

 private:
  class SharedPlanState;

  PlanResponse serve(const PlanRequest& request);
  /// materialize_tree, with text path sources served through sources_.
  [[nodiscard]] core::Tree materialize(const PlanRequest& request, std::uint64_t seed);
  void serve_group(const std::vector<PlanRequest>& requests,
                   const std::vector<std::size_t>& members,
                   const std::vector<std::uint64_t>& seeds,
                   std::vector<PlanResponse>& responses);
  PlanResponse respond(const PlanRequest& request, std::shared_ptr<const PlanStats> stats,
                       Served served, double seconds);
  /// `tree_hash` is tree.canonical_hash(), computed once per request for
  /// the cache key and reused for the stats.
  [[nodiscard]] std::shared_ptr<const PlanStats> compute(const PlanRequest& request,
                                                         core::Tree tree, std::uint64_t tree_hash,
                                                         core::Weight memory,
                                                         std::uint64_t seed) const;
  /// Evaluates + replays an already-planned outcome into immutable stats.
  [[nodiscard]] std::shared_ptr<const PlanStats> finish_stats(const PlanRequest& request,
                                                              const core::Tree& tree,
                                                              std::uint64_t tree_hash,
                                                              core::Weight memory,
                                                              std::uint64_t seed,
                                                              core::StrategyOutcome outcome) const;

  ServiceConfig config_;
  ResultCache cache_;
  SourceCache sources_;

  /// Canonical keys currently being computed; waiters share the leader's
  /// eventual PlanStats through a shared_future. Mutable so the const
  /// audit() sweep can take the lock.
  mutable std::mutex inflight_mutex_;
  std::unordered_map<CacheKey, std::shared_future<std::shared_ptr<const PlanStats>>,
                     CacheKeyHash>
      inflight_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> computed_{0};
  std::atomic<std::uint64_t> cached_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> fused_{0};
  std::atomic<std::uint64_t> fused_unexpanded_{0};
  std::atomic<std::uint64_t> failed_{0};

  /// Declared last on purpose: the pool is destroyed first, draining every
  /// queued serve() while the cache, in-flight table and counters above
  /// are still alive.
  util::ThreadPool pool_;
};

}  // namespace ooctree::service
