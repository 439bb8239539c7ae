// PlanService — the asynchronous, batched, cached planning engine.
//
// The throughput front-end over the paper's algorithms: requests submitted
// through submit() run on a util::ThreadPool and resolve to
// std::future<PlanResponse>. A source cache, a tree-pass cache and three
// result layers keep repeated instances from recomputing:
//   0. source cache — a .tree / .mtx request's file is read once and its
//      bytes digested; equal bytes rebuild the tree from a cached shape
//      instead of re-parsing (and, for .mtx, re-ordering and re-assembling)
//      it (source_cache.hpp);
//   1. request-fingerprint cache — value-determined requests (generator
//      specs, inline parent vectors) are answered from their spec digest
//      without materializing the tree;
//   1b. tree-pass cache — a value-determined tree that a fused group
//      planned keeps its OptMinMem pass under its tree_identity; a later
//      request for that tree takes its canonical key from the pass, and an
//      OptMinMem / RecExpand / FullRecExpand request at or above the peak
//      (where memory never binds) is answered from it with zero I/O,
//      without materializing or planning the tree;
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
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/service/byte_lru.hpp"
#include "src/service/request.hpp"
#include "src/service/result_cache.hpp"
#include "src/service/source_cache.hpp"
#include "src/util/thread_pool.hpp"

namespace ooctree::service {

/// Bytes the tree-pass cache may hold: a stored pass costs 4 B per node of
/// schedule, so about 780 k nodes. Not a ServiceConfig knob: cache_capacity
/// == 0 switches it off with the result cache, and nothing else tunes it.
inline constexpr std::size_t kTreePassCacheBytes = std::size_t{3} << 20;

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
  /// Computed or fused answers at a non-binding bound taken from a stored
  /// tree pass, with neither materialization nor planning.
  std::uint64_t pass_answers = 0;
  std::size_t pass_bytes = 0;    ///< bytes the tree-pass cache holds
  std::size_t pass_entries = 0;  ///< tree passes the tree-pass cache holds
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
  /// plan() for a caller that already hashed the request's `identity`:
  /// tree_identity(request, effective_seed(request, config().seed)).
  [[nodiscard]] PlanResponse plan(const PlanRequest& request, std::uint64_t identity);

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
  /// leader costs a duplicate compute, never a wrong answer. A group that
  /// ran the OptMinMem pass of a value-determined tree stores it in the
  /// tree-pass cache; a group whose tree is stored starts from that pass
  /// and materializes the tree only for a member that still needs it.
  [[nodiscard]] std::vector<PlanResponse> plan_fused(const std::vector<PlanRequest>& requests);
  /// plan_fused() for a caller that already hashed every request's
  /// identity, as plan(request, identity) takes it.
  [[nodiscard]] std::vector<PlanResponse> plan_fused(const std::vector<PlanRequest>& requests,
                                                     const std::vector<std::uint64_t>& identities);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] std::size_t threads() const { return pool_.size(); }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

  /// Consistency sweep over the service counters, the in-flight table and
  /// the result cache, throwing core::AuditError on drift. Safe to call
  /// while requests are in flight: it only asserts the monotone relations
  /// that hold mid-serve (completed <= computed + cached + coalesced +
  /// fused <= submitted, fused_unexpanded <= fused, pass_answers <=
  /// computed + fused, every pending in-flight future valid) plus the full
  /// ResultCache::audit(), SourceCache::audit() and the tree-pass cache's
  /// ByteLru::audit() (index and LRU list agree, bytes within the
  /// budget). At quiescence (every future resolved) the
  /// in-flight table must be empty — pass `quiescent = true` to assert
  /// that and the exact completed == served-class balance.
  void audit(bool quiescent = false) const;

 private:
  class SharedPlanState;

  /// The instance fields of an answer. `tree_hash` is
  /// Tree::canonical_hash(), computed once per tree for the cache key.
  struct TreeFacts {
    std::uint64_t tree_hash = 0;
    std::size_t nodes = 0;
    core::Weight total_weight = 0;
    core::Weight lb = 0;
    [[nodiscard]] static TreeFacts of(const core::Tree& tree) {
      return {tree.canonical_hash(), tree.size(), tree.total_weight(),
              tree.min_feasible_memory()};
    }
  };
  /// What a non-binding answer needs of a tree; every field is a pure
  /// function of the tree. The entry of the tree-pass cache.
  struct TreePass {
    TreeFacts facts;
    core::Weight peak = 0;           ///< OptMinMem's peak
    core::Schedule schedule;         ///< OptMinMem's schedule
    core::Weight peak_resident = 0;  ///< of the FiF of `schedule` at `peak`
    [[nodiscard]] std::size_t bytes() const {
      return sizeof(TreePass) + schedule.size() * sizeof(core::NodeId);
    }
  };

  /// `identity` is the request's tree_identity when the caller hashed it.
  PlanResponse serve(const PlanRequest& request, std::optional<std::uint64_t> identity);
  /// materialize_tree, with text path sources served through sources_.
  [[nodiscard]] core::Tree materialize(const PlanRequest& request, std::uint64_t seed);
  /// The stored pass of a value-determined request's tree, or nullptr.
  [[nodiscard]] std::shared_ptr<const TreePass> stored_pass(const PlanRequest& request,
                                                            std::uint64_t seed,
                                                            std::optional<std::uint64_t> identity);
  void serve_group(const std::vector<PlanRequest>& requests,
                   const std::vector<std::size_t>& members,
                   const std::vector<std::uint64_t>& seeds, std::uint64_t identity,
                   std::vector<PlanResponse>& responses);
  PlanResponse respond(const PlanRequest& request, std::shared_ptr<const PlanStats> stats,
                       Served served, double seconds);
  [[nodiscard]] std::shared_ptr<const PlanStats> compute(const PlanRequest& request,
                                                         core::Tree tree, const TreeFacts& facts,
                                                         core::Weight memory,
                                                         std::uint64_t seed) const;
  /// Evaluates + replays an already-planned outcome into immutable stats.
  /// `tree` is only read by a replay, and may be null for a request
  /// without one.
  [[nodiscard]] std::shared_ptr<const PlanStats> finish_stats(const PlanRequest& request,
                                                              const TreeFacts& facts,
                                                              const core::Tree* tree,
                                                              core::Weight memory,
                                                              std::uint64_t seed,
                                                              core::StrategyOutcome outcome) const;

  ServiceConfig config_;
  ResultCache cache_;
  SourceCache sources_;
  ByteLru<std::uint64_t, TreePass> passes_;  ///< keyed by tree_identity

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
  std::atomic<std::uint64_t> pass_answers_{0};
  std::atomic<std::uint64_t> failed_{0};

  /// Declared last on purpose: the pool is destroyed first, draining every
  /// queued serve() while the cache, in-flight table and counters above
  /// are still alive.
  util::ThreadPool pool_;
};

}  // namespace ooctree::service
