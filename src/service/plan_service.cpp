#include "src/service/plan_service.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "src/core/check.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/util/stopwatch.hpp"

namespace ooctree::service {

namespace {

/// Keyspace tag for request-fingerprint entries: keeps spec digests from
/// ever colliding with canonical (tree, params) keys, whose params half is
/// a salted splitmix chain and cannot equal this constant by accident.
constexpr std::uint64_t kFingerprintTag = 0xf19e5f19e5f19e51ULL;

/// Shape bytes the source cache may hold (12 B per node: about 2.8 M
/// nodes). Not a ServiceConfig knob: cache_capacity == 0 switches it off
/// with the result cache, and nothing else needs to tune it.
constexpr std::size_t kSourceCacheBytes = std::size_t{32} << 20;

std::shared_ptr<const PlanStats> error_stats(const std::string& message) {
  auto stats = std::make_shared<PlanStats>();
  stats->ok = false;
  stats->error = message;
  return stats;
}

/// The first statically invalid page/replay combination of a request, or
/// nullptr. Such requests fail before any cache lookup: they must neither
/// collide with a valid request's keys nor pay for planning before the
/// error surfaces.
const char* replay_config_error(const PlanRequest& request) {
  if (request.page_size < 0) return "page_size must be >= 0";
  if (request.page_size > 0 && !request.parallel.has_value())
    return "page_size requires a parallel replay config (workers)";
  const auto finite_non_negative = [](double v) { return v >= 0 && std::isfinite(v); };
  if (!finite_non_negative(request.disk_latency) || !finite_non_negative(request.disk_bandwidth))
    return "disk_latency / disk_bandwidth must be finite and >= 0";
  if (request.disk_latency > 0 && request.disk_bandwidth == 0)
    return "disk_latency requires disk_bandwidth > 0";
  if (request.disk_bandwidth > 0 && request.page_size == 0)
    return "a disk model requires a paged replay (page_size > 0)";
  // The disk-pipeline knobs model transfers against the DiskModel timeline;
  // without one they would be silently inert — reject instead.
  if (request.parallel.has_value() &&
      (request.parallel->write_queue_depth > 0 || request.parallel->prefetch_window > 0) &&
      request.disk_bandwidth == 0)
    return "write_queue_depth / prefetch_window require a disk model (disk_bandwidth > 0)";
  return nullptr;
}

/// The strategies that return OptMinMem's schedule at any bound at or
/// above its peak: OptMinMem itself, and RecExpand / FullRecExpand, which
/// expand nothing there (RecExpand.NoExpansionReturnsOptMinMemSchedule).
bool follows_optminmem(core::Strategy s) {
  return s == core::Strategy::kOptMinMem || s == core::Strategy::kRecExpand ||
         s == core::Strategy::kFullRecExpand;
}

}  // namespace

/// Per-tree shared planning state of one fused group: the tree's
/// OptMinMem pass (schedule, peak, and the FiF of that schedule at the
/// peak), taken from the tree-pass cache or computed once, when the first
/// member needs it. The pass is a pure function of the tree alone, so:
///   * kOptMinMem hands out copies of the one optimal schedule
///     core::run_strategy would recompute;
///   * a kRecExpand / kFullRecExpand member whose bound is at or above the
///     peak gets the same copy: RecExpand expands nothing there and
///     returns OptMinMem's schedule, with the FiF of that schedule as its
///     evaluation (RecExpand.NoExpansionReturnsOptMinMemSchedule);
///   * at or above the peak, memory never binds on that schedule, so FiF
///     evicts nothing and writes nothing, for every such bound; below it,
///     the member's own bound is simulated;
///   * every other member *is* core::run_strategy.
/// run() is therefore bit-identical to core::run_strategy by construction,
/// and only needs the tree (attach()) for what the pass does not answer.
class PlanService::SharedPlanState {
 public:
  explicit SharedPlanState(std::shared_ptr<const TreePass> stored)
      : pass_(std::move(stored)), stored_(pass_ != nullptr) {}

  /// The group's tree and its facts; the pass is computed from it when
  /// none was stored.
  void attach(const core::Tree& tree, const TreeFacts& facts) {
    tree_ = &tree;
    facts_ = facts;
  }

  /// True when run(s, memory) answers from the pass without the tree.
  [[nodiscard]] bool non_binding(core::Strategy s, core::Weight memory) {
    return follows_optminmem(s) && memory >= pass().peak;
  }

  /// True when run(s, memory) answers an expanding strategy from the pass
  /// instead of running it.
  [[nodiscard]] bool unexpanded(core::Strategy s, core::Weight memory) {
    return s != core::Strategy::kOptMinMem && non_binding(s, memory);
  }

  [[nodiscard]] core::StrategyOutcome run(core::Strategy s, core::Weight memory) {
    if (non_binding(s, memory)) return pass_outcome(s, pass());
    if (s != core::Strategy::kOptMinMem) return core::run_strategy(s, *tree_, memory);
    core::StrategyOutcome out;
    out.strategy = s;
    out.schedule = pass().schedule;
    out.evaluation = core::simulate_fif(*tree_, out.schedule, memory);
    return out;
  }

  /// The outcome of `s` at any bound at or above the peak, from `pass`
  /// alone: memory never binds there, so FiF writes nothing.
  [[nodiscard]] static core::StrategyOutcome pass_outcome(core::Strategy s, const TreePass& pass) {
    core::StrategyOutcome out;
    out.strategy = s;
    out.schedule = pass.schedule;
    out.evaluation.feasible = true;
    out.evaluation.io.assign(pass.facts.nodes, 0);
    out.evaluation.peak_resident = pass.peak_resident;
    return out;
  }

  /// The pass this group computed itself, for the tree-pass cache; nullptr
  /// when it was stored or no member needed it.
  [[nodiscard]] std::shared_ptr<const TreePass> computed() const {
    return stored_ ? nullptr : pass_;
  }

 private:
  const TreePass& pass() {
    if (pass_ == nullptr) {
      auto pass = std::make_shared<TreePass>();
      pass->facts = facts_;
      core::OptMinMemResult optminmem = core::opt_minmem(*tree_);
      const core::FifResult fif = core::simulate_fif(*tree_, optminmem.schedule, optminmem.peak);
      core::audit_check(fif.feasible && fif.io_volume == 0 && fif.evictions == 0,
                        "PlanService: FiF binds at the OptMinMem peak");
      pass->peak = optminmem.peak;
      pass->schedule = std::move(optminmem.schedule);
      pass->peak_resident = fif.peak_resident;
      pass_ = std::move(pass);
    }
    return *pass_;
  }

  std::shared_ptr<const TreePass> pass_;
  const bool stored_;
  const core::Tree* tree_ = nullptr;
  TreeFacts facts_;
};

PlanService::PlanService(ServiceConfig config)
    : config_(config),
      cache_(config.cache_capacity, config.cache_shards, config.persist_dir),
      sources_(config.cache_capacity == 0 ? 0 : kSourceCacheBytes),
      passes_(config.cache_capacity == 0 ? 0 : kTreePassCacheBytes),
      pool_(config.threads) {}

std::future<PlanResponse> PlanService::submit(PlanRequest request) {
  submitted_.fetch_add(1);
  return pool_.submit(
      [this, request = std::move(request)] { return serve(request, std::nullopt); });
}

std::vector<std::future<PlanResponse>> PlanService::submit_batch(
    std::vector<PlanRequest> requests) {
  std::vector<std::future<PlanResponse>> futures;
  futures.reserve(requests.size());
  for (PlanRequest& request : requests) futures.push_back(submit(std::move(request)));
  return futures;
}

PlanResponse PlanService::plan(const PlanRequest& request) {
  submitted_.fetch_add(1);
  return serve(request, std::nullopt);
}

PlanResponse PlanService::plan(const PlanRequest& request, std::uint64_t identity) {
  submitted_.fetch_add(1);
  return serve(request, identity);
}

std::vector<PlanResponse> PlanService::plan_fused(const std::vector<PlanRequest>& requests) {
  std::vector<std::uint64_t> identities(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    identities[i] = tree_identity(requests[i], effective_seed(requests[i], config_.seed));
  return plan_fused(requests, identities);
}

std::vector<PlanResponse> PlanService::plan_fused(const std::vector<PlanRequest>& requests,
                                                  const std::vector<std::uint64_t>& identities) {
  if (identities.size() != requests.size())
    throw std::invalid_argument("plan_fused: one identity per request");
  std::vector<PlanResponse> responses(requests.size());
  std::vector<std::uint64_t> seeds(requests.size());
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    seeds[i] = effective_seed(requests[i], config_.seed);
    groups[identities[i]].push_back(i);
  }
  // Process groups in first-member order so the batch is served
  // deterministically regardless of hash-map iteration order.
  std::vector<bool> handled(requests.size(), false);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (handled[i]) continue;
    const std::vector<std::size_t>& members = groups[identities[i]];
    for (const std::size_t m : members) handled[m] = true;
    if (members.size() == 1) {
      responses[i] = plan(requests[i], identities[i]);  // singleton: ordinary serve() path
      continue;
    }
    submitted_.fetch_add(members.size());
    serve_group(requests, members, seeds, identities[i], responses);
  }
  return responses;
}

std::shared_ptr<const PlanService::TreePass> PlanService::stored_pass(
    const PlanRequest& request, std::uint64_t seed, std::optional<std::uint64_t> identity) {
  if (passes_.budget() == 0) return nullptr;
  return passes_.find(identity.has_value() ? *identity : tree_identity(request, seed));
}

void PlanService::serve_group(const std::vector<PlanRequest>& requests,
                              const std::vector<std::size_t>& members,
                              const std::vector<std::uint64_t>& seeds, std::uint64_t identity,
                              std::vector<PlanResponse>& responses) {
  const util::Stopwatch watch;

  // Static validation and the spec-fingerprint cache probe per member,
  // mirroring serve(); survivors proceed to the shared materialization
  // with the fingerprint they were probed under.
  struct Pending {
    std::size_t index;
    std::optional<std::uint64_t> fingerprint;
  };
  std::vector<Pending> pending;
  pending.reserve(members.size());
  for (const std::size_t i : members) {
    const PlanRequest& request = requests[i];
    if (const char* error = replay_config_error(request)) {
      responses[i] = respond(request, error_stats(error), Served::kFused, watch.seconds());
    } else {
      const std::optional<std::uint64_t> fingerprint = request_fingerprint(request, seeds[i]);
      std::shared_ptr<const PlanStats> hit;
      if (fingerprint.has_value() &&
          (hit = cache_.get(CacheKey{*fingerprint, kFingerprintTag})) != nullptr)
        responses[i] = respond(request, std::move(hit), Served::kCached, watch.seconds());
      else
        pending.push_back({i, fingerprint});
    }
  }
  if (pending.empty()) return;

  // Members share tree_identity, so they materialize bit-identical trees
  // by construction: one materialization serves the whole group, and a
  // stored pass of that tree defers it until a member needs the tree.
  // Only value-determined trees (those with a spec fingerprint) are stored.
  const std::size_t first = pending.front().index;
  const bool value_determined = pending.front().fingerprint.has_value();
  std::shared_ptr<const TreePass> stored =
      value_determined ? stored_pass(requests[first], seeds[first], identity) : nullptr;
  SharedPlanState shared(stored);
  std::optional<core::Tree> tree;
  TreeFacts facts;
  const auto materialize_group = [&] {
    tree.emplace(materialize(requests[first], seeds[first]));
    if (stored == nullptr) facts = TreeFacts::of(*tree);
    shared.attach(*tree, facts);
  };
  if (stored != nullptr) {
    facts = stored->facts;
  } else {
    try {
      materialize_group();
    } catch (const std::exception& e) {
      for (const Pending& p : pending)
        responses[p.index] =
            respond(requests[p.index], error_stats(e.what()), Served::kFused, watch.seconds());
      return;
    }
  }

  for (const auto& [i, fingerprint] : pending) {
    const PlanRequest& request = requests[i];
    try {
      const core::Weight memory = resolve_memory(request, facts.lb);
      const CacheKey key{facts.tree_hash, params_fingerprint(request, memory, seeds[i])};
      const CacheKey spec_key{fingerprint.value_or(0), kFingerprintTag};
      // The canonical probe also dedups *within* the group: an earlier
      // member with the same (memory, strategy, replay) put its result
      // just below, so later twins are cache hits, not recomputes.
      if (auto hit = cache_.get(key)) {
        if (fingerprint.has_value()) cache_.put(spec_key, hit, /*persistable=*/false);
        responses[i] = respond(request, std::move(hit), Served::kCached, watch.seconds());
        continue;
      }
      // A member the stored pass answers alone needs no tree.
      const bool from_store = stored != nullptr && !request.parallel.has_value() &&
                              shared.non_binding(request.strategy, memory);
      if (!from_store && !tree.has_value()) materialize_group();
      const bool unexpanded = shared.unexpanded(request.strategy, memory);
      std::shared_ptr<const PlanStats> stats =
          finish_stats(request, facts, tree.has_value() ? &*tree : nullptr, memory, seeds[i],
                       shared.run(request.strategy, memory));
      if (stats->ok) {
        cache_.put(key, stats, /*persistable=*/true);
        if (fingerprint.has_value()) cache_.put(spec_key, stats, /*persistable=*/false);
      }
      responses[i] = respond(request, std::move(stats), Served::kFused, watch.seconds());
      // After respond() bumped fused_, so fused_unexpanded_ <= fused_ and
      // pass_answers_ <= fused_ hold at every instant audit() can observe.
      if (unexpanded) fused_unexpanded_.fetch_add(1);
      if (from_store) pass_answers_.fetch_add(1);
    } catch (const std::exception& e) {
      responses[i] = respond(request, error_stats(e.what()), Served::kFused, watch.seconds());
    }
  }
  if (value_determined) {
    if (std::shared_ptr<const TreePass> computed = shared.computed())
      passes_.insert(identity, std::move(computed));
  }
}

PlanResponse PlanService::respond(const PlanRequest& request,
                                  std::shared_ptr<const PlanStats> stats, Served served,
                                  double seconds) {
  switch (served) {
    case Served::kComputed: computed_.fetch_add(1); break;
    case Served::kCached: cached_.fetch_add(1); break;
    case Served::kCoalesced: coalesced_.fetch_add(1); break;
    case Served::kFused: fused_.fetch_add(1); break;
    case Served::kShed: break;  // constructed by the server layer, never here
  }
  if (!stats->ok) failed_.fetch_add(1);
  completed_.fetch_add(1);
  PlanResponse response;
  response.id = request.id;
  response.stats = std::move(stats);
  response.served = served;
  response.seconds = seconds;
  return response;
}

PlanResponse PlanService::serve(const PlanRequest& request,
                                std::optional<std::uint64_t> identity) {
  const util::Stopwatch watch;
  const std::uint64_t seed = effective_seed(request, config_.seed);

  const auto respond = [&](std::shared_ptr<const PlanStats> stats,
                           Served served) -> PlanResponse {
    return this->respond(request, std::move(stats), served, watch.seconds());
  };

  if (const char* error = replay_config_error(request))
    return respond(error_stats(error), Served::kComputed);

  // Layer 1: spec fingerprint — value-determined requests skip the tree.
  const std::optional<std::uint64_t> fingerprint = request_fingerprint(request, seed);
  const CacheKey spec_key{fingerprint.value_or(0), kFingerprintTag};
  if (fingerprint.has_value()) {
    if (auto hit = cache_.get(spec_key)) return respond(std::move(hit), Served::kCached);
  }

  try {
    // Layer 1b: a stored pass of a value-determined tree stands in for the
    // tree until a step needs it.
    const std::shared_ptr<const TreePass> stored =
        fingerprint.has_value() ? stored_pass(request, seed, identity) : nullptr;
    std::optional<core::Tree> tree;
    TreeFacts facts;
    if (stored != nullptr) {
      facts = stored->facts;
    } else {
      tree.emplace(materialize(request, seed));
      facts = TreeFacts::of(*tree);
    }
    const core::Weight memory = resolve_memory(request, facts.lb);

    // Layer 2: canonical key — identical instances from any source collapse.
    const CacheKey key{facts.tree_hash, params_fingerprint(request, memory, seed)};
    if (auto hit = cache_.get(key)) {
      // Spec-fingerprint entries are derivable from the request alone, so
      // they stay RAM-only (persistable=false); only canonical entries are
      // worth spilling across restarts.
      if (fingerprint.has_value()) cache_.put(spec_key, hit, /*persistable=*/false);
      return respond(std::move(hit), Served::kCached);
    }

    // A non-binding answer is the stored pass itself, cheaper than joining
    // an in-flight computation of it.
    if (stored != nullptr && !request.parallel.has_value() &&
        follows_optminmem(request.strategy) && memory >= stored->peak) {
      std::shared_ptr<const PlanStats> stats =
          finish_stats(request, facts, nullptr, memory, seed,
                       SharedPlanState::pass_outcome(request.strategy, *stored));
      if (stats->ok) {
        cache_.put(key, stats, /*persistable=*/true);
        if (fingerprint.has_value()) cache_.put(spec_key, stats, /*persistable=*/false);
      }
      PlanResponse response = respond(std::move(stats), Served::kComputed);
      pass_answers_.fetch_add(1);  // after computed_, as audit() reads them
      return response;
    }
    if (!tree.has_value()) tree.emplace(materialize(request, seed));

    // Layer 3: coalesce with an identical computation already running.
    std::promise<std::shared_ptr<const PlanStats>> promise;
    bool leader = true;
    if (config_.coalesce) {
      std::shared_future<std::shared_ptr<const PlanStats>> pending;
      std::shared_ptr<const PlanStats> rechecked;
      {
        const std::lock_guard lock(inflight_mutex_);
        const auto it = inflight_.find(key);
        if (it != inflight_.end()) {
          pending = it->second;
          leader = false;
        } else if ((rechecked = cache_.get(key)) != nullptr) {
          // A previous leader finished (cache put + erase) between our
          // cache miss above and taking this lock; without the re-check a
          // second leader would recompute the same key.
          leader = false;
        } else {
          inflight_.emplace(key, promise.get_future().share());
        }
      }
      if (rechecked != nullptr) {
        if (fingerprint.has_value()) cache_.put(spec_key, rechecked, /*persistable=*/false);
        return respond(std::move(rechecked), Served::kCached);
      }
      if (!leader) return respond(pending.get(), Served::kCoalesced);
    }

    // compute() never throws: failures come back as ok=false stats, so the
    // promise below is always fulfilled and waiters can never hang. The
    // catch covers the cache insertion (allocation) — a registered leader
    // must fulfill its promise and clear the key on *every* exit, or the
    // stale entry would poison all future requests for this instance.
    std::shared_ptr<const PlanStats> stats;
    try {
      stats = compute(request, std::move(*tree), facts, memory, seed);
      if (stats->ok) {
        cache_.put(key, stats, /*persistable=*/true);
        if (fingerprint.has_value()) cache_.put(spec_key, stats, /*persistable=*/false);
      }
    } catch (...) {
      if (config_.coalesce) {
        promise.set_value(error_stats("planning aborted"));
        const std::lock_guard lock(inflight_mutex_);
        inflight_.erase(key);
      }
      throw;
    }
    if (config_.coalesce) {
      promise.set_value(stats);
      const std::lock_guard lock(inflight_mutex_);
      inflight_.erase(key);
    }
    return respond(std::move(stats), Served::kComputed);
  } catch (const std::exception& e) {
    return respond(error_stats(e.what()), Served::kComputed);
  }
}

core::Tree PlanService::materialize(const PlanRequest& request, std::uint64_t seed) {
  if (is_text_source(request.source))
    return sources_.tree(request.source, request.path, request.model);
  return materialize_tree(request, seed);
}

std::shared_ptr<const PlanStats> PlanService::compute(const PlanRequest& request,
                                                      core::Tree tree, const TreeFacts& facts,
                                                      core::Weight memory,
                                                      std::uint64_t seed) const {
  try {
    return finish_stats(request, facts, &tree, memory, seed,
                        core::run_strategy(request.strategy, tree, memory));
  } catch (const std::exception& e) {
    return error_stats(e.what());
  }
}

std::shared_ptr<const PlanStats> PlanService::finish_stats(const PlanRequest& request,
                                                           const TreeFacts& facts,
                                                           const core::Tree* tree,
                                                           core::Weight memory,
                                                           std::uint64_t seed,
                                                           core::StrategyOutcome outcome) const {
  auto stats = std::make_shared<PlanStats>();
  try {
    stats->nodes = facts.nodes;
    stats->tree_hash = facts.tree_hash;
    stats->total_weight = facts.total_weight;
    stats->lb = facts.lb;
    stats->memory = memory;
    stats->strategy = request.strategy;

    if (!outcome.evaluation.feasible)
      throw std::runtime_error("plan infeasible under the resolved memory bound");
    stats->schedule = std::move(outcome.schedule);
    stats->io = std::move(outcome.evaluation.io);
    stats->io_volume = outcome.evaluation.io_volume;
    stats->peak_resident = outcome.evaluation.peak_resident;
    stats->evictions = outcome.evaluation.evictions;

    if (request.parallel.has_value()) {
      if (tree == nullptr) throw std::logic_error("finish_stats: a replay needs the tree");
      // The unit replay is the page_size = 1 specialization of the paged
      // engine (free reads), so one call serves both request shapes; only
      // the page stats are gated on the request actually being paged.
      parallel::PagedParallelConfig paged;
      paged.base = *request.parallel;
      paged.base.memory = memory;
      if (paged.base.seed == 0) paged.base.seed = seed;
      paged.page_size = std::max<core::Weight>(1, request.page_size);
      if (request.disk_bandwidth > 0)
        paged.disk = iosim::DiskModel{request.disk_latency, request.disk_bandwidth};
      const parallel::PagedParallelResult replay =
          parallel::simulate_parallel_paged(*tree, paged, stats->schedule);
      stats->replayed = true;
      stats->replay_feasible = replay.base.feasible;
      stats->workers = paged.base.workers;
      stats->makespan = replay.base.makespan;
      stats->parallel_io = replay.base.io_volume;
      stats->utilization = replay.base.utilization(paged.base.workers);
      stats->failed_starts = replay.base.failed_starts;
      if (request.page_size > 0) {
        stats->page_size = request.page_size;
        stats->pages_written = replay.pages_written;
        stats->pages_read = replay.pages_read;
        stats->read_stall = replay.read_stall;
        stats->write_stall = replay.write_stall;
        stats->prefetch_issued = replay.prefetch_issued;
        stats->prefetch_useful = replay.prefetch_useful;
        stats->prefetch_wasted = replay.prefetch_wasted;
      }
    }
    stats->ok = true;
  } catch (const std::exception& e) {
    return error_stats(e.what());
  }
  return stats;
}

void PlanService::audit(bool quiescent) const {
  // Counter relations that hold at every instant of serve(): the served
  // counters (computed/cached/coalesced/fused) are bumped before completed_,
  // fused_unexpanded_ after fused_, pass_answers_ after computed_ or fused_,
  // and nothing is served that was not submitted. Loads are monotone, so a
  // concurrent serve can only widen the inequalities, never break them —
  // read completed_ first, each counter before the one that bounds it, and
  // submitted_ last.
  const std::uint64_t completed = completed_.load();
  const std::uint64_t failed = failed_.load();
  const std::uint64_t fused_unexpanded = fused_unexpanded_.load();
  const std::uint64_t pass_answers = pass_answers_.load();
  const std::uint64_t fused = fused_.load();
  const std::uint64_t computed = computed_.load();
  const std::uint64_t served = computed + cached_.load() + coalesced_.load() + fused;
  const std::uint64_t submitted = submitted_.load();
  core::audit_check(completed <= served,
                    "PlanService: completed responses outnumber served ones");
  core::audit_check(served <= submitted, "PlanService: served responses outnumber submissions");
  core::audit_check(failed <= served, "PlanService: failed responses outnumber served ones");
  core::audit_check(fused_unexpanded <= fused,
                    "PlanService: unexpanded fused answers outnumber fused ones");
  core::audit_check(pass_answers <= computed + fused,
                    "PlanService: tree-pass answers outnumber computed and fused ones");
  {
    const std::lock_guard lock(inflight_mutex_);
    if (quiescent)
      core::audit_check(inflight_.empty(),
                        "PlanService: in-flight computations left behind at quiescence");
    for (const auto& entry : inflight_)
      core::audit_check(entry.second.valid(), "PlanService: invalid in-flight future");
  }
  cache_.audit();
  sources_.audit();
  passes_.audit("PlanService tree-pass cache", [](const TreePass& pass) {
    return pass.schedule.size() == pass.facts.nodes && pass.peak >= pass.facts.lb;
  });
}

ServiceStats PlanService::stats() const {
  ServiceStats out;
  out.submitted = submitted_.load();
  out.completed = completed_.load();
  out.computed = computed_.load();
  out.cached = cached_.load();
  out.coalesced = coalesced_.load();
  out.fused = fused_.load();
  out.fused_unexpanded = fused_unexpanded_.load();
  out.failed = failed_.load();
  out.cache = cache_.counters();
  const SourceCounters sources = sources_.counters();
  out.source_hits = sources.hits;
  out.source_misses = sources.misses;
  out.source_bytes = sources.bytes;
  out.pass_answers = pass_answers_.load();
  const LruCounters passes = passes_.counters();
  out.pass_bytes = passes.bytes;
  out.pass_entries = passes.entries;
  return out;
}

}  // namespace ooctree::service
