// Throughput benchmark for the planning service: requests/sec over a
// thread sweep {1, 2, 4, 8} crossed with cache-hit mixes {0%, 50%, 90%}.
//
// Every cell builds a fresh PlanService, submits the same SYNTH request
// mix (RecExpand at M = 1.1*LB; every fifth spec adds a 4-worker parallel
// replay) and measures wall-clock requests/sec plus per-class service
// latencies (computed vs cache-served vs coalesced). A differential pass
// then recomputes every unique spec on a cache-disabled, single-thread
// service and checks each cached response bit-identical to recomputation —
// the service-level twin of the engine differential suites from PR 2/3.
//
// A second block exercises the multi-tenant server (src/server/) over the
// same instance family: an overload storm (offered load far beyond one
// worker's capacity against a bounded admission queue), a fairness run
// (three tenants with 2:1:1 weights backlogged behind a plug, per-tenant
// wait-latency percentiles and a quota-floor check on dispatch order), and
// a batch-fusion run (K requests over one tree at different memory bounds,
// fused through PlanService::plan_fused vs K independent computes,
// bit-identity enforced).
//
// Writes bench_service_throughput.csv (one row per cell),
// bench_service_server.csv (one row per server metric) and
// bench_service_throughput.json (summary; the committed baseline lives at
// the repository root as BENCH_service.json). Acceptance:
//   * throughput — 8-thread vs 1-thread speedup on the 0%-hit mix. The
//     ISSUE-level target of 4x applies on >= 8 hardware cores; machines
//     with fewer cores are capped at what the hardware can express, so the
//     recorded threshold is min(4.0, 0.85 * min(8, cores)) and the JSON
//     stores the core count next to the measured speedup.
//   * latency — on the 1-thread 90%-hit mix, mean cache-served latency
//     must undercut mean compute latency by >= 99%.
//   * differential — cached vs recomputed must match exactly (exit 1).
//   * overload — queue peak <= the admission bound, excess load shed as
//     ok=false (shed > 0), counters conserve (submitted == admitted+shed).
//   * fairness — no tenant below its DRR quota floor: the smallest
//     tenant's k-th dispatch lands within (rounds-per-request * k + slack)
//     of the backlog start.
//   * fusion — fused responses bit-identical to independent computes, and
//     the OptMinMem K-bound batch >= 1.5x faster than K independents
//     (the schedule is memory-independent, so fusion shares it). Each row
//     reports fused_unexpanded: the RecExpand members answered from the
//     group's one OptMinMem pass. It must equal the number of the row's
//     RecExpand bounds at or above the tree's OptMinMem peak, exactly, at
//     every scale (exit 1 otherwise). RecExpand's speedup is recorded, not
//     gated.
//   * repeat — the OptMinMem fusion batch runs again on a cache-enabled
//     service, then a second batch over the same tree at K new absolute
//     bounds at or above the tree's OptMinMem peak (so the result cache
//     misses). The first batch stores the tree's OptMinMem pass; every
//     member of the second must be answered from it (pass_answers == K
//     exactly) and equal an independent compute, at every scale (exit 1
//     otherwise). Its speedup over the first batch is recorded, not gated.
//
// Scales: --scale quick (CI smoke) | default (baseline) | paper.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "experiment.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/server/plan_server.hpp"
#include "src/service/plan_service.hpp"
#include "src/util/csv.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace ooctree;

struct MixSpec {
  double hit_target = 0.0;  ///< fraction of requests repeating an earlier spec
  const char* name = "";
};

struct Cell {
  std::size_t threads = 0;
  double hit_target = 0.0;
  std::size_t requests = 0;
  std::size_t unique = 0;
  double seconds = 0.0;
  double rps = 0.0;
  std::uint64_t computed = 0;
  std::uint64_t cached = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t failed = 0;
  double mean_compute_ms = 0.0;
  double mean_cached_ms = 0.0;
};

/// The request mix of one cell: `requests` requests over `unique` specs,
/// spec s = k % unique, explicit per-spec seeds so repeats are genuine
/// duplicates. Every fifth spec carries a 4-worker parallel replay.
std::vector<service::PlanRequest> build_mix(std::size_t requests, std::size_t unique,
                                            std::size_t nodes) {
  std::vector<service::PlanRequest> mix;
  mix.reserve(requests);
  for (std::size_t k = 0; k < requests; ++k) {
    const std::size_t s = k % unique;
    service::PlanRequest request;
    request.id = static_cast<std::int64_t>(k) + 1;
    request.nodes = nodes;
    request.seed = 910000u + static_cast<std::uint64_t>(s);
    request.memory_lb = 1.1;
    request.strategy = core::Strategy::kRecExpand;
    if (s % 5 == 0) {
      parallel::ParallelConfig pc;
      pc.workers = 4;
      pc.priority = parallel::Priority::kSequentialOrder;
      request.parallel = pc;
    }
    mix.push_back(request);
  }
  return mix;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double index = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(index);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = index - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/// A deliberately expensive request that keeps the server's single worker
/// busy while a run stages its backlog behind it.
service::PlanRequest plug_request() {
  service::PlanRequest request;
  request.id = -1;
  request.tenant = "plug";
  request.nodes = 60000;
  request.seed = 4242;
  request.memory_lb = 1.02;
  request.strategy = core::Strategy::kFullRecExpand;
  return request;
}

struct OverloadResult {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::size_t queue_peak = 0;
  std::size_t depth = 0;
  double seconds = 0.0;
  double shed_rate = 0.0;
  bool conserved = false;
  bool bounded = false;
  bool pass = false;
};

/// Offered load far beyond one worker's capacity against a small bounded
/// admission queue: the bound must hold and the excess must shed cleanly.
OverloadResult run_overload(std::size_t offered, std::size_t nodes) {
  server::ServerConfig config;
  config.service = service::ServiceConfig{.threads = 1, .cache_capacity = 0, .coalesce = false};
  config.workers = 1;
  config.admission.depth = 16;
  config.fuse = false;

  OverloadResult result;
  result.depth = config.admission.depth;
  server::PlanServer srv(config);
  util::Stopwatch wall;
  std::vector<std::future<server::ServerResponse>> futures;
  futures.reserve(offered);
  for (std::size_t k = 0; k < offered; ++k) {
    service::PlanRequest request;
    request.id = static_cast<std::int64_t>(k) + 1;
    request.tenant = "tenant-" + std::to_string(k % 4);
    request.nodes = nodes;
    request.seed = 920000u + static_cast<std::uint64_t>(k);  // all unique: no cache relief
    request.memory_lb = 1.1;
    futures.push_back(srv.submit(std::move(request)));
  }
  srv.drain();
  result.seconds = wall.seconds();

  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  for (auto& future : futures) {
    const server::ServerResponse response = future.get();
    if (response.shed) {
      ++shed;
    } else if (response.plan.stats->ok) {
      ++ok;
    }
  }
  const server::ServerStats stats = srv.stats();
  result.offered = offered;
  result.admitted = stats.admission.admitted;
  result.shed = stats.admission.shed();
  result.queue_peak = stats.admission.peak;
  result.shed_rate = static_cast<double>(shed) / static_cast<double>(offered);
  result.conserved = stats.admission.submitted == stats.admission.admitted + stats.admission.shed() &&
                     ok == stats.admission.admitted && ok + shed == offered;
  result.bounded = stats.admission.peak <= config.admission.depth;
  result.pass = result.conserved && result.bounded && result.shed > 0;
  return result;
}

struct TenantLatency {
  std::string tenant;
  std::size_t requests = 0;
  double weight = 1.0;
  double p50_ms = 0.0;  ///< admission-to-dispatch wait
  double p99_ms = 0.0;
};

struct FairnessResult {
  std::vector<TenantLatency> tenants;
  double seconds = 0.0;
  std::uint64_t floor_violations = 0;  ///< smallest tenant dispatches past its quota window
  bool pass = false;
};

/// Three tenants with 2:1:1 weights backlogged behind a plug on a single
/// worker. DRR serves 4 requests per round (alpha 2, beta 1, gamma 1), so
/// the smallest tenant's k-th request must dispatch within ~4k slots.
FairnessResult run_fairness(std::size_t per_unit, std::size_t nodes) {
  server::ServerConfig config;
  config.service = service::ServiceConfig{.threads = 1};
  config.workers = 1;
  config.fuse = false;
  config.weights = {{"alpha", 2.0}, {"beta", 1.0}, {"gamma", 1.0}};

  struct TenantPlan {
    const char* name;
    double weight;
    std::size_t count;
  };
  const TenantPlan plan[] = {
      {"alpha", 2.0, 2 * per_unit}, {"beta", 1.0, per_unit}, {"gamma", 1.0, per_unit}};

  server::PlanServer srv(config);
  util::Stopwatch wall;
  auto plug = srv.submit(plug_request());
  while (srv.stats().dispatched < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::map<std::string, std::vector<std::future<server::ServerResponse>>> futures;
  std::int64_t id = 0;
  for (const TenantPlan& tenant : plan)
    for (std::size_t k = 0; k < tenant.count; ++k) {
      service::PlanRequest request;
      request.id = ++id;
      request.tenant = tenant.name;
      request.nodes = nodes;
      request.seed = 930000u + static_cast<std::uint64_t>(id);
      request.memory_lb = 1.1;
      futures[tenant.name].push_back(srv.submit(std::move(request)));
    }
  srv.drain();
  (void)plug.get();

  FairnessResult result;
  result.seconds = wall.seconds();
  std::vector<std::uint64_t> gamma_seqs;
  for (const TenantPlan& tenant : plan) {
    std::vector<double> waits;
    for (auto& future : futures[tenant.name]) {
      const server::ServerResponse response = future.get();
      waits.push_back(response.wait_seconds * 1e3);
      if (std::string(tenant.name) == "gamma") gamma_seqs.push_back(response.dispatch_seq);
    }
    TenantLatency latency;
    latency.tenant = tenant.name;
    latency.requests = tenant.count;
    latency.weight = tenant.weight;
    latency.p50_ms = percentile(waits, 0.5);
    latency.p99_ms = percentile(waits, 0.99);
    result.tenants.push_back(latency);
  }
  // Quota floor: gamma earns 1 dispatch per 4-request DRR round, so its
  // k-th dispatch (1-based) must land within 4k + slack of the start
  // (slack covers the plug and dispatches that slip in mid-staging).
  std::sort(gamma_seqs.begin(), gamma_seqs.end());
  for (std::size_t k = 0; k < gamma_seqs.size(); ++k)
    if (gamma_seqs[k] > 4 * (k + 1) + 8) ++result.floor_violations;
  result.pass = result.floor_violations == 0;
  return result;
}

struct FusionRow {
  const char* strategy = "";
  std::size_t batch = 0;
  double independent_seconds = 0.0;
  double fused_seconds = 0.0;
  double speedup = 0.0;
  bool identical = false;
  std::uint64_t unexpanded = 0;           ///< the fused service's fused_unexpanded
  std::uint64_t expected_unexpanded = 0;  ///< expanding members with M >= peak
};

/// K requests over one tree at K memory bounds: plan_fused vs K
/// independent computes, both on cache-disabled services.
FusionRow run_fusion(core::Strategy strategy, const char* name, std::size_t bounds,
                     std::size_t nodes) {
  std::vector<service::PlanRequest> batch;
  for (std::size_t k = 0; k < bounds; ++k) {
    service::PlanRequest request;
    request.id = static_cast<std::int64_t>(k) + 1;
    request.nodes = nodes;
    request.seed = 940001;  // one tree across the whole batch
    request.memory_lb = 1.05 + 0.1 * static_cast<double>(k);
    request.strategy = strategy;
    batch.push_back(request);
  }

  FusionRow row;
  row.strategy = name;
  row.batch = bounds;
  const service::ServiceConfig raw{.threads = 1, .cache_capacity = 0, .coalesce = false};
  if (strategy == core::Strategy::kRecExpand || strategy == core::Strategy::kFullRecExpand) {
    const core::Tree tree = service::materialize_tree(
        batch.front(), service::effective_seed(batch.front(), raw.seed));
    const core::Weight peak = core::opt_minmem(tree).peak;
    for (const service::PlanRequest& request : batch)
      if (service::resolve_memory(request, tree) >= peak) ++row.expected_unexpanded;
  }

  service::PlanService independent(raw);
  util::Stopwatch independent_wall;
  std::vector<service::PlanResponse> truth;
  truth.reserve(bounds);
  for (const service::PlanRequest& request : batch) truth.push_back(independent.plan(request));
  row.independent_seconds = independent_wall.seconds();

  service::PlanService fused_service(raw);
  util::Stopwatch fused_wall;
  const std::vector<service::PlanResponse> fused = fused_service.plan_fused(batch);
  row.fused_seconds = fused_wall.seconds();
  row.unexpanded = fused_service.stats().fused_unexpanded;

  row.identical = fused.size() == truth.size();
  for (std::size_t k = 0; row.identical && k < fused.size(); ++k)
    row.identical = fused[k].stats->ok && truth[k].stats->ok &&
                    service::identical(*fused[k].stats, *truth[k].stats);
  row.speedup = row.fused_seconds > 0 ? row.independent_seconds / row.fused_seconds : 0.0;
  return row;
}

struct RepeatRow {
  std::size_t batch = 0;
  double first_seconds = 0.0;   ///< the OptMinMem batch that stores the pass
  double repeat_seconds = 0.0;  ///< the batch answered from the stored pass
  double speedup = 0.0;
  bool identical = false;
  std::uint64_t pass_answers = 0;  ///< the service's pass_answers after both
};

/// The OptMinMem fusion batch on a cache-enabled service, then `bounds`
/// requests over the same tree at absolute bounds from the OptMinMem peak
/// up that the first batch did not resolve to, fused as a second batch.
RepeatRow run_repeat(std::size_t bounds, std::size_t nodes) {
  std::vector<service::PlanRequest> first;
  for (std::size_t k = 0; k < bounds; ++k) {
    service::PlanRequest request;
    request.id = static_cast<std::int64_t>(k) + 1;
    request.nodes = nodes;
    request.seed = 940001;  // the fusion rows' tree
    request.memory_lb = 1.05 + 0.1 * static_cast<double>(k);
    request.strategy = core::Strategy::kOptMinMem;
    first.push_back(request);
  }
  const service::ServiceConfig raw{.threads = 1, .cache_capacity = 0, .coalesce = false};
  const core::Tree tree = service::materialize_tree(
      first.front(), service::effective_seed(first.front(), raw.seed));
  std::vector<core::Weight> taken;
  for (const service::PlanRequest& request : first)
    taken.push_back(service::resolve_memory(request, tree));
  std::vector<service::PlanRequest> repeat;
  for (core::Weight memory = core::opt_minmem(tree).peak + 1; repeat.size() < bounds; ++memory) {
    if (std::find(taken.begin(), taken.end(), memory) != taken.end()) continue;
    service::PlanRequest request = first.front();
    request.id = static_cast<std::int64_t>(bounds + repeat.size()) + 1;
    request.memory = memory;
    repeat.push_back(request);
  }

  RepeatRow row;
  row.batch = bounds;
  service::PlanService cached_service(service::ServiceConfig{.threads = 1});
  util::Stopwatch first_wall;
  const std::vector<service::PlanResponse> stored = cached_service.plan_fused(first);
  row.first_seconds = first_wall.seconds();
  util::Stopwatch repeat_wall;
  const std::vector<service::PlanResponse> answers = cached_service.plan_fused(repeat);
  row.repeat_seconds = repeat_wall.seconds();
  row.pass_answers = cached_service.stats().pass_answers;
  row.speedup = row.repeat_seconds > 0 ? row.first_seconds / row.repeat_seconds : 0.0;

  service::PlanService independent(raw);
  row.identical = answers.size() == repeat.size();
  for (std::size_t k = 0; row.identical && k < answers.size(); ++k) {
    const service::PlanResponse truth = independent.plan(repeat[k]);
    row.identical = answers[k].stats->ok && truth.stats->ok &&
                    service::identical(*answers[k].stats, *truth.stats);
  }
  for (const service::PlanResponse& response : stored)
    row.identical = row.identical && response.stats->ok;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv);

  std::size_t requests = 0;
  std::size_t nodes = 0;
  const char* scale_name = "default";
  switch (scale) {
    case bench::Scale::kQuick:
      requests = 60;
      nodes = 400;
      scale_name = "quick";
      break;
    case bench::Scale::kDefault:
      requests = 240;
      nodes = 1500;
      break;
    case bench::Scale::kPaper:
      requests = 480;
      nodes = 3000;
      scale_name = "paper";
      break;
  }
  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  const std::vector<MixSpec> mixes{{0.0, "0%"}, {0.5, "50%"}, {0.9, "90%"}};
  const std::size_t cores = std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::printf("== planning-service throughput: threads x cache-hit mix ==\n");
  std::printf("scale=%s  requests=%zu  n=%zu  M=1.1*LB  cores=%zu\n\n", scale_name, requests,
              nodes, cores);

  util::CsvWriter csv("bench_service_throughput.csv",
                      {"threads", "hit_target", "requests", "unique", "seconds", "rps",
                       "computed", "cached", "coalesced", "failed", "mean_compute_ms",
                       "mean_cached_ms"});

  std::vector<Cell> cells;
  for (const MixSpec& mix : mixes) {
    const auto unique = static_cast<std::size_t>(
        std::max(1.0, static_cast<double>(requests) * (1.0 - mix.hit_target) + 0.5));
    const std::vector<service::PlanRequest> batch = build_mix(requests, unique, nodes);

    for (const std::size_t threads : thread_counts) {
      service::ServiceConfig config;
      config.threads = threads;
      config.cache_capacity = 4096;
      service::PlanService planner(config);

      util::Stopwatch wall;
      auto futures = planner.submit_batch(batch);
      double compute_seconds = 0.0;
      double cached_seconds = 0.0;
      std::size_t compute_count = 0;
      std::size_t cached_count = 0;
      for (auto& future : futures) {
        const service::PlanResponse response = future.get();
        if (response.served == service::Served::kComputed) {
          compute_seconds += response.seconds;
          ++compute_count;
        } else if (response.served == service::Served::kCached) {
          cached_seconds += response.seconds;
          ++cached_count;
        }
      }
      const double seconds = wall.seconds();

      const service::ServiceStats stats = planner.stats();
      Cell cell;
      cell.threads = threads;
      cell.hit_target = mix.hit_target;
      cell.requests = requests;
      cell.unique = unique;
      cell.seconds = seconds;
      cell.rps = static_cast<double>(requests) / seconds;
      cell.computed = stats.computed;
      cell.cached = stats.cached;
      cell.coalesced = stats.coalesced;
      cell.failed = stats.failed;
      cell.mean_compute_ms =
          compute_count > 0 ? compute_seconds * 1e3 / static_cast<double>(compute_count) : 0.0;
      cell.mean_cached_ms =
          cached_count > 0 ? cached_seconds * 1e3 / static_cast<double>(cached_count) : 0.0;
      cells.push_back(cell);

      csv.row({static_cast<std::int64_t>(threads), mix.hit_target,
               static_cast<std::int64_t>(requests), static_cast<std::int64_t>(unique), seconds,
               cell.rps, static_cast<std::int64_t>(cell.computed),
               static_cast<std::int64_t>(cell.cached), static_cast<std::int64_t>(cell.coalesced),
               static_cast<std::int64_t>(cell.failed), cell.mean_compute_ms,
               cell.mean_cached_ms});
      std::printf("threads=%zu hit=%-4s %8.1f req/s  (%llu computed, %llu cached, "
                  "%llu coalesced)  compute %.3f ms  cached %.4f ms\n",
                  threads, mix.name, cell.rps, (unsigned long long)cell.computed,
                  (unsigned long long)cell.cached, (unsigned long long)cell.coalesced,
                  cell.mean_compute_ms, cell.mean_cached_ms);
      if (cell.failed != 0) {
        std::printf("FAILED responses in the mix — aborting\n");
        return 1;
      }
    }
  }

  // Differential pass: recompute every unique spec of the 90% mix on a
  // cache-disabled single-thread service and require every response of the
  // cached 8-thread run to be bit-identical to recomputation.
  std::printf("\ndifferential: cached vs uncached recomputation ... ");
  std::fflush(stdout);
  bool differential_ok = true;
  {
    const auto unique = static_cast<std::size_t>(
        std::max(1.0, static_cast<double>(requests) * 0.1 + 0.5));
    const std::vector<service::PlanRequest> batch = build_mix(requests, unique, nodes);

    service::ServiceConfig cached_config;
    cached_config.threads = 8;
    cached_config.cache_capacity = 4096;
    service::PlanService cached_service(cached_config);
    auto futures = cached_service.submit_batch(batch);

    service::ServiceConfig raw_config;
    raw_config.threads = 1;
    raw_config.cache_capacity = 0;  // every plan() recomputes
    raw_config.coalesce = false;
    service::PlanService raw_service(raw_config);
    std::vector<std::shared_ptr<const service::PlanStats>> truth(unique);
    for (std::size_t s = 0; s < unique; ++s)
      truth[s] = raw_service.plan(batch[s]).stats;  // batch[s] is spec s's first occurrence

    for (std::size_t k = 0; k < batch.size(); ++k) {
      const service::PlanResponse response = futures[k].get();
      const service::PlanStats& expect = *truth[k % unique];
      if (!response.stats->ok || !service::identical(*response.stats, expect)) {
        std::printf("MISMATCH at request id %lld (spec %zu)\n", (long long)batch[k].id,
                    k % unique);
        differential_ok = false;
      }
    }
  }
  std::printf("%s\n", differential_ok ? "identical" : "FAILED");

  // ---- server block: overload, fairness, fusion --------------------------
  std::printf("\n== multi-tenant server: overload / fairness / fusion ==\n");
  const std::size_t overload_offered = scale == bench::Scale::kQuick ? 80 : 240;
  const std::size_t overload_nodes = scale == bench::Scale::kQuick ? 200 : 400;
  const OverloadResult overload = run_overload(overload_offered, overload_nodes);
  std::printf("overload: offered=%llu admitted=%llu shed=%llu (%.0f%%)  queue peak %zu/%zu  %s\n",
              (unsigned long long)overload.offered, (unsigned long long)overload.admitted,
              (unsigned long long)overload.shed, overload.shed_rate * 100.0, overload.queue_peak,
              overload.depth, overload.pass ? "PASS" : "FAIL");

  const std::size_t fairness_unit = scale == bench::Scale::kQuick ? 10 : 30;
  const FairnessResult fairness = run_fairness(fairness_unit, /*nodes=*/80);
  for (const TenantLatency& tenant : fairness.tenants)
    std::printf("fairness: %-6s weight %.0f  %3zu requests  wait p50 %8.2f ms  p99 %8.2f ms\n",
                tenant.tenant.c_str(), tenant.weight, tenant.requests, tenant.p50_ms,
                tenant.p99_ms);
  std::printf("fairness: quota floor (gamma within 4k+8 dispatches) — %s\n",
              fairness.pass ? "PASS" : "FAIL");

  const std::size_t fusion_bounds = 12;
  const std::size_t fusion_nodes = scale == bench::Scale::kQuick ? 2000 : 8000;
  const FusionRow fusion_rows[] = {
      run_fusion(core::Strategy::kOptMinMem, "optminmem", fusion_bounds, fusion_nodes),
      run_fusion(core::Strategy::kRecExpand, "recexpand", fusion_bounds, fusion_nodes)};
  for (const FusionRow& row : fusion_rows)
    std::printf("fusion:   %-9s K=%zu  independent %.3fs  fused %.3fs  %.2fx  %s  "
                "unexpanded %llu/%llu\n",
                row.strategy, row.batch, row.independent_seconds, row.fused_seconds, row.speedup,
                row.identical ? "identical" : "MISMATCH", (unsigned long long)row.unexpanded,
                (unsigned long long)row.expected_unexpanded);
  const bool fusion_identical = fusion_rows[0].identical && fusion_rows[1].identical;
  const bool fusion_counted = fusion_rows[0].unexpanded == fusion_rows[0].expected_unexpanded &&
                              fusion_rows[1].unexpanded == fusion_rows[1].expected_unexpanded;
  const bool fusion_pass = fusion_identical && fusion_counted && fusion_rows[0].speedup >= 1.5;

  const RepeatRow repeat = run_repeat(fusion_bounds, fusion_nodes);
  const bool repeat_pass = repeat.identical && repeat.pass_answers == repeat.batch;
  std::printf("repeat:   optminmem K=%zu  first %.4fs  repeat %.4fs  %.2fx  %s  "
              "pass answers %llu/%zu\n",
              repeat.batch, repeat.first_seconds, repeat.repeat_seconds, repeat.speedup,
              repeat.identical ? "identical" : "MISMATCH", (unsigned long long)repeat.pass_answers,
              repeat.batch);

  {
    util::CsvWriter server_csv("bench_service_server.csv",
                               {"section", "label", "requests", "admitted", "shed", "queue_peak",
                                "p50_wait_ms", "p99_wait_ms", "seconds", "speedup", "pass"});
    server_csv.row({"overload", "shed-policy", static_cast<std::int64_t>(overload.offered),
                    static_cast<std::int64_t>(overload.admitted),
                    static_cast<std::int64_t>(overload.shed),
                    static_cast<std::int64_t>(overload.queue_peak), 0.0, 0.0, overload.seconds,
                    0.0, static_cast<std::int64_t>(overload.pass ? 1 : 0)});
    for (const TenantLatency& tenant : fairness.tenants)
      server_csv.row({"fairness", tenant.tenant, static_cast<std::int64_t>(tenant.requests),
                      static_cast<std::int64_t>(tenant.requests), std::int64_t{0}, std::int64_t{0},
                      tenant.p50_ms, tenant.p99_ms, fairness.seconds, 0.0,
                      static_cast<std::int64_t>(fairness.pass ? 1 : 0)});
    for (const FusionRow& row : fusion_rows)
      server_csv.row({"fusion", row.strategy, static_cast<std::int64_t>(row.batch),
                      static_cast<std::int64_t>(row.batch), std::int64_t{0}, std::int64_t{0}, 0.0,
                      0.0, row.fused_seconds, row.speedup,
                      static_cast<std::int64_t>(row.identical ? 1 : 0)});
    server_csv.row({"repeat", "optminmem", static_cast<std::int64_t>(repeat.batch),
                    static_cast<std::int64_t>(repeat.batch), std::int64_t{0}, std::int64_t{0}, 0.0,
                    0.0, repeat.repeat_seconds, repeat.speedup,
                    static_cast<std::int64_t>(repeat_pass ? 1 : 0)});
  }

  // Acceptance numbers.
  const auto cell_at = [&](std::size_t threads, double hit) -> const Cell* {
    for (const Cell& c : cells)
      if (c.threads == threads && c.hit_target == hit) return &c;
    return nullptr;
  };
  const Cell* t1 = cell_at(1, 0.0);
  const Cell* t8 = cell_at(8, 0.0);
  const Cell* latency_cell = cell_at(1, 0.9);
  const double speedup = (t1 != nullptr && t8 != nullptr && t1->rps > 0) ? t8->rps / t1->rps : 0;
  const double threshold =
      std::min(4.0, 0.85 * static_cast<double>(std::min<std::size_t>(8, cores)));
  const bool throughput_pass = speedup >= threshold;
  const double latency_reduction =
      (latency_cell != nullptr && latency_cell->mean_compute_ms > 0)
          ? 1.0 - latency_cell->mean_cached_ms / latency_cell->mean_compute_ms
          : 0.0;
  const bool latency_pass = latency_reduction >= 0.99;

  std::FILE* json = std::fopen("bench_service_throughput.json", "w");
  if (json == nullptr) {
    std::printf("cannot write bench_service_throughput.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"service_throughput\",\n  \"scale\": \"%s\",\n",
               scale_name);
  std::fprintf(json,
               "  \"dataset\": \"SYNTH (uniform binary, weights 1..100), RecExpand at "
               "M = 1.1*LB, 1/5 specs with 4-worker replay\",\n");
  std::fprintf(json, "  \"requests\": %zu,\n  \"nodes\": %zu,\n  \"cores\": %zu,\n", requests,
               nodes, cores);
  std::fprintf(json, "  \"cells\": [\n");
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const Cell& c = cells[k];
    std::fprintf(json,
                 "    {\"threads\": %zu, \"hit_target\": %.2f, \"unique\": %zu, "
                 "\"seconds\": %.6f, \"rps\": %.2f, \"computed\": %llu, \"cached\": %llu, "
                 "\"coalesced\": %llu, \"mean_compute_ms\": %.4f, \"mean_cached_ms\": %.5f}%s\n",
                 c.threads, c.hit_target, c.unique, c.seconds, c.rps,
                 (unsigned long long)c.computed, (unsigned long long)c.cached,
                 (unsigned long long)c.coalesced, c.mean_compute_ms, c.mean_cached_ms,
                 k + 1 < cells.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"server\": {\n"
               "    \"overload\": {\"offered\": %llu, \"admitted\": %llu, \"shed\": %llu, "
               "\"shed_rate\": %.3f, \"queue_peak\": %zu, \"queue_depth_bound\": %zu, "
               "\"seconds\": %.4f},\n",
               (unsigned long long)overload.offered, (unsigned long long)overload.admitted,
               (unsigned long long)overload.shed, overload.shed_rate, overload.queue_peak,
               overload.depth, overload.seconds);
  std::fprintf(json, "    \"fairness\": {\"tenants\": [\n");
  for (std::size_t k = 0; k < fairness.tenants.size(); ++k) {
    const TenantLatency& tenant = fairness.tenants[k];
    std::fprintf(json,
                 "      {\"tenant\": \"%s\", \"weight\": %.1f, \"requests\": %zu, "
                 "\"p50_wait_ms\": %.3f, \"p99_wait_ms\": %.3f}%s\n",
                 tenant.tenant.c_str(), tenant.weight, tenant.requests, tenant.p50_ms,
                 tenant.p99_ms, k + 1 < fairness.tenants.size() ? "," : "");
  }
  std::fprintf(json, "    ], \"floor_violations\": %llu},\n",
               (unsigned long long)fairness.floor_violations);
  std::fprintf(json, "    \"fusion\": [\n");
  for (std::size_t k = 0; k < std::size(fusion_rows); ++k) {
    const FusionRow& row = fusion_rows[k];
    std::fprintf(json,
                 "      {\"strategy\": \"%s\", \"batch\": %zu, \"nodes\": %zu, "
                 "\"independent_seconds\": %.4f, \"fused_seconds\": %.4f, \"speedup\": %.3f, "
                 "\"identical\": %s, \"fused_unexpanded\": %llu, "
                 "\"expected_unexpanded\": %llu}%s\n",
                 row.strategy, row.batch, fusion_nodes, row.independent_seconds, row.fused_seconds,
                 row.speedup, row.identical ? "true" : "false", (unsigned long long)row.unexpanded,
                 (unsigned long long)row.expected_unexpanded,
                 k + 1 < std::size(fusion_rows) ? "," : "");
  }
  std::fprintf(json, "    ],\n");
  std::fprintf(json,
               "    \"repeat\": {\"strategy\": \"optminmem\", \"batch\": %zu, \"nodes\": %zu, "
               "\"first_seconds\": %.4f, \"repeat_seconds\": %.4f, \"speedup\": %.3f, "
               "\"identical\": %s, \"pass_answers\": %llu, \"expected_pass_answers\": %zu}\n",
               repeat.batch, fusion_nodes, repeat.first_seconds, repeat.repeat_seconds,
               repeat.speedup, repeat.identical ? "true" : "false",
               (unsigned long long)repeat.pass_answers, repeat.batch);
  std::fprintf(json, "  },\n");
  std::fprintf(json,
               "  \"acceptance\": {\n"
               "    \"throughput\": {\"mix\": \"0%%-hit\", \"speedup_8v1\": %.3f, "
               "\"cores\": %zu, \"threshold_effective\": %.3f, \"target_8core\": 4.0, "
               "\"pass\": %s},\n"
               "    \"latency\": {\"mix\": \"90%%-hit, 1 thread\", \"reduction\": %.5f, "
               "\"threshold\": 0.99, \"pass\": %s},\n"
               "    \"differential\": {\"pass\": %s},\n"
               "    \"overload\": {\"queue_bounded\": %s, \"conserved\": %s, \"shed\": %llu, "
               "\"pass\": %s},\n"
               "    \"fairness\": {\"floor_violations\": %llu, \"pass\": %s},\n"
               "    \"fusion\": {\"identical\": %s, \"unexpanded_exact\": %s, "
               "\"optminmem_speedup\": %.3f, \"threshold\": 1.5, \"recexpand_speedup\": %.3f, "
               "\"pass\": %s},\n"
               "    \"repeat\": {\"identical\": %s, \"pass_answers_exact\": %s, "
               "\"speedup\": %.3f, \"pass\": %s}\n  }\n}\n",
               speedup, cores, threshold, throughput_pass ? "true" : "false", latency_reduction,
               latency_pass ? "true" : "false", differential_ok ? "true" : "false",
               overload.bounded ? "true" : "false", overload.conserved ? "true" : "false",
               (unsigned long long)overload.shed, overload.pass ? "true" : "false",
               (unsigned long long)fairness.floor_violations, fairness.pass ? "true" : "false",
               fusion_identical ? "true" : "false", fusion_counted ? "true" : "false",
               fusion_rows[0].speedup, fusion_rows[1].speedup, fusion_pass ? "true" : "false",
               repeat.identical ? "true" : "false",
               repeat.pass_answers == repeat.batch ? "true" : "false", repeat.speedup,
               repeat_pass ? "true" : "false");
  std::fclose(json);

  std::printf("\nacceptance:\n");
  std::printf("  throughput 0%%-hit: %.2fx at 8 vs 1 threads on %zu core(s) "
              "(effective threshold %.2fx, 8-core target 4x) — %s\n",
              speedup, cores, threshold, throughput_pass ? "PASS" : "FAIL");
  std::printf("  latency 90%%-hit:   %.2f%% cache-served reduction (threshold 99%%) — %s\n",
              latency_reduction * 100.0, latency_pass ? "PASS" : "FAIL");
  std::printf("  differential:      %s\n", differential_ok ? "PASS" : "FAIL");
  std::printf("  overload:          queue peak %zu <= %zu, %llu shed, conserved — %s\n",
              overload.queue_peak, overload.depth, (unsigned long long)overload.shed,
              overload.pass ? "PASS" : "FAIL");
  std::printf("  fairness:          %llu quota-floor violations — %s\n",
              (unsigned long long)fairness.floor_violations, fairness.pass ? "PASS" : "FAIL");
  std::printf("  fusion:            identical %s, recexpand unexpanded %llu of %llu expected, "
              "optminmem %.2fx (threshold 1.5x), recexpand %.2fx — %s\n",
              fusion_identical ? "yes" : "NO", (unsigned long long)fusion_rows[1].unexpanded,
              (unsigned long long)fusion_rows[1].expected_unexpanded, fusion_rows[0].speedup,
              fusion_rows[1].speedup, fusion_pass ? "PASS" : "FAIL");
  std::printf("  repeat:            identical %s, %llu of %zu answered from the stored pass, "
              "%.2fx over the first batch — %s\n",
              repeat.identical ? "yes" : "NO", (unsigned long long)repeat.pass_answers,
              repeat.batch, repeat.speedup, repeat_pass ? "PASS" : "FAIL");
  std::printf("results written to bench_service_throughput.csv, bench_service_server.csv "
              "and bench_service_throughput.json\n");
  std::printf("(to refresh the committed baseline: cp bench_service_throughput.json "
              "<repo>/BENCH_service.json)\n");
  const bool hard_gates = differential_ok && overload.pass && fairness.pass && fusion_identical &&
                          fusion_counted && repeat_pass;
  return hard_gates ? 0 : 1;
}
