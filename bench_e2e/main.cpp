// bench_e2e — end-to-end benchmark of the plan server.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//
// Feeds a seeded JSONL request stream (workloads.hpp) through
// service::request_from_json into an in-process server::PlanServer and
// measures one closed-loop window: a single generator thread keeps the
// workload's window of requests outstanding, timing each from decode to
// the moment its response is observed ready. Readiness is polled across
// the whole window, so a slow head request never delays the timestamps of
// the ones behind it; between polls the generator blocks on the oldest
// request for at most 0.1 ms instead of spinning. The server runs 3
// dispatch workers, so at most 4 threads are busy. Throughput and p50 are
// medians over kSlices equal slices of the window, so a burst of outside
// load moves one slice rather than the whole figure. The window ends early
// if the stream runs out (its figures then cover the positions served);
// the stream positions that io_volume_sum and the answer checks need are
// served after the window, untimed, if the window did not reach them, so
// a slow host lowers the throughput figures but never fails a check.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// stream, records decode / server.queue / service.serve spans per request,
// replays a sample of distinct requests the server computed layer by layer
// (decompose.hpp), writes the spans to
// .bench_build/work/<workload>-<seed>.trace.json and prints the per-layer
// metrics. Every run checks its answers: admission conservation, and a
// seeded sample of distinct requests recomputed on a fresh single-thread,
// cache-less PlanService must match identical(). The last stdout line is
// one JSON object {correct, attempted, failed, metrics}; a failed check
// exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "decompose.hpp"
#include "src/server/plan_server.hpp"
#include "src/service/plan_service.hpp"
#include "src/service/request_io.hpp"
#include "src/util/rng.hpp"
#include "src/util/stopwatch.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

namespace server = ooctree::server;
namespace service = ooctree::service;
using bench::Stream;
using bench::Tracer;
using bench::Workload;
using Clock = std::chrono::steady_clock;

constexpr const char* kWorkDir = ".bench_build/work";  ///< inputs and traces, under the cwd
constexpr std::size_t kSetupReps = 5;      ///< setup_s is the median of these
constexpr std::size_t kPrefix = 1000;      ///< the timed window covers at least this many requests
constexpr std::size_t kAnswers = 1500;     ///< distinct answers io_volume_sum covers
constexpr std::size_t kGateSample = 64;    ///< distinct requests recomputed; also replays traced
constexpr std::size_t kCandidates = 192;   ///< ranked distinct requests a traced replay may pick
constexpr double kCoverageTolerance = 0.05;  ///< max uncovered share per replay
constexpr std::size_t kSlices = 10;        ///< window slices throughput and p50 are medians of

/// Quantile q of `samples` by nearest rank. Refuses (throws) when fewer
/// than 10 samples lie beyond it on the far side, so a p99 needs >= 1000.
double percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const std::size_t beyond = std::min(rank == 0 ? 0 : rank - 1, n - std::min(n, rank));
  if (rank == 0 || beyond < 10)
    throw std::runtime_error("percentile " + std::to_string(q) + " of " + std::to_string(n) +
                             " samples has fewer than 10 samples beyond it");
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(double sum, std::size_t count) { return count == 0 ? 0.0 : sum / double(count); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value, &used);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value, &used);
    } else if (key == "--trace") {
      o.trace = std::stoi(value, &used) != 0;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
    if (used != 0 && used != value.size()) throw std::invalid_argument("bad value for " + key);
  }
  if (o.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return o;
}

/// What one closed-loop pass over stream positions [begin, end) observed.
/// Figures of the timed window count only requests submitted in it.
struct Window {
  double seconds = 0.0;          ///< length of the timed window
  std::size_t attempted = 0;     ///< timed requests
  std::size_t failed = 0;        ///< timed requests answered ok=false or shed
  std::size_t untimed_failed = 0;
  bool exhausted = false;        ///< the range ran out inside the timed window
  std::vector<double> latency;   ///< seconds, every timed request
  std::vector<double> done_at;   ///< seconds into the window each ok response was observed
  std::vector<double> wait;      ///< server-reported queue wait, seconds
  std::vector<double> serve;     ///< PlanResponse::seconds
  double decode_seconds = 0.0;   ///< traced only
  std::vector<std::int64_t> io_volume;  ///< written volume per position in [begin, must_serve)
  std::map<std::size_t, service::PlanResponse> kept;
};

/// Runs positions [begin, end) through `srv`, `window` at a time. The
/// timed window lasts `seconds` after the first submit and at least until
/// kPrefix requests were submitted, and ends early if the range runs out.
/// Positions before `must_serve` that it did not reach are then served
/// untimed. Written volume is recorded for every position before
/// `must_serve` and answers at positions in `keep` are kept; with a
/// tracer, decode time is measured and timed positions < begin + kPrefix
/// get decode / queue / serve spans.
Window run_window(server::PlanServer& srv, const Stream& stream, std::size_t begin,
                  std::size_t end, std::size_t window, double seconds, std::size_t must_serve,
                  const std::set<std::size_t>& keep, Tracer* tracer) {
  struct Slot {
    std::future<server::ServerResponse> future;
    std::size_t pos = 0;
    Clock::time_point t0;
    Clock::time_point decoded;
    bool active = false;
    bool timed = false;
  };
  if (must_serve > end) throw std::logic_error("run_window: must_serve beyond the range");
  Window out;
  out.io_volume.assign(std::max(must_serve, begin) - begin, -1);
  std::vector<Slot> slots(window);
  std::size_t next = begin;
  const Clock::time_point start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  Clock::time_point last_timed_submit = start;
  Clock::time_point last_timed_done = start;
  const auto submit = [&](Slot& slot, bool timed) {
    slot.pos = next++;
    slot.t0 = Clock::now();
    service::PlanRequest request =
        service::request_from_json(stream.line(slot.pos), static_cast<std::int64_t>(slot.pos + 1));
    if (tracer != nullptr) slot.decoded = Clock::now();
    slot.future = srv.submit(std::move(request));
    slot.active = true;
    slot.timed = timed;
    if (timed) {
      ++out.attempted;
      last_timed_submit = slot.t0;
    }
  };
  std::size_t active = 0;
  for (Slot& slot : slots) {
    if (next == end) break;
    submit(slot, true);
    ++active;
  }
  while (active > 0) {
    bool progressed = false;
    for (Slot& slot : slots) {
      if (!slot.active ||
          slot.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
        continue;
      const Clock::time_point t1 = Clock::now();
      const server::ServerResponse r = slot.future.get();
      slot.active = false;
      --active;
      progressed = true;
      const bool ok = !r.shed && r.plan.stats->ok;
      const std::size_t rel = slot.pos - begin;
      if (rel < out.io_volume.size())
        out.io_volume[rel] = ok ? r.plan.stats->io_volume + r.plan.stats->parallel_io : -1;
      if (keep.count(slot.pos) != 0) out.kept.emplace(slot.pos, r.plan);
      if (!slot.timed) {
        if (!ok) ++out.untimed_failed;
      } else {
        last_timed_done = t1;
        out.latency.push_back(std::chrono::duration<double>(t1 - slot.t0).count());
        out.wait.push_back(r.wait_seconds);
        out.serve.push_back(r.plan.seconds);
        if (!ok) ++out.failed;
        out.done_at.push_back(ok ? std::chrono::duration<double>(t1 - start).count() : -1.0);
        if (tracer != nullptr) {
          out.decode_seconds += std::chrono::duration<double>(slot.decoded - slot.t0).count();
          if (rel < kPrefix) {
            const auto id = static_cast<std::int64_t>(slot.pos + 1);
            const double submitted = tracer->at(slot.decoded);
            const std::int32_t root = tracer->record("bench.window_request", tracer->at(slot.t0),
                                                     tracer->at(t1), -1, id);
            tracer->record("request_io.request_from_json", tracer->at(slot.t0), submitted, root,
                           id);
            tracer->record("server.queue", submitted, submitted + r.wait_seconds, root, id);
            tracer->record("service.serve", submitted + r.wait_seconds,
                           submitted + r.wait_seconds + r.plan.seconds, root, id);
          }
        }
      }
      const bool timed_open = t1 < deadline || out.attempted < kPrefix;
      if (next == end) {
        if (timed_open) out.exhausted = true;
      } else if (timed_open || next < must_serve) {
        submit(slot, timed_open);
        ++active;
      }
    }
    if (!progressed) {
      const auto oldest = std::min_element(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
        return a.active != b.active ? a.active : a.t0 < b.t0;
      });
      oldest->future.wait_for(std::chrono::microseconds(100));
    }
  }
  const auto since_start = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  out.seconds = std::min(std::max(seconds, since_start(last_timed_submit)),
                         since_start(last_timed_done));
  return out;
}

/// First positions of the distinct texts within the prefix, in a seeded
/// order, at most kCandidates. The first kGateSample are the correctness
/// gate's sample.
std::vector<std::size_t> ranked_firsts(const Stream& stream, std::uint64_t seed) {
  std::vector<std::size_t> firsts;
  std::set<std::uint32_t> seen;
  for (std::size_t pos = 0; pos < std::min(kPrefix, stream.order.size()); ++pos)
    if (seen.insert(stream.order[pos]).second) firsts.push_back(pos);
  ooctree::util::Rng rng(ooctree::util::derive_seed(seed, 0x6a7eULL));
  for (std::size_t i = firsts.size(); i > 1; --i) std::swap(firsts[i - 1], firsts[rng.index(i)]);
  firsts.resize(std::min(firsts.size(), kCandidates));
  return firsts;
}

/// Positions where the stream's first `count` distinct answers first occur.
/// io_volume_sum adds their written volume, each answer once, so every seed
/// sums the same number of answers and a popular repeat does not outweigh
/// the rest.
std::vector<std::size_t> first_answers(const Stream& stream, std::size_t count) {
  std::vector<std::size_t> firsts;
  std::set<std::uint32_t> seen;
  for (std::size_t pos = 0; pos < stream.order.size() && firsts.size() < count; ++pos)
    if (seen.insert(stream.answer[stream.order[pos]]).second) firsts.push_back(pos);
  if (firsts.size() < count) throw std::logic_error("stream has too few distinct answers");
  return firsts;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::fprintf(stderr, "  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
}

/// Self-tests of the benchmark's own helpers that need no stream.
void self_test_percentile() {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  if (percentile(v, 0.99) != 990.0 || percentile(v, 0.5) != 500.0)
    throw std::logic_error("self-test: percentile rank");
  v.pop_back();
  bool refused = false;
  try {
    static_cast<void>(percentile(v, 0.99));
  } catch (const std::runtime_error&) {
    refused = true;
  }
  if (!refused) throw std::logic_error("self-test: p99 of 999 samples was not refused");
}

int run(const Options& options) {
  const Workload* workload = bench::find_workload(options.workload);
  if (workload == nullptr) throw std::invalid_argument("unknown workload '" + options.workload + "'");
  self_test_percentile();

  const std::string dir =
      std::string(kWorkDir) + "/" + workload->name + "-" + std::to_string(options.seed);
  struct RemoveOnExit {  // declared before the server, so it outlives it
    const std::string& dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } const cleanup{dir};
  const server::ServerConfig config = bench::server_config(*workload);
  const std::size_t warm_begin = workload->length - workload->warmup;

  // Set-up runs kSetupReps times, each from an empty directory; the last
  // one is measured. Each rep must reproduce the stream and files byte for
  // byte.
  std::unique_ptr<server::PlanServer> srv;
  Stream stream;
  std::vector<double> setup_seconds;
  std::set<std::uint64_t> digests;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    srv.reset();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const ooctree::util::Stopwatch watch;
    stream = bench::make_stream(*workload, options.seed, dir);
    srv = std::make_unique<server::PlanServer>(config);
    const Window warm = run_window(*srv, stream, warm_begin, workload->length, workload->window,
                                   1e9, 0, {}, nullptr);
    setup_seconds.push_back(watch.seconds());
    if (warm.failed != 0) throw std::runtime_error("warm-up request failed");
    digests.insert(bench::stream_digest(stream));
  }
  if (digests.size() != 1) throw std::logic_error("self-test: one seed gave different inputs");

  const std::vector<std::size_t> candidates = ranked_firsts(stream, options.seed);
  const std::vector<std::size_t> answer_firsts = first_answers(stream, kAnswers);
  const std::size_t keep_count =
      options.trace ? candidates.size() : std::min(kGateSample, candidates.size());
  const std::set<std::size_t> keep(candidates.begin(),
                                   candidates.begin() + static_cast<std::ptrdiff_t>(keep_count));
  const server::ServerStats before = srv->stats();
  Tracer tracer;
  const Window w = run_window(*srv, stream, 0, warm_begin, workload->window, options.seconds,
                              std::max(kPrefix, answer_firsts.back() + 1), keep,
                              options.trace ? &tracer : nullptr);
  srv->drain();
  const server::ServerStats after = srv->stats();

  bool correct = true;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
    correct = false;
  };
  const server::AdmissionCounters& adm = after.admission;
  if (adm.submitted != adm.admitted + adm.shed()) fail("admission conservation");
  if (w.untimed_failed != 0) fail(std::to_string(w.untimed_failed) + " untimed requests failed");

  // Correctness gate: recompute the first kGateSample candidates on a
  // fresh single-thread, cache-less service and compare every field. The
  // traced run also replays, layer by layer, the first kGateSample
  // candidates the server computed (not answered from the cache or by
  // coalescing), recomputing those too; each replay must equal the
  // server's answer and its layers must cover its wall time. Replay and
  // recomputation alternate in order, so neither always runs on warm
  // caches.
  service::ServiceConfig fresh_config = config.service;
  fresh_config.threads = 1;
  fresh_config.cache_capacity = 0;
  service::PlanService fresh(fresh_config);
  bench::LayerCounts counts;
  const std::size_t first_span = tracer.spans().size();
  std::vector<std::int32_t> roots;
  double overhead = 0.0;
  for (std::size_t rank = 0; rank < candidates.size(); ++rank) {
    const std::size_t pos = candidates[rank];
    const auto it = w.kept.find(pos);
    if (it == w.kept.end()) {
      if (rank < kGateSample) fail("sampled position " + std::to_string(pos) + " was not served");
      continue;
    }
    const bool computed =
        it->second.served == service::Served::kComputed || it->second.served == service::Served::kFused;
    const bool traced = options.trace && computed && roots.size() < kGateSample;
    if (rank >= kGateSample && !traced) continue;
    const auto id = static_cast<std::int64_t>(pos + 1);
    double recompute_s = 0.0;
    const auto recompute = [&] {
      const ooctree::util::Stopwatch watch;
      const service::PlanResponse again =
          fresh.plan(service::request_from_json(stream.line(pos), id));
      recompute_s = watch.seconds();
      if (!service::identical(*again.stats, *it->second.stats))
        fail("recomputed answer differs at position " + std::to_string(pos));
    };
    const auto decompose = [&] {
      roots.push_back(static_cast<std::int32_t>(tracer.spans().size()));
      const auto stats = bench::decompose(stream.line(pos), id, config.service.seed, tracer, counts);
      const bench::Span& root = tracer.spans()[static_cast<std::size_t>(roots.back())];
      overhead += root.end - root.start;
      if (!service::identical(*stats, *it->second.stats))
        fail("decomposed answer differs at position " + std::to_string(pos));
    };
    if (!traced) {
      recompute();
    } else if (roots.size() % 2 == 0) {
      decompose();
      recompute();
      overhead -= recompute_s;
    } else {
      recompute();
      decompose();
      overhead -= recompute_s;
    }
  }

  double io_volume_sum = 0;
  for (const std::size_t pos : answer_firsts) {
    if (w.io_volume[pos] < 0) fail("position " + std::to_string(pos) + " failed or was not served");
    io_volume_sum += static_cast<double>(std::max<std::int64_t>(w.io_volume[pos], 0));
  }
  std::fprintf(stderr,
               "%s seed %llu: %zu requests (%zu failed), %zu latency samples, %.2f s%s; "
               "%zu requests served after the window\n",
               workload->name.c_str(), static_cast<unsigned long long>(options.seed),
               w.attempted, w.failed, w.latency.size(), w.seconds,
               w.exhausted ? " (the stream ran out first)" : "",
               w.io_volume.size() > w.attempted ? w.io_volume.size() - w.attempted : 0);
  if (options.trace)
    std::fprintf(stderr, "%zu computed requests replayed layer by layer\n", roots.size());

  std::vector<Metric> metrics;
  if (!options.trace) {
    // Per-slice throughput and p50 over kSlices equal slices of the window.
    const double slice = w.seconds / static_cast<double>(kSlices);
    std::vector<std::vector<double>> slice_latency(kSlices);
    for (std::size_t i = 0; i < w.latency.size(); ++i)
      if (w.done_at[i] >= 0 && w.done_at[i] < w.seconds)
        slice_latency[std::min(kSlices - 1, static_cast<std::size_t>(w.done_at[i] / slice))]
            .push_back(w.latency[i]);
    std::vector<double> slice_rps;
    std::vector<double> slice_p50;
    for (const std::vector<double>& l : slice_latency) {
      slice_rps.push_back(static_cast<double>(l.size()) / slice);
      slice_p50.push_back(percentile(l, 0.50));
    }
    metrics = {
        {"throughput_rps", median(slice_rps), "req/s"},
        {"latency_p50_ms", median(slice_p50) * 1e3, "ms"},
        {"latency_p99_ms", percentile(w.latency, 0.99) * 1e3, "ms"},
        {"ok_ratio",
         static_cast<double>(w.attempted - w.failed) / static_cast<double>(w.attempted), "ratio"},
        {"io_volume_sum", io_volume_sum, "mem_units"},
        {"setup_s", median(setup_seconds), "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
    };
  } else {
    const std::vector<double> self = bench::self_times(tracer.spans());
    std::map<std::string, std::pair<double, std::size_t>> calls;  // name -> (self s, count)
    for (std::size_t i = first_span; i < tracer.spans().size(); ++i) {
      auto& [seconds, count] = calls[tracer.spans()[i].name];
      seconds += self[i];
      ++count;
    }
    double uncovered = 0.0;
    double wall = 0.0;
    for (const std::int32_t r : roots) {
      const bench::Span& root = tracer.spans()[static_cast<std::size_t>(r)];
      const double share = self[static_cast<std::size_t>(r)] / (root.end - root.start);
      if (share > kCoverageTolerance)
        fail("layers cover only " + std::to_string(100.0 * (1.0 - share)) + "% of request " +
             std::to_string(root.request));
      uncovered += self[static_cast<std::size_t>(r)];
      wall += root.end - root.start;
    }
    const auto call_ms = [&](const char* name) {
      const auto& [seconds, count] = calls[name];
      return mean(seconds, count) * 1e3;
    };
    const auto count = [](std::int64_t v) { return static_cast<double>(v); };
    const auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };
    const double dispatched = delta(after.dispatched, before.dispatched);
    const double completed = delta(after.service.completed, before.service.completed);
    metrics = {
        {"request_io.decode_us", mean(w.decode_seconds, w.attempted) * 1e6, "us"},
        {"server.wait_ms_p50", percentile(w.wait, 0.50) * 1e3, "ms"},
        {"server.wait_ms_p99", percentile(w.wait, 0.99) * 1e3, "ms"},
        {"server.fused_share",
         dispatched > 0 ? delta(after.fused_requests, before.fused_requests) / dispatched : 0.0,
         "ratio"},
        {"server.fused_groups", delta(after.fused_groups, before.fused_groups), "count"},
        {"server.shed", delta(adm.shed(), before.admission.shed()), "count"},
        {"service.cache_hit_ratio",
         completed > 0 ? delta(after.service.cached, before.service.cached) / completed : 0.0,
         "ratio"},
        {"service.computed", delta(after.service.computed, before.service.computed), "count"},
        {"service.coalesced", delta(after.service.coalesced, before.service.coalesced), "count"},
        {"service.cache_evictions",
         delta(after.service.cache.evictions, before.service.cache.evictions), "count"},
        {"service.serve_ms_p50", percentile(w.serve, 0.50) * 1e3, "ms"},
        {"treegen.synth_ms", call_ms("treegen.synth_instance"), "ms"},
        {"core.snapshot_load_ms", call_ms("core.load_snapshot"), "ms"},
        {"core.tree_hash_ms", call_ms("core.canonical_hash"), "ms"},
        {"core.all_peaks_ms", call_ms("core.opt_minmem_all_peaks"), "ms"},
        {"core.opt_minmem_ms", call_ms("core.opt_minmem"), "ms"},
        {"core.rec_expand_ms", call_ms("core.rec_expand"), "ms"},
        {"core.rec_expand_expansions", count(counts.rec_expand_expansions), "count"},
        {"core.postorder_minio_ms", call_ms("core.postorder_minio"), "ms"},
        {"core.fif_ms", call_ms("core.simulate_fif"), "ms"},
        {"core.fif_evictions", count(counts.fif_evictions), "count"},
        {"sparse.mtx_read_ms", call_ms("sparse.load_matrix_market"), "ms"},
        {"sparse.min_degree_ms", call_ms("sparse.minimum_degree"), "ms"},
        {"sparse.assembly_tree_ms", call_ms("sparse.assembly_tree"), "ms"},
        {"sparse.tree_nodes", count(counts.sparse_tree_nodes), "count"},
        {"sparse.lb_sum", count(counts.sparse_lb_sum), "mem_units"},
        {"parallel.replay_ms", call_ms("parallel.simulate_parallel_paged"), "ms"},
        {"parallel.failed_starts", count(counts.failed_starts), "count"},
        {"parallel.backfill_scans", count(counts.backfill_scans), "count"},
        {"parallel.backfill_hit_ratio",
         counts.backfill_scans > 0 ? count(counts.backfill_hits) / count(counts.backfill_scans)
                                   : 0.0,
         "ratio"},
        {"parallel.eviction_events", count(counts.eviction_events), "count"},
        {"parallel.pages_read", count(counts.pages_read), "count"},
        {"parallel.pages_written", count(counts.pages_written), "count"},
        {"parallel.read_stall", counts.read_stall, "sim_time"},
        {"parallel.write_stall", counts.write_stall, "sim_time"},
        {"parallel.prefetch_useful_ratio",
         counts.prefetch_issued > 0
             ? count(counts.prefetch_useful) / count(counts.prefetch_issued)
             : 0.0,
         "ratio"},
        {"parallel.makespan_sum", counts.makespan_sum, "sim_time"},
        {"trace.uncovered_ratio", wall > 0 ? uncovered / wall : 0.0, "ratio"},
        {"trace.overhead_ms", mean(overhead, roots.size()) * 1e3, "ms"},
    };
    tracer.write_chrome_trace(dir + ".trace.json");
  }
  // Self-test: the next seed must give other inputs (lines or file bytes;
  // mtx-order varies only the matrices). It overwrites this run's files.
  srv.reset();
  if (*digests.begin() ==
      bench::stream_digest(bench::make_stream(*workload, options.seed + 1, dir)))
    fail("self-test: two seeds gave the same inputs");
  print_result(correct, w.attempted, w.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
