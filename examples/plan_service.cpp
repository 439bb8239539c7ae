// plan_service: batch and streaming front-ends of the planning service.
//
//   $ ./plan_service --batch requests.jsonl [--threads 8] [--out results.csv]
//   $ ./plan_service --batch requests.csv --format csv --persist .plan-cache
//   $ ./plan_service --demo
//   $ ./plan_service --serve [--workers 2 --queue-depth 64 --policy shed]
//
// Batch mode reads a whole request file (JSONL or CSV, see
// src/service/request_io.hpp for the schema), submits it to a PlanService,
// streams one result line per request as futures resolve in submission
// order, and closes with aggregate throughput.
//
// Serve mode (--serve) is the long-lived multi-tenant server: JSONL
// requests on stdin, one JSON response line on stdout per request —
// emitted incrementally in submission order as each plan completes, not
// batched at EOF — through a PlanServer (bounded admission with shed/block
// overload policies, weighted per-tenant fair scheduling, same-tree batch
// fusion). Requests that fail admission come back ok=false with
// served="shed". EOF or SIGTERM/SIGINT drains gracefully: every admitted
// request is answered before exit. --stats prints an end-of-run JSON
// summary (both modes); --stats-every N adds a periodic server stats line
// on stderr.
#include <atomic>
#include <cctype>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <deque>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/server/plan_server.hpp"
#include "src/service/plan_service.hpp"
#include "src/service/request_io.hpp"
#include "src/util/args.hpp"
#include "src/util/csv.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace ooctree;

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

void usage(const char* prog) {
  std::printf(
      "usage: %s (--batch FILE | --demo | --serve) [options]\n"
      "  --batch FILE      JSONL or CSV request batch (see src/service/request_io.hpp)\n"
      "  --format F        jsonl | csv | auto (default: auto-detect)\n"
      "  --demo            built-in 48-request demo batch (50%% repeated instances)\n"
      "  --serve           streaming server: JSONL on stdin, JSON lines on stdout\n"
      "  --threads N       service worker threads (default: hardware; serve: 1)\n"
      "  --cache N         result-cache capacity in entries, 0 disables (default 4096)\n"
      "  --seed S          service seed for derived request streams (default 20170208)\n"
      "  --persist DIR     persistent canonical cache directory (default: none)\n"
      "  --out FILE        (batch) also write per-request results as CSV\n"
      "  --quiet           (batch) suppress per-request lines, summary only\n"
      "  --stats           end-of-run JSON stats summary on stdout\n"
      "server options (with --serve):\n"
      "  --workers N       dispatch workers (default 1)\n"
      "  --queue-depth N   admission bound (default 256)\n"
      "  --policy P        overload policy: shed | block (default shed)\n"
      "  --deadline-ms D   block policy: max wait for a slot (default 100)\n"
      "  --watermark-high N / --watermark-low N   overload hysteresis\n"
      "  --weights W       per-tenant weights, e.g. \"alice=3,bob=1\"\n"
      "  --default-weight W  weight of unlisted tenants (default 1)\n"
      "  --inflight-cap N  max concurrent dispatches per tenant (0 = off)\n"
      "  --no-fuse         disable same-tree batch fusion\n"
      "  --fuse-limit N    max requests per fused dispatch (default 16)\n"
      "  --stats-every N   periodic server stats line on stderr every N replies\n",
      prog);
}

/// The --demo batch: synth requests where half the ids repeat an earlier
/// instance (same explicit seed and spec), so the cache and coalescing
/// paths are exercised without any input file.
std::vector<service::PlanRequest> demo_batch() {
  std::vector<service::PlanRequest> requests;
  const int unique = 24;
  for (int k = 0; k < 2 * unique; ++k) {
    service::PlanRequest request;
    request.id = k + 1;
    request.nodes = 400;
    request.seed = 1000u + static_cast<std::uint64_t>(k % unique);  // repeat after `unique`
    request.memory_lb = 1.5;
    request.strategy = k % 3 == 0 ? core::Strategy::kPostOrderMinIo : core::Strategy::kRecExpand;
    if (k % 4 == 0) {
      parallel::ParallelConfig pc;
      pc.workers = 4;
      pc.priority = parallel::Priority::kSequentialOrder;
      if (k % 8 == 0) {
        request.page_size = 16;  // exercise the paged replay
        if (k % 16 == 0) {
          // ... and bounded backfill with residency-aware starts under a
          // disk-cost model (depth 8 is the measured winner).
          pc.backfill_depth = 8;
          pc.residency_aware = true;
          request.disk_latency = 0.5;
          request.disk_bandwidth = 64.0;
        }
      }
      request.parallel = pc;
    }
    requests.push_back(request);
  }
  return requests;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

bool blank_or_comment(const std::string& line) {
  for (const char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// One JSON response line, printed incrementally as each plan completes.
void print_response_line(const server::ServerResponse& response) {
  const service::PlanStats& stats = *response.plan.stats;
  std::string out = "{\"id\":" + std::to_string(response.plan.id);
  if (!response.tenant.empty()) out += ",\"tenant\":\"" + json_escape(response.tenant) + "\"";
  out += ",\"ok\":";
  out += stats.ok ? "true" : "false";
  out += ",\"served\":\"" + service::served_name(response.plan.served) + "\"";
  if (stats.ok) {
    out += ",\"nodes\":" + std::to_string(stats.nodes);
    out += ",\"lb\":" + std::to_string(stats.lb);
    out += ",\"memory\":" + std::to_string(stats.memory);
    out += ",\"strategy\":\"" + core::strategy_name(stats.strategy) + "\"";
    out += ",\"io_volume\":" + std::to_string(stats.io_volume);
    out += ",\"peak_resident\":" + std::to_string(stats.peak_resident);
    out += ",\"evictions\":" + std::to_string(stats.evictions);
    if (stats.replayed) {
      out += ",\"workers\":" + std::to_string(stats.workers);
      out += ",\"makespan\":" + json_double(stats.makespan);
      out += ",\"parallel_io\":" + std::to_string(stats.parallel_io);
      if (stats.page_size > 0) {
        out += ",\"page_size\":" + std::to_string(stats.page_size);
        out += ",\"pages_written\":" + std::to_string(stats.pages_written);
        out += ",\"pages_read\":" + std::to_string(stats.pages_read);
        out += ",\"read_stall\":" + json_double(stats.read_stall);
        out += ",\"write_stall\":" + json_double(stats.write_stall);
        out += ",\"prefetch_issued\":" + std::to_string(stats.prefetch_issued);
        out += ",\"prefetch_useful\":" + std::to_string(stats.prefetch_useful);
        out += ",\"prefetch_wasted\":" + std::to_string(stats.prefetch_wasted);
      }
    }
  } else {
    out += ",\"error\":\"" + json_escape(stats.error) + "\"";
  }
  if (response.dispatch_seq > 0) {
    out += ",\"dispatch_seq\":" + std::to_string(response.dispatch_seq);
    out += ",\"wait_ms\":" + json_double(response.wait_seconds * 1e3);
  }
  out += ",\"ms\":" + json_double(response.plan.seconds * 1e3);
  out += "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string service_stats_json(const service::ServiceStats& stats) {
  std::string out = "{";
  out += "\"submitted\":" + std::to_string(stats.submitted);
  out += ",\"completed\":" + std::to_string(stats.completed);
  out += ",\"computed\":" + std::to_string(stats.computed);
  out += ",\"cached\":" + std::to_string(stats.cached);
  out += ",\"coalesced\":" + std::to_string(stats.coalesced);
  out += ",\"fused\":" + std::to_string(stats.fused);
  out += ",\"fused_unexpanded\":" + std::to_string(stats.fused_unexpanded);
  out += ",\"failed\":" + std::to_string(stats.failed);
  out += ",\"cache_hits\":" + std::to_string(stats.cache.hits);
  out += ",\"cache_misses\":" + std::to_string(stats.cache.misses);
  out += ",\"source_hits\":" + std::to_string(stats.source_hits);
  out += ",\"source_misses\":" + std::to_string(stats.source_misses);
  out += ",\"source_bytes\":" + std::to_string(stats.source_bytes);
  out += ",\"pass_answers\":" + std::to_string(stats.pass_answers);
  out += ",\"pass_bytes\":" + std::to_string(stats.pass_bytes);
  out += ",\"pass_entries\":" + std::to_string(stats.pass_entries);
  out += "}";
  return out;
}

std::string server_stats_json(const server::ServerStats& stats) {
  std::string out = "{";
  out += "\"submitted\":" + std::to_string(stats.admission.submitted);
  out += ",\"admitted\":" + std::to_string(stats.admission.admitted);
  out += ",\"shed\":" + std::to_string(stats.admission.shed());
  out += ",\"shed_full\":" + std::to_string(stats.admission.shed_full);
  out += ",\"shed_timeout\":" + std::to_string(stats.admission.shed_timeout);
  out += ",\"shed_closed\":" + std::to_string(stats.admission.shed_closed);
  out += ",\"queue_depth\":" + std::to_string(stats.admission.depth);
  out += ",\"queue_peak\":" + std::to_string(stats.admission.peak);
  out += ",\"overload_entries\":" + std::to_string(stats.admission.overload_entries);
  out += ",\"queued\":" + std::to_string(stats.queued);
  out += ",\"dispatched\":" + std::to_string(stats.dispatched);
  out += ",\"fused_groups\":" + std::to_string(stats.fused_groups);
  out += ",\"fused_requests\":" + std::to_string(stats.fused_requests);
  out += ",\"tenants\":[";
  for (std::size_t i = 0; i < stats.tenants.size(); ++i) {
    const server::TenantCounters& t = stats.tenants[i];
    if (i > 0) out += ",";
    out += "{\"tenant\":\"" + json_escape(t.tenant) + "\"";
    out += ",\"pushed\":" + std::to_string(t.pushed);
    out += ",\"served\":" + std::to_string(t.served);
    out += ",\"weight\":" + json_double(t.weight);
    out += "}";
  }
  out += "],\"service\":" + service_stats_json(stats.service);
  out += "}";
  return out;
}

server::ServerConfig server_config_from_args(const util::Args& args) {
  server::ServerConfig config;
  config.service.threads = static_cast<std::size_t>(args.get_int("threads", 1));
  config.service.cache_capacity = static_cast<std::size_t>(args.get_int("cache", 4096));
  config.service.seed = static_cast<std::uint64_t>(args.get_int("seed", 20170208));
  config.service.persist_dir = args.get("persist", "");
  config.workers = static_cast<std::size_t>(args.get_int("workers", 1));
  config.admission.depth = static_cast<std::size_t>(args.get_int("queue-depth", 256));
  config.admission.policy = server::overload_policy_from_name(args.get("policy", "shed"));
  config.admission.block_timeout_ms = args.get_double("deadline-ms", 100.0);
  config.admission.high_watermark = static_cast<std::size_t>(args.get_int("watermark-high", 0));
  config.admission.low_watermark = static_cast<std::size_t>(args.get_int("watermark-low", 0));
  config.default_weight = args.get_double("default-weight", 1.0);
  config.tenant_inflight_cap = static_cast<std::size_t>(args.get_int("inflight-cap", 0));
  config.fuse = !args.has("no-fuse");
  config.fuse_limit = static_cast<std::size_t>(args.get_int("fuse-limit", 16));
  // --weights "alice=3,bob=1"
  const std::string weights = args.get("weights", "");
  std::size_t pos = 0;
  while (pos < weights.size()) {
    std::size_t comma = weights.find(',', pos);
    if (comma == std::string::npos) comma = weights.size();
    const std::string token = weights.substr(pos, comma - pos);
    pos = comma + 1;
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error("--weights: expected tenant=weight, got '" + token + "'");
    server::TenantWeight w;
    w.tenant = token.substr(0, eq);
    w.weight = std::stod(token.substr(eq + 1));
    config.weights.push_back(std::move(w));
  }
  return config;
}

/// The streaming server loop: reader (this thread) decodes stdin lines and
/// submits; the printer thread resolves futures front-of-queue, so output
/// lines appear incrementally in submission order while later requests are
/// still being read. Decode failures become inline ok=false lines through
/// the same queue, keeping stdout ordered.
int run_serve(const util::Args& args) {
  server::PlanServer srv(server_config_from_args(args));
  const std::int64_t stats_every = args.get_int("stats-every", 0);

  std::deque<std::future<server::ServerResponse>> pending;
  std::mutex mutex;
  std::condition_variable cv;
  bool done_reading = false;
  std::atomic<std::uint64_t> failures{0};

  std::thread printer([&] {
    std::uint64_t printed = 0;
    for (;;) {
      std::future<server::ServerResponse> future;
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] { return !pending.empty() || done_reading; });
        if (pending.empty()) return;
        future = std::move(pending.front());
        pending.pop_front();
      }
      const server::ServerResponse response = future.get();
      if (!response.plan.stats->ok) failures.fetch_add(1);
      print_response_line(response);
      ++printed;
      if (stats_every > 0 && printed % static_cast<std::uint64_t>(stats_every) == 0) {
        std::fprintf(stderr, "stats %s\n", server_stats_json(srv.stats()).c_str());
        std::fflush(stderr);
      }
    }
  });

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::string line;
  std::int64_t line_number = 0;
  while (g_stop == 0 && std::getline(std::cin, line)) {
    ++line_number;
    if (blank_or_comment(line)) continue;
    std::future<server::ServerResponse> future;
    try {
      future = srv.submit(service::request_from_json(line, line_number));
    } catch (const std::exception& e) {
      // Decode errors resolve immediately through the same output queue.
      std::promise<server::ServerResponse> failed;
      server::ServerResponse response;
      response.plan.id = line_number;
      auto stats = std::make_shared<service::PlanStats>();
      stats->ok = false;
      stats->error = e.what();
      response.plan.stats = std::move(stats);
      failed.set_value(std::move(response));
      future = failed.get_future();
    }
    {
      const std::lock_guard lock(mutex);
      pending.push_back(std::move(future));
    }
    cv.notify_one();
  }

  {
    const std::lock_guard lock(mutex);
    done_reading = true;
  }
  cv.notify_all();
  printer.join();  // every submitted future resolved and printed
  srv.drain();

  if (args.has("stats")) {
    std::printf("%s\n", server_stats_json(srv.stats()).c_str());
    std::fflush(stdout);
  }
  return failures.load() == 0 ? 0 : 2;
}

int run_batch(const util::Args& args) {
  std::vector<service::PlanRequest> requests;
  if (args.has("batch")) {
    const std::string format_name = args.get("format", "auto");
    service::BatchFormat format = service::BatchFormat::kAuto;
    if (format_name == "jsonl") format = service::BatchFormat::kJsonl;
    else if (format_name == "csv") format = service::BatchFormat::kCsv;
    else if (format_name != "auto") throw std::runtime_error("unknown --format " + format_name);
    requests = service::load_requests(args.get("batch", ""), format);
  } else {
    requests = demo_batch();
  }
  if (requests.empty()) {
    std::fprintf(stderr, "batch is empty\n");
    return 1;
  }

  service::ServiceConfig config;
  config.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  config.cache_capacity = static_cast<std::size_t>(args.get_int("cache", 4096));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20170208));
  config.persist_dir = args.get("persist", "");
  service::PlanService planner(config);

  std::unique_ptr<util::CsvWriter> csv;
  if (args.has("out"))
    csv.reset(new util::CsvWriter(
        args.get("out", ""),
        {"id", "served", "ok", "nodes", "lb", "memory", "strategy", "io_volume",
         "peak_resident", "workers", "makespan", "parallel_io", "failed_starts",
         "page_size", "pages_written", "pages_read", "read_stall", "write_stall",
         "prefetch_issued", "prefetch_useful", "prefetch_wasted", "seconds"}));

  const bool quiet = args.has("quiet");
  const std::size_t total = requests.size();
  util::Stopwatch wall;
  auto futures = planner.submit_batch(std::move(requests));

  std::size_t failures = 0;
  for (auto& future : futures) {
    const service::PlanResponse response = future.get();
    const service::PlanStats& stats = *response.stats;
    if (!stats.ok) ++failures;
    if (!quiet) {
      if (stats.ok) {
        std::printf("req %-6lld %-9s n=%-7zu M=%-10lld %-13s io=%-10lld peak=%-10lld",
                    (long long)response.id, service::served_name(response.served).c_str(),
                    stats.nodes, (long long)stats.memory,
                    core::strategy_name(stats.strategy).c_str(), (long long)stats.io_volume,
                    (long long)stats.peak_resident);
        if (stats.replayed) {
          std::printf(" workers=%d makespan=%.0f par_io=%lld", stats.workers, stats.makespan,
                      (long long)stats.parallel_io);
          if (stats.page_size > 0)
            std::printf(" page=%lld pw=%lld pr=%lld stall=%.0f", (long long)stats.page_size,
                        (long long)stats.pages_written, (long long)stats.pages_read,
                        stats.read_stall);
        }
        std::printf(" (%.2f ms)\n", response.seconds * 1e3);
      } else {
        std::printf("req %-6lld FAILED: %s\n", (long long)response.id, stats.error.c_str());
      }
    }
    if (csv != nullptr)
      csv->row({response.id, service::served_name(response.served), stats.ok ? 1 : 0,
                static_cast<std::int64_t>(stats.nodes), stats.lb, stats.memory,
                core::strategy_name(stats.strategy), stats.io_volume, stats.peak_resident,
                stats.workers, stats.makespan, stats.parallel_io, stats.failed_starts,
                stats.page_size, stats.pages_written, stats.pages_read, stats.read_stall,
                stats.write_stall, stats.prefetch_issued, stats.prefetch_useful,
                stats.prefetch_wasted, response.seconds});
  }
  const double seconds = wall.seconds();

  const service::ServiceStats stats = planner.stats();
  std::fprintf(stderr,
               "served %zu requests in %.3f s on %zu threads: %.1f req/s "
               "(%llu computed, %llu cached, %llu coalesced, %llu failed; "
               "cache %llu/%llu hits)\n",
               total, seconds, planner.threads(), static_cast<double>(total) / seconds,
               (unsigned long long)stats.computed, (unsigned long long)stats.cached,
               (unsigned long long)stats.coalesced, (unsigned long long)stats.failed,
               (unsigned long long)stats.cache.hits,
               (unsigned long long)(stats.cache.hits + stats.cache.misses));
  if (args.has("stats")) {
    std::printf("%s\n", service_stats_json(stats).c_str());
    std::fflush(stdout);
  }
  return failures == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = util::Args::parse(
        argc, argv,
        {"batch", "format", "demo", "serve", "threads", "cache", "seed", "persist", "out", "quiet",
         "stats", "workers", "queue-depth", "policy", "deadline-ms", "watermark-high",
         "watermark-low", "weights", "default-weight", "inflight-cap", "no-fuse", "fuse-limit",
         "stats-every"});
    if (args.has("serve")) return run_serve(args);
    if (args.has("batch") || args.has("demo")) return run_batch(args);
    usage(args.program().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
