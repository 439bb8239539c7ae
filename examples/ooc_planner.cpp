// ooc_planner: command-line out-of-core schedule planner.
//
//   $ ./ooc_planner --tree workload.tree --memory 1000 [--strategy recexpand]
//   $ ./ooc_planner --mtx matrix.mtx --memory-fraction 0.5
//   $ ./ooc_planner --batch requests.jsonl --threads 8
//   $ ./ooc_planner --demo
//
// Reads a task tree (text format, see src/core/tree_io.hpp) or a Matrix
// Market file (converted via the multifrontal pipeline), plans an
// out-of-core traversal under the given memory bound, and writes the plan
// (execution order + spill list) to stdout or --out. This is the tool a
// downstream user would wire into a solver driver. With --batch the CLI
// becomes a front-end of the planning service: the whole request batch
// (JSONL/CSV, src/service/request_io.hpp) runs through PlanService — the
// exact code path examples/plan_service.cpp serves — and a per-request
// summary is printed instead of a single plan.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/core/minmem_optimal.hpp"
#include "src/core/snapshot.hpp"
#include "src/core/strategies.hpp"
#include "src/core/tree_io.hpp"
#include "src/parallel/parallel_sim.hpp"
#include "src/service/plan_service.hpp"
#include "src/service/request_io.hpp"
#include "src/sparse/assembly_tree.hpp"
#include "src/sparse/matrix_market.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/util/args.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace ooctree;
using core::Weight;

void usage(const char* prog) {
  std::printf(
      "usage: %s (--tree FILE | --mtx FILE | --snapshot FILE | --batch FILE | --demo) "
      "[options]\n"
      "  --tree FILE         task tree in the '<parent> <weight>' text format\n"
      "  --mtx FILE          symmetric Matrix Market file (multifrontal pipeline)\n"
      "  --snapshot FILE     binary .otree snapshot, loaded by mmap (tools/tree_pack)\n"
      "  --batch FILE        JSONL/CSV request batch served through PlanService\n"
      "  --threads N         worker threads for --batch (default: hardware)\n"
      "  --persist DIR       persistent canonical cache directory for --batch\n"
      "  --demo              use a built-in random 500-node tree\n"
      "  --save-snapshot F   capture the loaded tree as a .otree snapshot for replay\n"
      "  --memory M          memory bound in units\n"
      "  --memory-fraction F bound = F * in-core peak (default 0.5)\n"
      "  --strategy S        postorder | optminmem | recexpand (default) | full\n"
      "  --workers N         also simulate N-worker parallel execution of the plan\n"
      "  --evict P           parallel eviction policy: belady (default) | lru |\n"
      "                      random | largest\n"
      "  --priority P        replay start order: sequential-order (default) |\n"
      "                      critical-path | heaviest-subtree\n"
      "  --backfill-depth K  ready tasks examined per free worker before the\n"
      "                      replay waits for memory (0 = unlimited, 1 = strict)\n"
      "  --residency         prefer starts whose inputs are resident (paged\n"
      "                      replay with a disk model only)\n"
      "  --disk-latency S / --disk-bandwidth B\n"
      "                      charge read-backs S seconds per transfer plus\n"
      "                      volume/B against the paged makespan\n"
      "  --write-queue-depth Q\n"
      "                      bound the asynchronous eviction-write queue at Q\n"
      "                      transfers (paged replay with a disk model; 0 =\n"
      "                      synchronous free writes, the default)\n"
      "  --prefetch-window W look ahead W ready tasks and prefetch their\n"
      "                      evicted child pages into free frames (paged\n"
      "                      replay with a disk model; 0 = no prefetch)\n"
      "  --page-size P       simulate the plan page-granularly (P units per page)\n"
      "                      through the paged parallel engine; combine with\n"
      "                      --workers for a parallel paged replay (default 1\n"
      "                      worker, i.e. the sequential pager's accounting)\n"
      "  --validate FILE     check a previously written plan against the tree\n"
      "  --out FILE          write the plan there instead of stdout\n",
      prog);
}

/// --batch: serve the whole request file through the planning service and
/// print one summary line per request — the CLI and the service share one
/// code path.
int run_batch(const util::Args& args) {
  const auto requests = service::load_requests(args.get("batch", ""));
  if (requests.empty()) {
    std::fprintf(stderr, "batch is empty\n");
    return 1;
  }
  service::ServiceConfig config;
  config.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  config.persist_dir = args.get("persist", "");
  service::PlanService planner(config);

  const std::size_t total = requests.size();
  util::Stopwatch wall;
  auto futures = planner.submit_batch(requests);
  std::size_t failures = 0;
  for (auto& future : futures) {
    const service::PlanResponse response = future.get();
    const service::PlanStats& stats = *response.stats;
    if (stats.ok) {
      std::printf("req %-6lld %-9s n=%-7zu M=%-10lld %-13s io=%-10lld peak=%lld\n",
                  (long long)response.id, service::served_name(response.served).c_str(),
                  stats.nodes, (long long)stats.memory,
                  core::strategy_name(stats.strategy).c_str(), (long long)stats.io_volume,
                  (long long)stats.peak_resident);
    } else {
      ++failures;
      std::printf("req %-6lld FAILED: %s\n", (long long)response.id, stats.error.c_str());
    }
  }
  const double seconds = wall.seconds();
  const service::ServiceStats stats = planner.stats();
  std::fprintf(stderr,
               "served %zu requests in %.3f s on %zu threads: %.1f req/s "
               "(%llu computed, %llu cached, %llu coalesced, %llu failed)\n",
               total, seconds, planner.threads(), static_cast<double>(total) / seconds,
               (unsigned long long)stats.computed, (unsigned long long)stats.cached,
               (unsigned long long)stats.coalesced, (unsigned long long)stats.failed);
  return failures == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = util::Args::parse(argc, argv);
  try {
    if (args.has("batch")) return run_batch(args);
    core::Tree tree = [&] {
      if (args.has("tree")) return core::load_tree(args.get("tree", ""));
      if (args.has("snapshot")) return core::load_snapshot(args.get("snapshot", ""));
      if (args.has("mtx"))
        return sparse::mtx_assembly_tree(sparse::load_matrix_market(args.get("mtx", "")));
      if (args.has("demo")) {
        util::Rng rng(12345);
        return treegen::synth_instance(500, 1, 100, rng);
      }
      usage(args.program().c_str());
      throw std::runtime_error("no input given");
    }();

    if (args.has("save-snapshot")) {
      const std::string path = args.get("save-snapshot", "");
      core::save_snapshot(path, tree);
      std::fprintf(stderr, "saved %zu-node snapshot to %s\n", tree.size(), path.c_str());
    }

    const Weight lb = tree.min_feasible_memory();
    const Weight peak = core::opt_minmem_peak(tree, tree.root());
    Weight memory = args.get_int("memory", 0);
    if (memory <= 0) {
      const double f = args.get_double("memory-fraction", 0.5);
      memory = std::max(lb, static_cast<Weight>(static_cast<double>(peak) * f));
    }
    if (memory < lb) {
      std::fprintf(stderr, "memory %lld below the feasibility bound LB=%lld\n",
                   (long long)memory, (long long)lb);
      return 1;
    }

    if (args.has("validate")) {
      // Re-check a stored plan: parse "step node spill" rows, rebuild the
      // traversal and run the Section 3.1 validity conditions.
      std::ifstream plan_file(args.get("validate", ""));
      if (!plan_file) throw std::runtime_error("cannot open --validate file");
      core::Schedule schedule;
      core::IoFunction io(tree.size(), 0);
      std::string line;
      while (std::getline(plan_file, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::size_t step = 0;
        core::NodeId node = 0;
        Weight spill = 0;
        if (!(ls >> step >> node >> spill)) throw std::runtime_error("malformed plan line");
        schedule.push_back(node);
        if (node < 0 || static_cast<std::size_t>(node) >= tree.size())
          throw std::runtime_error("plan references unknown node");
        io[static_cast<std::size_t>(node)] = spill;
      }
      const auto problem = core::validate_traversal(tree, schedule, io, memory);
      if (problem.has_value()) {
        std::fprintf(stderr, "INVALID plan: %s\n", problem->c_str());
        return 2;
      }
      Weight volume = 0;
      for (const Weight v : io) volume += v;
      std::fprintf(stderr, "plan is valid: %zu steps, %lld I/O units under M=%lld\n",
                   schedule.size(), (long long)volume, (long long)memory);
      return 0;
    }

    const core::Strategy strategy = core::strategy_from_name(args.get("strategy", "recexpand"));
    const auto plan = core::run_strategy(strategy, tree, memory);

    std::ofstream file;
    std::ostream* out = &std::cout;
    if (args.has("out")) {
      file.open(args.get("out", ""));
      if (!file) throw std::runtime_error("cannot open --out file");
      out = &file;
    }

    *out << "# ooc_planner plan\n"
         << "# tree: " << tree.size() << " tasks, total data " << tree.total_weight() << "\n"
         << "# LB " << lb << ", in-core peak " << peak << ", memory " << memory << "\n"
         << "# strategy " << core::strategy_name(strategy) << ", io volume "
         << plan.io_volume() << "\n"
         << "# columns: step node spill_after_completion\n";
    for (std::size_t t = 0; t < plan.schedule.size(); ++t) {
      const core::NodeId node = plan.schedule[t];
      *out << t << ' ' << node << ' ' << plan.evaluation.io[static_cast<std::size_t>(node)]
           << '\n';
    }

    std::fprintf(stderr, "planned %zu tasks with %s: %lld I/O units (LB %lld, peak %lld, M %lld)\n",
                 tree.size(), core::strategy_name(strategy).c_str(),
                 (long long)plan.io_volume(), (long long)lb, (long long)peak,
                 (long long)memory);

    // Optional: replay the plan through the shared-memory parallel engine
    // to see what the schedule costs once several workers contend for M.
    // --page-size switches to the paged engine (page-granular residency,
    // write-at-most-once accounting); alone it defaults to one worker,
    // which is exactly the sequential pager's model.
    if (args.has("workers") || args.has("page-size")) {
      parallel::ParallelConfig pc;
      pc.workers = static_cast<int>(args.get_int("workers", args.has("page-size") ? 1 : 2));
      pc.memory = memory;
      pc.priority = service::priority_from_name(args.get("priority", "sequential-order"));
      pc.backfill_depth = static_cast<int>(args.get_int("backfill-depth", 0));
      pc.residency_aware = args.has("residency");
      pc.write_queue_depth = static_cast<int>(args.get_int("write-queue-depth", 0));
      pc.prefetch_window = static_cast<int>(args.get_int("prefetch-window", 0));
      pc.evict = core::eviction_policy_from_name(args.get("evict", "belady"));
      if (args.has("page-size")) {
        parallel::PagedParallelConfig paged;
        paged.base = pc;
        paged.page_size = args.get_int("page-size", 1);
        if (args.get_double("disk-bandwidth", 0.0) > 0)
          paged.disk = iosim::DiskModel{args.get_double("disk-latency", 0.0),
                                        args.get_double("disk-bandwidth", 0.0)};
        const auto par = parallel::simulate_parallel_paged(tree, paged, plan.schedule);
        if (!par.base.feasible) {
          // Per-child page rounding raises the feasibility floor above LB.
          std::fprintf(stderr,
                       "paged replay infeasible: %lld frames of %lld units, need >= %lld "
                       "frames (M >= %lld)\n",
                       (long long)par.frames, (long long)paged.page_size,
                       (long long)parallel::min_feasible_frames(tree, paged.page_size),
                       (long long)(parallel::min_feasible_frames(tree, paged.page_size) *
                                   paged.page_size));
          return 1;
        }
        std::fprintf(stderr,
                     "paged replay (%d workers, %s priority, %s eviction, page %lld, "
                     "%lld frames): makespan %.0f, %lld pages written, %lld read, "
                     "read stall %.0f, utilization %.0f%%\n",
                     pc.workers, service::priority_name(pc.priority).c_str(),
                     core::eviction_policy_name(pc.evict).c_str(),
                     (long long)paged.page_size, (long long)par.frames, par.base.makespan,
                     (long long)par.pages_written, (long long)par.pages_read, par.read_stall,
                     100.0 * par.base.utilization(pc.workers));
        if (pc.write_queue_depth > 0 || pc.prefetch_window > 0)
          std::fprintf(stderr,
                       "disk pipeline (queue %d, window %d): write stall %.0f, "
                       "prefetch %lld pages issued, %lld useful, %lld wasted\n",
                       pc.write_queue_depth, pc.prefetch_window, par.write_stall,
                       (long long)par.prefetch_issued, (long long)par.prefetch_useful,
                       (long long)par.prefetch_wasted);
      } else {
        const auto par = parallel::simulate_parallel(tree, pc, plan.schedule);
        if (!par.feasible) {
          std::fprintf(stderr, "parallel replay infeasible under M=%lld\n", (long long)memory);
          return 1;
        }
        std::fprintf(stderr,
                     "parallel replay (%d workers, %s eviction): makespan %.0f, "
                     "%lld I/O units, utilization %.0f%%\n",
                     pc.workers, core::eviction_policy_name(pc.evict).c_str(), par.makespan,
                     (long long)par.io_volume, 100.0 * par.utilization(pc.workers));
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
