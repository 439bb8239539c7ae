// ooc_planner: command-line out-of-core schedule planner.
//
//   $ ./ooc_planner --tree workload.tree --memory 1000 [--strategy recexpand]
//   $ ./ooc_planner --mtx matrix.mtx --memory-fraction 0.5
//   $ ./ooc_planner --demo --workers 4 --page-size 16 --disk-bandwidth 64
//
// Reads a task tree (text format, see src/core/tree_io.hpp), a Matrix
// Market file (converted via the multifrontal pipeline) or an .otree
// snapshot, plans an out-of-core traversal under the given memory bound,
// and writes the plan (execution order + spill list) to stdout or --out.
// This is the tool a downstream user would wire into a solver driver.
//
// The plan is one request to the planning service: every request key
// (src/service/request_io.hpp) is also an option here, spelled with '-'
// for '_' (--memory-lb, --page-size, --disk-bandwidth, ...), decoded by
// the same field table, and planned and replayed by PlanService::plan,
// the code path plan_service serves. Request batches are plan_service's.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/minmem_optimal.hpp"
#include "src/core/snapshot.hpp"
#include "src/service/plan_service.hpp"
#include "src/service/request_io.hpp"
#include "src/util/args.hpp"

namespace {

using namespace ooctree;
using core::Weight;

/// A request key as an option name: memory_lb is --memory-lb.
std::string option_name(std::string_view key) {
  std::string name(key);
  std::replace(name.begin(), name.end(), '_', '-');
  return name;
}

void usage(const char* prog) {
  std::printf(
      "usage: %s (--tree FILE | --mtx FILE | --snapshot FILE | --demo) [options]\n"
      "  --tree FILE         task tree in the '<parent> <weight>' text format\n"
      "  --mtx FILE          symmetric Matrix Market file (multifrontal pipeline)\n"
      "  --snapshot FILE     binary .otree snapshot, loaded by mmap (tools/tree_pack)\n"
      "  --demo              built-in 500-node SYNTH tree (--nodes 500 --seed 12345)\n"
      "  --memory-fraction F bound = max(LB, F * in-core peak) when neither --memory\n"
      "                      nor --memory-lb is given (default 0.5)\n"
      "  --save-snapshot F   capture the tree as a .otree snapshot for replay\n"
      "  --validate FILE     check a previously written plan against the tree\n"
      "  --out FILE          write the plan there instead of stdout\n"
      "plus every request key of src/service/request_io.hpp with '-' for '_'\n"
      "(--memory M, --strategy S, --workers N, --page-size P, ...); a key\n"
      "without a value means true\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<service::RequestField> fields = service::request_fields();
    std::vector<std::string> accepted = {"tree", "mtx",      "snapshot", "demo", "memory-fraction",
                                         "out",  "validate", "save-snapshot"};
    for (const service::RequestField& field : fields) accepted.push_back(option_name(field.name));
    const auto args = util::Args::parse(argc, argv, accepted);

    // The request as name/text pairs: the tree source, then every
    // request-key option in table order. `values` owns the texts (a deque
    // never moves its elements).
    std::deque<std::string> values;
    std::vector<service::FieldText> pairs;
    if (args.has("demo"))
      pairs = {{"nodes", "500"}, {"w_lo", "1"}, {"w_hi", "100"}, {"seed", "12345"}};
    for (const char* source : {"tree", "mtx", "snapshot"}) {
      if (!args.has(source)) continue;
      pairs.push_back({"source", source});
      pairs.push_back({"path", values.emplace_back(args.get(source, ""))});
    }
    bool names_tree = !pairs.empty();
    for (const service::RequestField& field : fields) {
      const std::string option = option_name(field.name);
      if (!args.has(option)) continue;
      const std::string_view value = values.emplace_back(args.get(option, ""));
      pairs.push_back({field.name, value.empty() ? "true" : value});
      names_tree = names_tree || field.role == service::FieldRole::kTree;
    }
    if (!names_tree) {
      usage(args.program().c_str());
      throw std::runtime_error("no input given");
    }
    service::PlanRequest request = service::request_from_fields(pairs);

    // The tree itself is needed only here: the LB/peak header, the
    // fraction bound, the snapshot and the validation.
    const service::ServiceConfig config{.threads = 1, .cache_capacity = 0};
    const core::Tree tree =
        service::materialize_tree(request, service::effective_seed(request, config.seed));
    const Weight lb = tree.min_feasible_memory();
    const Weight peak = core::opt_minmem_peak(tree, tree.root());
    if (request.memory <= 0 && !args.has("memory-lb")) {
      const double f = args.get_double("memory-fraction", 0.5);
      request.memory = std::max(lb, static_cast<Weight>(static_cast<double>(peak) * f));
    }
    const Weight memory = service::resolve_memory(request, tree);

    if (args.has("save-snapshot")) {
      const std::string path = args.get("save-snapshot", "");
      core::save_snapshot(path, tree);
      std::fprintf(stderr, "saved %zu-node snapshot to %s\n", tree.size(), path.c_str());
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

    service::PlanService planner(config);
    const service::PlanResponse response = planner.plan(request);
    const service::PlanStats& stats = *response.stats;
    if (!stats.ok) throw std::runtime_error(stats.error);

    std::ofstream file;
    std::ostream* out = &std::cout;
    if (args.has("out")) {
      file.open(args.get("out", ""));
      if (!file) throw std::runtime_error("cannot open --out file");
      out = &file;
    }

    const std::string strategy = core::strategy_name(stats.strategy);
    *out << "# ooc_planner plan\n"
         << "# tree: " << tree.size() << " tasks, total data " << tree.total_weight() << "\n"
         << "# LB " << lb << ", in-core peak " << peak << ", memory " << memory << "\n"
         << "# strategy " << strategy << ", io volume " << stats.io_volume << "\n"
         << "# columns: step node spill_after_completion\n";
    for (std::size_t t = 0; t < stats.schedule.size(); ++t) {
      const core::NodeId node = stats.schedule[t];
      *out << t << ' ' << node << ' ' << stats.io[static_cast<std::size_t>(node)] << '\n';
    }

    std::fprintf(stderr, "planned %zu tasks with %s: %lld I/O units (LB %lld, peak %lld, M %lld)\n",
                 tree.size(), strategy.c_str(), (long long)stats.io_volume, (long long)lb,
                 (long long)peak, (long long)memory);

    // The replay the request asked for: the plan re-executed by the paged
    // parallel engine, unit pages unless --page-size is set.
    if (stats.replayed) {
      const parallel::ParallelConfig& pc = *request.parallel;
      const Weight page = std::max<Weight>(1, request.page_size);
      if (!stats.replay_feasible) {
        // Per-child page rounding can raise the feasibility floor above LB.
        std::fprintf(stderr, "replay infeasible: M=%lld in pages of %lld units, need M >= %lld\n",
                     (long long)memory, (long long)page,
                     (long long)(parallel::min_feasible_frames(tree, page) * page));
        return 1;
      }
      std::fprintf(stderr,
                   "replay (%d workers, %s priority, %s eviction, page %lld, %lld frames): "
                   "makespan %.0f, %lld I/O units, utilization %.0f%%",
                   stats.workers, service::priority_name(pc.priority).c_str(),
                   core::eviction_policy_name(pc.evict).c_str(), (long long)page,
                   (long long)(memory / page), stats.makespan, (long long)stats.parallel_io,
                   100.0 * stats.utilization);
      if (stats.page_size > 0)
        std::fprintf(stderr, ", %lld pages written, %lld read, read stall %.0f",
                     (long long)stats.pages_written, (long long)stats.pages_read,
                     stats.read_stall);
      std::fprintf(stderr, "\n");
      if (pc.write_queue_depth > 0 || pc.prefetch_window > 0)
        std::fprintf(stderr,
                     "disk pipeline (queue %d, window %d): write stall %.0f, "
                     "prefetch %lld pages issued, %lld useful, %lld wasted\n",
                     pc.write_queue_depth, pc.prefetch_window, stats.write_stall,
                     (long long)stats.prefetch_issued, (long long)stats.prefetch_useful,
                     (long long)stats.prefetch_wasted);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
