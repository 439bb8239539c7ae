// Ablation A1: eviction policies. Theorem 1 says FiF/Belady is optimal for
// a fixed schedule; this bench quantifies how much worse LRU, random and
// largest-first evictions are on SYNTH instances, replaying the
// OptMinMem schedule through the paged parallel engine at workers = 1 with
// strict in-order starts — the configuration simulate_parallel_paged pins
// bit-identical to the sequential pager, so the repo has one replay engine
// to optimize (the bench_paged_parallel differential suite enforces the
// equivalence on every instance it measures).
#include <cstdio>

#include "experiment.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/parallel/parallel_sim.hpp"
#include "src/util/csv.hpp"
#include "src/util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace ooctree;
  using core::Weight;
  const bench::Scale scale = bench::parse_scale(argc, argv);
  const int count = bench::synth_count(scale) / 3;
  const auto data = bench::synth_dataset(count, bench::synth_nodes(scale), 424242);

  const std::vector<core::EvictionPolicy> policies{
      core::EvictionPolicy::kBelady, core::EvictionPolicy::kLru, core::EvictionPolicy::kRandom,
      core::EvictionPolicy::kLargestFirst};

  std::printf("== ablation A1: eviction policy vs Belady bound (%d instances) ==\n", count);
  util::CsvWriter csv("ablation_eviction.csv",
                      {"instance", "memory", "policy", "pages_written", "ratio_vs_belady"});

  struct Row {
    Weight memory = 0;
    std::vector<std::int64_t> written;
    bool kept = false;
  };
  std::vector<Row> rows(data.size());
  util::parallel_for(data.size(), [&](std::size_t i) {
    const core::Tree& t = data[i].tree;
    const Weight lb = t.min_feasible_memory();
    const auto opt = core::opt_minmem(t);
    if (opt.peak <= lb) return;
    Row& row = rows[i];
    row.memory = (lb + opt.peak - 1) / 2;
    row.kept = true;
    for (const core::EvictionPolicy p : policies) {
      parallel::ParallelConfig base;
      base.workers = 1;
      base.memory = row.memory;
      base.priority = parallel::Priority::kSequentialOrder;
      base.backfill_depth = 1;
      base.evict = p;
      base.seed = 7 + i;
      parallel::PagedParallelConfig c;
      c.base = base;
      c.page_size = 1;
      row.written.push_back(
          parallel::simulate_parallel_paged(t, c, opt.schedule).pages_written);
    }
  });

  std::vector<double> ratio_sum(policies.size(), 0.0);
  std::vector<std::int64_t> totals(policies.size(), 0);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].kept) continue;
    ++kept;
    const double belady = static_cast<double>(rows[i].written[0]);
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const double ratio =
          belady > 0 ? static_cast<double>(rows[i].written[p]) / belady : 1.0;
      ratio_sum[p] += ratio;
      totals[p] += rows[i].written[p];
      csv.row({data[i].name, rows[i].memory, core::eviction_policy_name(policies[p]),
               rows[i].written[p], ratio});
    }
  }

  std::printf("%-14s %16s %18s\n", "policy", "total pages", "mean ratio/Belady");
  for (std::size_t p = 0; p < policies.size(); ++p) {
    std::printf("%-14s %16lld %18.3f\n", core::eviction_policy_name(policies[p]).c_str(),
                static_cast<long long>(totals[p]),
                kept > 0 ? ratio_sum[p] / static_cast<double>(kept) : 0.0);
  }
  std::printf("(Belady row is the Theorem-1 lower bound; ratios >= 1 by construction)\n");
  std::printf("results written to ablation_eviction.csv\n");
  return 0;
}
