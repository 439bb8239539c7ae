// Scaling benchmark for the incremental expansion engine: RecExpand /
// FullRecExpand wall-time versus tree size on SYNTH instances at several
// M/LB ratios, measured for both the incremental engine (rec_expand) and
// the pre-incremental test oracle (tests/oracles/rec_expand_reference.hpp).
// Each row also times one OptMinMem pass plus one FiF evaluation of its
// schedule on the same tree and bound — the floor RecExpand approaches
// when it expands nothing — and reports RecExpand's time as a multiple of
// it. The bound is capped at the OptMinMem peak minus one, so every row
// binds and expands at least once. Every time is the fastest of 5 runs.
//
// Writes bench_recexpand_scaling.csv (one row per run) and
// bench_recexpand_scaling.json (aggregated summary; an explicit copy of it
// lives at the repository root as BENCH_recexpand.json, the baseline that
// tracks the perf trajectory from PR 2 onward). The reference engine
// is quadratic-plus, so it is only timed up to a size cap; incremental
// timings continue to the largest sizes. The two engines are also checked
// against each other on every instance where both run — a scaled-up twin
// of the test_expansion_incremental differential suite.
//
// Scales: --scale quick (CI smoke) | default | paper (500..10000 nodes).
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "experiment.hpp"
#include "src/core/fif_simulator.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/rec_expand.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/util/csv.hpp"
#include "src/util/rng.hpp"
#include "src/util/stopwatch.hpp"
#include "tests/oracles/rec_expand_reference.hpp"

namespace {

using namespace ooctree;
using core::RecExpandOptions;
using core::RecExpandResult;
using core::Tree;
using core::Weight;

struct Aggregate {
  std::size_t n = 0;
  double ratio = 0.0;
  std::string variant;
  double incremental_seconds = 0.0;
  double reference_seconds = 0.0;  // 0 when the reference was not run
  double optminmem_fif_seconds = 0.0;  // one opt_minmem + one simulate_fif per rep
  Weight io_volume_total = 0;      // summed over reps (each rep is its own tree)
  std::int64_t expansions_total = 0;
  int reps = 0;
  int ref_reps = 0;

  [[nodiscard]] double speedup() const {
    return ref_reps > 0 && incremental_seconds > 0.0
               ? (reference_seconds / ref_reps) / (incremental_seconds / reps)
               : 0.0;
  }
  [[nodiscard]] double vs_optminmem_fif() const {
    return optminmem_fif_seconds > 0.0 ? incremental_seconds / optminmem_fif_seconds : 0.0;
  }
  [[nodiscard]] double mean_io() const {
    return reps > 0 ? static_cast<double>(io_volume_total) / reps : 0.0;
  }
  [[nodiscard]] double mean_expansions() const {
    return reps > 0 ? static_cast<double>(expansions_total) / reps : 0.0;
  }
};

/// Runs `f` kTimedRuns times and returns the fastest wall time: the
/// kernels take well under a millisecond at the small sizes, where a single
/// run on a shared machine is mostly noise.
constexpr int kTimedRuns = 5;
template <typename F>
double fastest_seconds(F&& f) {
  double best = 0.0;
  for (int k = 0; k < kTimedRuns; ++k) {
    util::Stopwatch sw;
    f();
    const double seconds = sw.seconds();
    if (k == 0 || seconds < best) best = seconds;
  }
  return best;
}

RecExpandOptions variant_options(const std::string& variant) {
  RecExpandOptions opts;
  if (variant == "two") opts.max_expansions_per_node = 2;
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv);

  std::vector<std::size_t> sizes;
  std::size_t reference_cap = 0;  // largest n the quadratic reference is timed at
  int reps = 1;
  const char* scale_name = "default";
  switch (scale) {
    case bench::Scale::kQuick:
      sizes = {500, 1000};
      reference_cap = 1000;
      reps = 1;
      scale_name = "quick";
      break;
    case bench::Scale::kDefault:
      sizes = {500, 1000, 2000, 3000};
      reference_cap = 3000;
      reps = 2;
      break;
    case bench::Scale::kPaper:
      sizes = {500, 1000, 2000, 3000, 5000, 10000};
      reference_cap = 3000;
      reps = 3;
      scale_name = "paper";
      break;
  }
  const std::vector<double> ratios = {1.05, 1.1, 1.5, 2.0};
  const std::vector<std::string> variants = {"full", "two"};

  const std::size_t cores = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::printf("== RecExpand/FullRecExpand scaling: incremental vs reference engine ==\n");
  std::printf("scale=%s  sizes=%zu..%zu  reference timed up to n=%zu  cores=%zu\n\n",
              scale_name, sizes.front(), sizes.back(), reference_cap, cores);

  util::CsvWriter csv("bench_recexpand_scaling.csv",
                      {"n", "ratio", "memory", "variant", "engine", "rep", "seconds",
                       "io_volume", "expansions"});

  std::vector<Aggregate> aggregates;
  for (const std::size_t n : sizes) {
    for (std::size_t ri = 0; ri < ratios.size(); ++ri) {
      const double ratio = ratios[ri];
      for (const std::string& variant : variants) {
        Aggregate agg;
        agg.n = n;
        agg.ratio = ratio;
        agg.variant = variant;
        for (int rep = 0; rep < reps; ++rep) {
          util::Rng rng(900001u + 1000003u * static_cast<std::uint64_t>(n) +
                        31u * static_cast<std::uint64_t>(ri) + 17u * static_cast<std::uint64_t>(rep));
          const Tree t = treegen::synth_instance(n, 1, 100, rng);
          const Weight lb = t.min_feasible_memory();
          const Weight peak = core::opt_minmem_peak(t, t.root());
          if (peak <= lb) continue;
          const Weight memory =
              std::max(lb, std::min<Weight>(peak - 1, static_cast<Weight>(
                                                          static_cast<double>(lb) * ratio)));
          const RecExpandOptions opts = variant_options(variant);

          RecExpandResult inc;
          const double inc_seconds =
              fastest_seconds([&] { inc = core::rec_expand(t, memory, opts); });
          agg.incremental_seconds += inc_seconds;
          agg.io_volume_total += inc.evaluation.io_volume;
          agg.expansions_total += static_cast<std::int64_t>(inc.expansions);
          ++agg.reps;
          csv.row({static_cast<std::int64_t>(n), ratio, memory, variant, "incremental", rep,
                   inc_seconds, inc.evaluation.io_volume,
                   static_cast<std::int64_t>(inc.expansions)});

          core::FifResult opt_fif;
          const double opt_seconds = fastest_seconds([&] {
            opt_fif = core::simulate_fif(t, core::opt_minmem(t).schedule, memory);
          });
          agg.optminmem_fif_seconds += opt_seconds;
          csv.row({static_cast<std::int64_t>(n), ratio, memory, variant, "optminmem_fif", rep,
                   opt_seconds, opt_fif.io_volume, std::int64_t{0}});

          if (n <= reference_cap) {
            RecExpandResult ref;
            const double ref_seconds = fastest_seconds(
                [&] { ref = core::oracle::rec_expand_reference(t, memory, opts); });
            agg.reference_seconds += ref_seconds;
            ++agg.ref_reps;
            csv.row({static_cast<std::int64_t>(n), ratio, memory, variant, "reference", rep,
                     ref_seconds, ref.evaluation.io_volume,
                     static_cast<std::int64_t>(ref.expansions)});
            if (ref.evaluation.io_volume != inc.evaluation.io_volume ||
                ref.schedule != inc.schedule || ref.final_peak != inc.final_peak) {
              std::printf("DIFFERENTIAL MISMATCH at n=%zu ratio=%.2f variant=%s rep=%d\n", n,
                          ratio, variant.c_str(), rep);
              return 1;
            }
          }
        }
        if (agg.reps > 0) aggregates.push_back(agg);
      }
    }
  }

  std::printf("%-7s %-6s %-8s %12s %12s %10s %14s %8s %12s %12s\n", "n", "ratio", "variant",
              "inc (ms)", "ref (ms)", "speedup", "opt+fif (ms)", "inc/opt", "mean io",
              "mean exp");
  for (const Aggregate& a : aggregates) {
    const double inc = 1e3 * a.incremental_seconds / a.reps;
    const double opt = 1e3 * a.optminmem_fif_seconds / a.reps;
    if (a.ref_reps > 0) {
      std::printf("%-7zu %-6.2f %-8s %12.3f %12.3f %9.1fx %14.3f %7.2fx %12.1f %12.1f\n", a.n,
                  a.ratio, a.variant.c_str(), inc, 1e3 * a.reference_seconds / a.ref_reps,
                  a.speedup(), opt, a.vs_optminmem_fif(), a.mean_io(), a.mean_expansions());
    } else {
      std::printf("%-7zu %-6.2f %-8s %12.3f %12s %10s %14.3f %7.2fx %12.1f %12.1f\n", a.n,
                  a.ratio, a.variant.c_str(), inc, "-", "-", opt, a.vs_optminmem_fif(),
                  a.mean_io(), a.mean_expansions());
    }
  }

  // The acceptance configuration of the incremental-engine PR.
  const Aggregate* acceptance = nullptr;
  for (const Aggregate& a : aggregates)
    if (a.n == 3000 && a.ratio == 1.1 && a.variant == "full" && a.ref_reps > 0) acceptance = &a;

  // Written under a generated name (gitignored, like the CSV) so a casual
  // run from the repo root cannot clobber the committed baseline; updating
  // BENCH_recexpand.json at the repo root is an explicit copy.
  std::FILE* json = std::fopen("bench_recexpand_scaling.json", "w");
  if (json == nullptr) {
    std::printf("cannot write bench_recexpand_scaling.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"recexpand_scaling\",\n  \"scale\": \"%s\",\n", scale_name);
  std::fprintf(json, "  \"dataset\": \"SYNTH (uniform binary, weights 1..100)\",\n");
  std::fprintf(json, "  \"cores\": %zu,\n", cores);
  std::fprintf(json, "  \"results\": [\n");
  for (std::size_t k = 0; k < aggregates.size(); ++k) {
    const Aggregate& a = aggregates[k];
    std::fprintf(json,
                 "    {\"n\": %zu, \"ratio\": %.2f, \"variant\": \"%s\", "
                 "\"incremental_seconds\": %.6f, \"reference_seconds\": %s, "
                 "\"speedup\": %s, \"optminmem_fif_seconds\": %.6f, "
                 "\"vs_optminmem_fif\": %.3f, \"mean_io_volume\": %.2f, "
                 "\"mean_expansions\": %.2f, \"reps\": %d}%s\n",
                 a.n, a.ratio, a.variant.c_str(), a.incremental_seconds / a.reps,
                 a.ref_reps > 0
                     ? (std::to_string(a.reference_seconds / a.ref_reps)).c_str()
                     : "null",
                 a.ref_reps > 0 ? std::to_string(a.speedup()).c_str() : "null",
                 a.optminmem_fif_seconds / a.reps, a.vs_optminmem_fif(), a.mean_io(),
                 a.mean_expansions(), a.reps, k + 1 < aggregates.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  if (acceptance != nullptr) {
    std::fprintf(json,
                 "  \"acceptance\": {\"n\": 3000, \"ratio\": 1.10, \"variant\": \"full\", "
                 "\"speedup\": %.2f, \"threshold\": 5.0, \"pass\": %s}\n",
                 acceptance->speedup(), acceptance->speedup() >= 5.0 ? "true" : "false");
  } else {
    std::fprintf(json, "  \"acceptance\": null\n");
  }
  std::fprintf(json, "}\n");
  std::fclose(json);

  if (acceptance != nullptr) {
    std::printf("\nacceptance (FullRecExpand, n=3000, M=1.1*LB): %.1fx speedup (threshold 5x) — %s\n",
                acceptance->speedup(), acceptance->speedup() >= 5.0 ? "PASS" : "FAIL");
  }
  std::printf("results written to bench_recexpand_scaling.csv and bench_recexpand_scaling.json\n");
  std::printf("(to refresh the committed baseline: cp bench_recexpand_scaling.json "
              "<repo>/BENCH_recexpand.json)\n");
  return 0;
}
