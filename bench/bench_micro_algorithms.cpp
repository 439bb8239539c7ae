// Micro-benchmarks (google-benchmark): raw algorithm throughput on the
// shapes that stress each code path. Not a paper figure — these guard
// against performance regressions in the library itself.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/expansion.hpp"
#include "src/core/fif_simulator.hpp"
#include "src/core/minio_postorder.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/minmem_postorder.hpp"
#include "src/core/rec_expand.hpp"
#include "src/parallel/parallel_sim.hpp"
#include "src/sparse/assembly_tree.hpp"
#include "src/sparse/etree.hpp"
#include "src/sparse/generators.hpp"
#include "src/sparse/matrix_market.hpp"
#include "src/sparse/ordering.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/treegen/shapes.hpp"
#include "src/treegen/weights.hpp"
#include "src/util/rng.hpp"
#include "tests/oracles/rec_expand_reference.hpp"

namespace {

using namespace ooctree;
using core::Tree;
using core::Weight;

Tree synth(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  return treegen::synth_instance(n, 1, 100, rng);
}

void BM_OptMinMem_Synth(benchmark::State& state) {
  const Tree t = synth(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) benchmark::DoNotOptimize(core::opt_minmem(t).peak);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OptMinMem_Synth)->Arg(1000)->Arg(3000)->Arg(10000)->Arg(30000);

void BM_OptMinMem_Chain(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<Weight> w(static_cast<std::size_t>(state.range(0)));
  for (auto& x : w) x = rng.uniform_int(1, 100);
  const Tree t = treegen::chain_tree(w);
  for (auto _ : state) benchmark::DoNotOptimize(core::opt_minmem(t).peak);
}
BENCHMARK(BM_OptMinMem_Chain)->Arg(10000)->Arg(100000);

void BM_OptMinMem_Caterpillar(benchmark::State& state) {
  util::Rng rng(3);
  const Tree shape = treegen::caterpillar_tree(static_cast<std::size_t>(state.range(0)), 3, 1);
  const Tree t = treegen::with_uniform_weights(shape, 1, 100, rng);
  for (auto _ : state) benchmark::DoNotOptimize(core::opt_minmem(t).peak);
}
BENCHMARK(BM_OptMinMem_Caterpillar)->Arg(1000)->Arg(10000);

void BM_OptMinMemAllPeaks(benchmark::State& state) {
  const Tree t = synth(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) benchmark::DoNotOptimize(core::opt_minmem_all_peaks(t).back());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OptMinMemAllPeaks)->Arg(4000)->Arg(16000);

void BM_PostOrderMinMem(benchmark::State& state) {
  const Tree t = synth(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) benchmark::DoNotOptimize(core::postorder_minmem(t).peak);
}
BENCHMARK(BM_PostOrderMinMem)->Arg(3000)->Arg(30000);

void BM_PostOrderMinIo(benchmark::State& state) {
  const Tree t = synth(static_cast<std::size_t>(state.range(0)), 5);
  const Weight m = (t.min_feasible_memory() + core::opt_minmem_peak(t, t.root())) / 2;
  for (auto _ : state) benchmark::DoNotOptimize(core::postorder_minio(t, m).predicted_io);
}
BENCHMARK(BM_PostOrderMinIo)->Arg(3000)->Arg(16000)->Arg(30000);

void BM_FifSimulator(benchmark::State& state) {
  const Tree t = synth(static_cast<std::size_t>(state.range(0)), 6);
  const auto schedule = core::opt_minmem(t).schedule;
  const Weight m = (t.min_feasible_memory() + core::opt_minmem_peak(t, t.root())) / 2;
  for (auto _ : state) benchmark::DoNotOptimize(core::simulate_fif(t, schedule, m).io_volume);
}
BENCHMARK(BM_FifSimulator)->Arg(3000)->Arg(30000);

// FiF at M = 1.05 * LB on OptMinMem's schedule, where memory binds early
// and RecExpand runs its subtree FiF most (ROADMAP item 2).
void BM_FifSimulator_NearLb(benchmark::State& state) {
  const Tree t = synth(static_cast<std::size_t>(state.range(0)), 6);
  const auto schedule = core::opt_minmem(t).schedule;
  const Weight m = t.min_feasible_memory() * 105 / 100;
  std::int64_t evictions = 0;
  for (auto _ : state) {
    const core::FifResult r = core::simulate_fif(t, schedule, m);
    evictions = r.evictions;
    benchmark::DoNotOptimize(r.io_volume);
  }
  state.counters["evictions"] = static_cast<double>(evictions);
}
BENCHMARK(BM_FifSimulator_NearLb)->Arg(4000)->Arg(16000);

// Wide fan-in: a hub over `legs` two-node legs (a node above a heavier
// leaf, so the star has `legs` leaves), run all leaves, then all leg
// nodes, then the hub, at M = LB. Memory binds from the first steps, and
// the leg nodes, all consumed at the hub's step, are active siblings that
// FiF evicts by slot.
void BM_FifSimulator_Star(benchmark::State& state) {
  const auto legs = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  std::vector<core::NodeId> parent(2 * legs + 1, 0);
  std::vector<Weight> weight(2 * legs + 1, 1);
  parent[0] = core::kNoNode;
  core::Schedule schedule;
  for (std::size_t k = 0; k < legs; ++k) {
    const std::size_t node = 1 + k;
    const std::size_t leaf = 1 + legs + k;
    parent[leaf] = static_cast<core::NodeId>(node);
    weight[node] = rng.uniform_int(1, 100);
    weight[leaf] = weight[node] + rng.uniform_int(1, 100);
    schedule.push_back(static_cast<core::NodeId>(leaf));
  }
  for (std::size_t k = 0; k < legs; ++k) schedule.push_back(static_cast<core::NodeId>(1 + k));
  schedule.push_back(0);
  const Tree t = Tree::from_parents(std::move(parent), std::move(weight));
  const Weight m = t.min_feasible_memory();
  std::int64_t evictions = 0;
  for (auto _ : state) {
    const core::FifResult r = core::simulate_fif(t, schedule, m);
    evictions = r.evictions;
    benchmark::DoNotOptimize(r.io_volume);
  }
  state.counters["evictions"] = static_cast<double>(evictions);
}
BENCHMARK(BM_FifSimulator_Star)->Arg(100000);

void BM_RecExpand2(benchmark::State& state) {
  const Tree t = synth(static_cast<std::size_t>(state.range(0)), 7);
  const Weight m = (t.min_feasible_memory() + core::opt_minmem_peak(t, t.root())) / 2;
  for (auto _ : state) benchmark::DoNotOptimize(core::rec_expand2(t, m).evaluation.io_volume);
}
BENCHMARK(BM_RecExpand2)->Arg(1000)->Arg(3000)->Arg(16000);

// The incremental engine vs the retained reference path at the scaling
// bench's acceptance point, M = 1.1 * LB (many expansions). See
// bench_recexpand_scaling for the full sweep.
Weight tight_memory(const Tree& t) {
  const Weight lb = t.min_feasible_memory();
  const Weight peak = core::opt_minmem_peak(t, t.root());
  return std::max(lb, std::min<Weight>(peak - 1, lb + lb / 10));
}

void BM_FullRecExpand_TightMemory(benchmark::State& state) {
  const Tree t = synth(static_cast<std::size_t>(state.range(0)), 9);
  const Weight m = tight_memory(t);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::full_rec_expand(t, m).evaluation.io_volume);
}
BENCHMARK(BM_FullRecExpand_TightMemory)->Arg(1000)->Arg(3000);

void BM_FullRecExpandReference_TightMemory(benchmark::State& state) {
  const Tree t = synth(static_cast<std::size_t>(state.range(0)), 9);
  const Weight m = tight_memory(t);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::oracle::rec_expand_reference(t, m, core::RecExpandOptions{}).evaluation.io_volume);
}
BENCHMARK(BM_FullRecExpandReference_TightMemory)->Arg(1000)->Arg(3000);

void BM_ScheduleFromIo_BatchExpand(benchmark::State& state) {
  const Tree t = synth(static_cast<std::size_t>(state.range(0)), 10);
  const Weight m = (t.min_feasible_memory() + core::opt_minmem_peak(t, t.root())) / 2;
  const auto schedule = core::opt_minmem(t).schedule;
  const auto fif = core::simulate_fif(t, schedule, m);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::schedule_from_io(t, fif.io, m)->size());
}
BENCHMARK(BM_ScheduleFromIo_BatchExpand)->Arg(3000)->Arg(30000);

void BM_RemyGenerator(benchmark::State& state) {
  util::Rng rng(8);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        treegen::uniform_binary_tree(static_cast<std::size_t>(state.range(0)), rng).size());
}
BENCHMARK(BM_RemyGenerator)->Arg(3000)->Arg(30000);

// One SYNTH request's tree, as the planning service materializes it:
// shape, weights and memory model (arg 1: 0 = max, 1 = sum) in one call.
void BM_SynthInstance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto model = state.range(1) == 0 ? core::MemoryModel::kMaxInOut
                                         : core::MemoryModel::kSumInOut;
  util::Rng rng(11);
  for (auto _ : state)
    benchmark::DoNotOptimize(treegen::synth_instance(n, 1, 100, rng, model).size());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SynthInstance)->ArgsProduct({{4000, 16000}, {0, 1}});

// The whole-tree postorder walk, at cold-plan sizes: from_parents makes it
// once and stores it, and a mapped snapshot makes it on first use.
void BM_TreePostorder(benchmark::State& state) {
  const Tree t = synth(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) benchmark::DoNotOptimize(t.postorder(t.root()).data());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreePostorder)->Arg(4000)->Arg(16000);

void BM_EtreeAndCounts(benchmark::State& state) {
  const auto k = static_cast<sparse::Index>(state.range(0));
  const auto g = sparse::grid2d(k, k);
  const auto perm = sparse::nested_dissection_2d(k, k);
  const auto q = g.permuted(perm);
  for (auto _ : state) {
    const auto parent = sparse::elimination_tree(q);
    benchmark::DoNotOptimize(sparse::column_counts(q, parent).size());
  }
}
BENCHMARK(BM_EtreeAndCounts)->Arg(64)->Arg(128);

// range(0) picks the pattern family of the end-to-end mtx-order workload
// (0: 5-pt k x k grid, 1: 9-pt k x k grid, 2: 7-pt k^3 grid, 3: random
// pattern with k vertices and average degree 4), or 4: a fill-heavy random
// pattern with k vertices and average degree 8; range(1) is k.
sparse::SymPattern md_pattern(const benchmark::State& state) {
  const auto k = static_cast<sparse::Index>(state.range(1));
  util::Rng rng(101);
  switch (state.range(0)) {
    case 0: return sparse::grid2d(k, k);
    case 1: return sparse::grid2d_9pt(k, k);
    case 2: return sparse::grid3d(k, k, k);
    case 3: return sparse::random_symmetric(k, 4.0, rng);
    default: return sparse::random_symmetric(k, 8.0, rng);
  }
}

void BM_MinimumDegree(benchmark::State& state) {
  const sparse::SymPattern g = md_pattern(state);
  for (auto _ : state) benchmark::DoNotOptimize(sparse::minimum_degree(g).size());
}
BENCHMARK(BM_MinimumDegree)
    ->ArgNames({"family", "k"})
    ->Args({0, 32})
    ->Args({0, 64})
    ->Args({1, 40})
    ->Args({2, 12})
    ->Args({3, 1200})
    ->Args({2, 22})
    ->Args({4, 4000});

// The .mtx bytes of a 56 x 56 5-pt grid (family 0) or of a 1200-vertex
// random pattern (family 3), parsed into a pattern: the first step of a
// cold .mtx request.
void BM_ReadMatrixMarket(benchmark::State& state) {
  std::ostringstream out;
  sparse::write_matrix_market(out, md_pattern(state));
  const std::string bytes = out.str();
  for (auto _ : state) benchmark::DoNotOptimize(sparse::read_matrix_market(bytes).nnz());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_ReadMatrixMarket)->ArgNames({"family", "k"})->Args({0, 56})->Args({3, 1200});

// Relabelling a pattern by its minimum-degree order, the step between the
// ordering and the assembly tree.
void BM_PatternPermuted(benchmark::State& state) {
  const sparse::SymPattern g = md_pattern(state);
  const std::vector<sparse::Index> perm = sparse::minimum_degree(g);
  for (auto _ : state) benchmark::DoNotOptimize(g.permuted(perm).nnz());
}
BENCHMARK(BM_PatternPermuted)->ArgNames({"family", "k"})->Args({0, 56})->Args({3, 1200});

void BM_AssemblyTree(benchmark::State& state) {
  const auto k = static_cast<sparse::Index>(state.range(0));
  const auto g = sparse::grid2d(k, k);
  const auto perm = sparse::nested_dissection_2d(k, k);
  for (auto _ : state)
    benchmark::DoNotOptimize(sparse::assembly_tree_ordered(g, perm).size());
}
BENCHMARK(BM_AssemblyTree)->Arg(64)->Arg(128);

// The replay-paged shape of the end-to-end benchmark: a SYNTH tree
// replayed along its OptMinMem schedule at M = 1.5 x LB with 32-unit pages
// and a {0.5, 64} disk, sequential-order priority and Belady eviction.
// range(0) is n, range(1) backfill_depth, range(2) prefetch_window,
// range(3) workers (the share of rounds whose running tasks reserve every
// frame, which skip the prefetch prediction, depends on it), range(4)
// residency_aware and range(5) write_queue_depth, so the rows time both
// kinds of slot scan and the write queue.
void BM_SimulateParallelPaged(benchmark::State& state) {
  const Tree t = synth(static_cast<std::size_t>(state.range(0)), 1);
  const core::Schedule reference = core::opt_minmem(t).schedule;
  parallel::PagedParallelConfig config;
  config.base.workers = static_cast<int>(state.range(3));
  config.base.memory = t.min_feasible_memory() * 3 / 2;
  config.base.priority = parallel::Priority::kSequentialOrder;
  config.base.backfill_depth = static_cast<int>(state.range(1));
  config.base.prefetch_window = static_cast<int>(state.range(2));
  config.base.residency_aware = state.range(4) != 0;
  config.base.write_queue_depth = static_cast<int>(state.range(5));
  config.page_size = 32;
  config.disk = iosim::DiskModel{0.5, 64.0};
  parallel::PagedParallelResult last;
  for (auto _ : state) {
    last = parallel::simulate_parallel_paged(t, config, reference);
    benchmark::DoNotOptimize(last.base.makespan);
  }
  // The counters of the last replay: a paired run that changes only speed
  // shows every one of them unchanged.
  state.counters["failed_starts"] = static_cast<double>(last.base.failed_starts);
  state.counters["backfill_scans"] = static_cast<double>(last.base.backfill_scans);
  state.counters["backfill_hits"] = static_cast<double>(last.base.backfill_hits);
  state.counters["pages_written"] = static_cast<double>(last.pages_written);
  state.counters["pages_read"] = static_cast<double>(last.pages_read);
  state.counters["prefetch_useful"] = static_cast<double>(last.prefetch_useful);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulateParallelPaged)
    ->ArgNames({"n", "depth", "window", "workers", "residency", "queue"})
    ->ArgsProduct({{3000, 10000}, {0, 8}, {0, 8}, {2, 4, 8}, {0, 1}, {0, 8}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
