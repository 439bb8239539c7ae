#include "decompose.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "src/core/minio_postorder.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/rec_expand.hpp"
#include "src/core/snapshot.hpp"
#include "src/parallel/parallel_sim.hpp"
#include "src/service/request_io.hpp"
#include "src/sparse/assembly_tree.hpp"
#include "src/sparse/matrix_market.hpp"
#include "src/sparse/ordering.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/util/rng.hpp"

namespace bench {

namespace core = ooctree::core;
namespace service = ooctree::service;

namespace {

core::Tree materialize(const service::PlanRequest& request, std::uint64_t seed, Tracer& tracer,
                       LayerCounts& counts) {
  std::optional<core::Tree> tree;
  switch (request.source) {
    case service::TreeSource::kSynth: {
      const Tracer::Scope span(tracer, "treegen.synth_instance");
      ooctree::util::Rng rng(seed);
      tree.emplace(ooctree::treegen::synth_instance(request.nodes, request.w_lo, request.w_hi, rng));
      break;
    }
    case service::TreeSource::kParents: {
      const Tracer::Scope span(tracer, "core.from_parents");
      tree.emplace(core::Tree::from_parents(request.parent, request.weight, request.model));
      break;
    }
    case service::TreeSource::kSnapshot: {
      const Tracer::Scope span(tracer, "core.load_snapshot");
      tree.emplace(core::load_snapshot(request.path));
      break;
    }
    case service::TreeSource::kMatrixMarket: {
      namespace sparse = ooctree::sparse;
      std::optional<sparse::SymPattern> pattern;
      std::vector<sparse::Index> perm;
      {
        const Tracer::Scope span(tracer, "sparse.load_matrix_market");
        pattern.emplace(sparse::load_matrix_market(request.path));
      }
      {
        const Tracer::Scope span(tracer, "sparse.minimum_degree");
        perm = sparse::minimum_degree(*pattern);
      }
      {
        const Tracer::Scope span(tracer, "sparse.permuted");
        pattern.emplace(pattern->permuted(perm));
      }
      const Tracer::Scope span(tracer, "sparse.assembly_tree");
      tree.emplace(sparse::assembly_tree(*pattern));
      counts.sparse_tree_nodes += static_cast<std::int64_t>(tree->size());
      counts.sparse_lb_sum += tree->min_feasible_memory();
      break;
    }
    case service::TreeSource::kTreeFile:
      throw std::invalid_argument("decompose: no workload uses text tree files");
  }
  if (tree->memory_model() != request.model) {
    const Tracer::Scope span(tracer, "core.with_memory_model");
    tree.emplace(tree->with_memory_model(request.model));
  }
  return std::move(*tree);
}

core::Schedule plan(const service::PlanRequest& request, const core::Tree& tree,
                    core::Weight memory, Tracer& tracer, LayerCounts& counts) {
  switch (request.strategy) {
    case core::Strategy::kPostOrderMinIo: {
      const Tracer::Scope span(tracer, "core.postorder_minio");
      return core::postorder_minio(tree, memory).schedule;
    }
    case core::Strategy::kOptMinMem: {
      const Tracer::Scope span(tracer, "core.opt_minmem");
      return core::opt_minmem(tree).schedule;
    }
    case core::Strategy::kRecExpand:
    case core::Strategy::kFullRecExpand: break;
  }
  // RecExpand's first step is the memory-independent all-peaks pass; the
  // 4-argument rec_expand is the overload the 3-argument one delegates to.
  std::vector<core::Weight> peaks;
  {
    const Tracer::Scope span(tracer, "core.opt_minmem_all_peaks");
    peaks = core::opt_minmem_all_peaks(tree);
  }
  core::RecExpandOptions options;
  if (request.strategy == core::Strategy::kRecExpand) options.max_expansions_per_node = 2;
  const Tracer::Scope span(tracer, "core.rec_expand");
  core::RecExpandResult result = core::rec_expand(tree, memory, options, peaks);
  counts.rec_expand_expansions += static_cast<std::int64_t>(result.expansions);
  return std::move(result.schedule);
}

}  // namespace

std::shared_ptr<const service::PlanStats> decompose(const std::string& line,
                                                    std::int64_t fallback_id,
                                                    std::uint64_t service_seed, Tracer& tracer,
                                                    LayerCounts& counts) {
  tracer.set_request(fallback_id);
  const Tracer::Scope root(tracer, "bench.request");
  service::PlanRequest request;
  {
    const Tracer::Scope span(tracer, "request_io.request_from_json");
    request = service::request_from_json(line, fallback_id);
  }
  const std::uint64_t seed = service::effective_seed(request, service_seed);
  std::optional<core::Tree> owned(materialize(request, seed, tracer, counts));
  const core::Tree& tree = *owned;

  core::Weight memory = 0;
  std::uint64_t tree_hash = 0;
  {
    const Tracer::Scope span(tracer, "core.min_feasible_memory");
    memory = service::resolve_memory(request, tree);
  }
  {
    const Tracer::Scope span(tracer, "core.canonical_hash");
    tree_hash = tree.canonical_hash();
  }
  {
    // The cache keys the service derives before it plans.
    const Tracer::Scope span(tracer, "service.fingerprint");
    static_cast<void>(service::request_fingerprint(request, seed));
    static_cast<void>(service::params_fingerprint(request, memory, seed));
  }

  core::Schedule schedule = plan(request, tree, memory, tracer, counts);
  core::FifResult fif;
  {
    const Tracer::Scope span(tracer, "core.simulate_fif");
    fif = core::simulate_fif(tree, schedule, memory);
  }
  counts.fif_evictions += fif.evictions;
  if (!fif.feasible) throw std::runtime_error("decompose: plan infeasible");

  std::optional<ooctree::parallel::PagedParallelResult> replay;
  ooctree::parallel::PagedParallelConfig paged;
  if (request.parallel.has_value()) {
    // The same configuration PlanService::finish_stats builds.
    paged.base = *request.parallel;
    paged.base.memory = memory;
    if (paged.base.seed == 0) paged.base.seed = seed;
    paged.page_size = std::max<core::Weight>(1, request.page_size);
    if (request.disk_bandwidth > 0)
      paged.disk = ooctree::iosim::DiskModel{request.disk_latency, request.disk_bandwidth};
    const Tracer::Scope span(tracer, "parallel.simulate_parallel_paged");
    replay.emplace(ooctree::parallel::simulate_parallel_paged(tree, paged, schedule));
  }

  auto stats = std::make_shared<service::PlanStats>();
  {
  const Tracer::Scope span(tracer, "service.assemble_stats");
  stats->ok = true;
  stats->nodes = tree.size();
  stats->tree_hash = tree_hash;
  stats->total_weight = tree.total_weight();
  stats->lb = tree.min_feasible_memory();
  stats->memory = memory;
  stats->strategy = request.strategy;
  stats->schedule = std::move(schedule);
  stats->io = std::move(fif.io);
  stats->io_volume = fif.io_volume;
  stats->peak_resident = fif.peak_resident;
  stats->evictions = fif.evictions;
  if (replay.has_value()) {
    const ooctree::parallel::ParallelResult& base = replay->base;
    stats->replayed = true;
    stats->replay_feasible = base.feasible;
    stats->workers = paged.base.workers;
    stats->makespan = base.makespan;
    stats->parallel_io = base.io_volume;
    stats->utilization = base.utilization(paged.base.workers);
    stats->failed_starts = base.failed_starts;
    if (request.page_size > 0) {
      stats->page_size = request.page_size;
      stats->pages_written = replay->pages_written;
      stats->pages_read = replay->pages_read;
      stats->read_stall = replay->read_stall;
      stats->write_stall = replay->write_stall;
      stats->prefetch_issued = replay->prefetch_issued;
      stats->prefetch_useful = replay->prefetch_useful;
      stats->prefetch_wasted = replay->prefetch_wasted;
    }
    counts.failed_starts += base.failed_starts;
    counts.backfill_scans += base.backfill_scans;
    counts.backfill_hits += base.backfill_hits;
    counts.eviction_events += replay->eviction_events;
    counts.pages_read += replay->pages_read;
    counts.pages_written += replay->pages_written;
    counts.prefetch_issued += replay->prefetch_issued;
    counts.prefetch_useful += replay->prefetch_useful;
    counts.read_stall += replay->read_stall;
    counts.write_stall += replay->write_stall;
    counts.makespan_sum += base.makespan;
  }
  }
  // Freeing the tree, replay and request is work the service pays too.
  const Tracer::Scope span(tracer, "service.release");
  owned.reset();
  replay.reset();
  request = {};
  return stats;
}

}  // namespace bench
