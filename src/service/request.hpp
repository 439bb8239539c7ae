// Request/response vocabulary of the planning service (src/service/).
//
// A PlanRequest names a tree source (generator spec, explicit parent
// vector, tree file, or Matrix Market path), a memory bound (absolute or a
// multiple of the instance's feasibility bound LB), the planning Strategy,
// and an optional parallel-replay configuration. A PlanResponse carries an
// immutable, shareable PlanStats payload — everything deterministic about
// the answer — plus per-serve metadata (how it was served, how long it
// took). Keeping the deterministic payload separate is what lets the
// service cache hand the *same* PlanStats object to every duplicate
// request: cached and freshly computed responses are bit-identical by
// construction, which tests/test_service.cpp and the throughput bench pin.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/strategies.hpp"
#include "src/core/traversal.hpp"
#include "src/core/tree.hpp"
#include "src/parallel/parallel_sim.hpp"

namespace ooctree::service {

/// Where a request's task tree comes from.
enum class TreeSource : std::uint8_t {
  kSynth,         ///< generator spec: uniform binary tree, uniform weights
  kParents,       ///< explicit parent/weight vectors in the request
  kTreeFile,      ///< '<parent> <weight>' text file (core/tree_io.hpp)
  kMatrixMarket,  ///< .mtx path through the multifrontal pipeline (sparse/)
  kSnapshot,      ///< .otree binary snapshot, mmap'd zero-copy (core/snapshot.hpp)
};

[[nodiscard]] std::string tree_source_name(TreeSource s);
[[nodiscard]] TreeSource tree_source_from_name(const std::string& name);

/// Parallel Priority / CostModel names, shared by the CLIs, the request
/// decoder and the response printers.
[[nodiscard]] std::string priority_name(parallel::Priority p);
[[nodiscard]] parallel::Priority priority_from_name(const std::string& name);
[[nodiscard]] std::string cost_model_name(parallel::CostModel c);
[[nodiscard]] parallel::CostModel cost_model_from_name(const std::string& name);

/// One planning request. Defaults describe a 500-node SYNTH instance
/// planned by RecExpand at M = 2×LB, no parallel replay.
struct PlanRequest {
  std::int64_t id = 0;  ///< caller-chosen; also salts the derived RNG stream

  /// Fair-scheduling key of the multi-tenant server (src/server/): requests
  /// from one tenant share a queue, weight and in-flight cap there. Pure
  /// routing metadata — never part of a fingerprint or cache key, so
  /// identical requests from different tenants still dedup to one compute.
  std::string tenant;

  TreeSource source = TreeSource::kSynth;
  // kSynth: `nodes` nodes, weights uniform in [w_lo, w_hi]. seed == 0 means
  // "derive from (service seed, request id)" — the deterministic default.
  std::size_t nodes = 500;
  core::Weight w_lo = 1;
  core::Weight w_hi = 100;
  std::uint64_t seed = 0;
  // kParents: the tree spelled out in the request.
  std::vector<core::NodeId> parent;
  std::vector<core::Weight> weight;
  // kTreeFile / kMatrixMarket / kSnapshot: on-disk instance.
  std::string path;

  /// Transient-memory model the tree is planned under.
  core::MemoryModel model = core::MemoryModel::kMaxInOut;

  /// Memory bound: `memory` wins when positive; otherwise the bound is
  /// max(LB, memory_lb × LB). An absolute bound below LB is an error.
  core::Weight memory = 0;
  double memory_lb = 2.0;

  core::Strategy strategy = core::Strategy::kRecExpand;

  /// When set, the planned schedule is replayed through the shared-memory
  /// parallel simulator. `parallel->memory` is overridden by the request's
  /// resolved bound; `parallel->seed == 0` means "use the request's derived
  /// RNG stream" (only consulted by EvictionPolicy::kRandom).
  std::optional<parallel::ParallelConfig> parallel;

  /// Page size of the replay in memory units. 0 (the default) replays
  /// unit-granular through simulate_parallel; > 0 replays through the
  /// paged engine (simulate_parallel_paged) with frames = memory /
  /// page_size and page-I/O stats in the response. Requires `parallel`.
  core::Weight page_size = 0;

  /// Disk-cost model of the paged replay: disk_bandwidth > 0 charges
  /// iosim::DiskModel{disk_latency, disk_bandwidth} read stalls against the
  /// makespan (and makes `parallel->residency_aware` meaningful). Requires
  /// page_size > 0; disk_latency alone (without a bandwidth) is an error.
  double disk_latency = 0.0;
  double disk_bandwidth = 0.0;
};

/// The deterministic payload of an answer. Immutable once built; duplicate
/// requests share one PlanStats through shared_ptr.
struct PlanStats {
  bool ok = false;
  std::string error;  ///< set when !ok; every other field is then default

  // Instance.
  std::size_t nodes = 0;
  std::uint64_t tree_hash = 0;  ///< Tree::canonical_hash()
  core::Weight total_weight = 0;
  core::Weight lb = 0;      ///< min feasible memory of the instance
  core::Weight memory = 0;  ///< resolved bound the plan was made under

  // Plan.
  core::Strategy strategy = core::Strategy::kRecExpand;
  core::Schedule schedule;
  core::IoFunction io;
  core::Weight io_volume = 0;
  core::Weight peak_resident = 0;
  std::int64_t evictions = 0;

  // Parallel replay (only when the request asked for one).
  bool replayed = false;
  bool replay_feasible = false;
  int workers = 0;
  double makespan = 0.0;
  core::Weight parallel_io = 0;
  double utilization = 0.0;
  std::int64_t failed_starts = 0;  ///< starts rejected for lack of memory

  // Paged replay (only when the request set page_size > 0): page-granular
  // I/O accounting from simulate_parallel_paged; parallel_io then equals
  // pages_written * page_size. read_stall is nonzero only under a disk
  // model (disk_bandwidth > 0): worker time spent waiting on read-backs.
  core::Weight page_size = 0;
  std::int64_t pages_written = 0;
  std::int64_t pages_read = 0;
  double read_stall = 0.0;

  // Disk pipeline (only when the replay set write_queue_depth or
  // prefetch_window under a disk model; all zero on the synchronous path).
  double write_stall = 0.0;          ///< worker time stalled on a full write queue
  std::int64_t prefetch_issued = 0;  ///< pages fetched ahead of their start
  std::int64_t prefetch_useful = 0;  ///< prefetched pages consumed by their start
  std::int64_t prefetch_wasted = 0;  ///< prefetched pages evicted before use
};

/// Every PlanStats member, in .plan file order. identical() compares them
/// and the result cache's .plan codec writes and reads them, so a new
/// member is one entry here (and a kPlanVersion bump in result_cache.cpp).
inline constexpr std::tuple kPlanStatsFields{
    &PlanStats::ok, &PlanStats::error, &PlanStats::nodes, &PlanStats::tree_hash,
    &PlanStats::total_weight, &PlanStats::lb, &PlanStats::memory, &PlanStats::strategy,
    &PlanStats::schedule, &PlanStats::io, &PlanStats::io_volume, &PlanStats::peak_resident,
    &PlanStats::evictions, &PlanStats::replayed, &PlanStats::replay_feasible, &PlanStats::workers,
    &PlanStats::makespan, &PlanStats::parallel_io, &PlanStats::utilization,
    &PlanStats::failed_starts, &PlanStats::page_size, &PlanStats::pages_written,
    &PlanStats::pages_read, &PlanStats::read_stall, &PlanStats::write_stall,
    &PlanStats::prefetch_issued, &PlanStats::prefetch_useful, &PlanStats::prefetch_wasted};

/// Field-by-field equality of the deterministic payload — the differential
/// check used to prove cached responses match recomputation exactly.
[[nodiscard]] bool identical(const PlanStats& a, const PlanStats& b);

/// How a response was produced.
enum class Served : std::uint8_t {
  kComputed,   ///< planned from scratch on a worker
  kCached,     ///< answered from the result cache
  kCoalesced,  ///< attached to an identical in-flight computation
  kFused,      ///< computed inside a fused same-tree batch (plan_fused)
  kShed,       ///< rejected by server admission control (ok=false)
};

[[nodiscard]] std::string served_name(Served s);

/// One answer. `stats` is never null; failures are PlanStats with ok=false.
struct PlanResponse {
  std::int64_t id = 0;
  std::shared_ptr<const PlanStats> stats;
  Served served = Served::kComputed;
  double seconds = 0.0;  ///< wall time serving this request on its worker
};

/// The RNG stream seed a request plans under: the request's own seed when
/// set, otherwise util::derive_seed(service_seed, request id).
[[nodiscard]] std::uint64_t effective_seed(const PlanRequest& request, std::uint64_t service_seed);

/// Materializes the request's tree (generates, decodes, or loads it) under
/// the request's memory model. Throws std::runtime_error /
/// std::invalid_argument on bad specs or unreadable files.
[[nodiscard]] core::Tree materialize_tree(const PlanRequest& request, std::uint64_t seed);

/// True for the text path sources (kTreeFile, kMatrixMarket): the ones
/// materialized by parsing a file's bytes, which read_source_file and
/// tree_from_bytes serve.
[[nodiscard]] bool is_text_source(TreeSource source);

/// The whole content of a text path source's file. Throws
/// std::runtime_error "load_tree: cannot open <path>" or
/// "load_matrix_market: cannot open <path>", the texts core::load_tree and
/// sparse::load_matrix_market give.
[[nodiscard]] std::string read_source_file(TreeSource source, const std::string& path);

/// The tree a text path source's bytes describe, under `model`: read_tree
/// for kTreeFile, read_matrix_market + mtx_assembly_tree for
/// kMatrixMarket. The one parsing rule for those sources, shared by
/// materialize_tree and the service's source cache (source_cache.hpp), so
/// both fail with the parsers' own messages.
[[nodiscard]] core::Tree tree_from_bytes(TreeSource source, std::string bytes,
                                         core::MemoryModel model);

/// Resolves the request's memory bound against an instance whose
/// feasibility bound is `lb`. Throws std::invalid_argument when an
/// absolute bound is below LB, when the multiple is below 1, or when
/// LB × memory_lb is not a finite value below 2^63 (no int64 bound
/// represents it).
[[nodiscard]] core::Weight resolve_memory(const PlanRequest& request, core::Weight lb);

/// resolve_memory against the materialized tree's LB.
[[nodiscard]] core::Weight resolve_memory(const PlanRequest& request, const core::Tree& tree);

/// Fingerprint of a *value-determined* request: a 64-bit digest of every
/// field that determines the answer, computable without materializing the
/// tree. Path-based sources return nullopt — their answer depends on file
/// content, which only the canonical tree hash captures.
[[nodiscard]] std::optional<std::uint64_t> request_fingerprint(const PlanRequest& request,
                                                               std::uint64_t seed);

/// Digest of the non-tree parameters (resolved memory, strategy, replay
/// config): the params half of the canonical cache key.
[[nodiscard]] std::uint64_t params_fingerprint(const PlanRequest& request, core::Weight memory,
                                               std::uint64_t seed);

/// Digest of everything that determines which tree the request
/// materializes — source, memory model, and the spec (synth generator
/// parameters + effective seed, inline parent/weight vectors, or the
/// path string). Two requests with equal tree_identity materialize
/// bit-identical trees, so a fused batch (PlanService::plan_fused) can
/// share one materialization and one set of memory-independent planning
/// passes across them. Unlike Tree::canonical_hash() this needs no
/// materialization; unlike request_fingerprint it ignores the memory
/// bound, strategy and replay knobs. Path sources group by path string —
/// same-content-different-path trees simply fuse less, never wrongly.
[[nodiscard]] std::uint64_t tree_identity(const PlanRequest& request, std::uint64_t seed);

}  // namespace ooctree::service
