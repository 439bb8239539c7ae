// Layer-by-layer replay of one request for the traced run.
//
// The server cannot be opened up from the benchmark, so a sampled request
// is replayed single-threaded through each layer's public entry points —
// decode, materialization, hashing, the planner, FiF and the paged replay
// — one span per call, rebuilding the PlanStats the service would build.
// The caller checks that answer is identical() to the server's, so the
// decomposition cannot drift from the service path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/service/request.hpp"
#include "tracer.hpp"

namespace bench {

/// Work counts gathered at the same boundaries as the spans.
struct LayerCounts {
  std::int64_t rec_expand_expansions = 0;
  std::int64_t fif_evictions = 0;
  std::int64_t sparse_tree_nodes = 0;
  std::int64_t sparse_lb_sum = 0;
  std::int64_t failed_starts = 0;
  std::int64_t backfill_scans = 0;
  std::int64_t backfill_hits = 0;
  std::int64_t eviction_events = 0;
  std::int64_t pages_read = 0;
  std::int64_t pages_written = 0;
  std::int64_t prefetch_issued = 0;
  std::int64_t prefetch_useful = 0;
  double read_stall = 0.0;
  double write_stall = 0.0;
  double makespan_sum = 0.0;
};

/// Replays the JSONL `line` (decoded with `fallback_id`, planned under
/// `service_seed`) inside one "bench.request" span and returns its answer.
[[nodiscard]] std::shared_ptr<const ooctree::service::PlanStats> decompose(
    const std::string& line, std::int64_t fallback_id, std::uint64_t service_seed,
    Tracer& tracer, LayerCounts& counts);

}  // namespace bench
