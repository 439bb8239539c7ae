// Decoding PlanRequest batches from JSONL and CSV streams.
//
// JSONL: one flat JSON object per line ('#' comments and blank lines are
// skipped). Keys — all optional, unknown keys rejected:
//   id, source ("synth" | "parents" | "tree" | "mtx" | "snapshot"),
//   tenant                            (fair-scheduling key of the server;
//                                      routing metadata, never cached on)
//   nodes, w_lo, w_hi, seed           (synth generator spec)
//   parent [..], weight [..]          (inline parent-vector tree)
//   path                              (tree / mtx / snapshot file sources)
//   model ("max" | "sum"),
//   memory, memory_lb, strategy ("postorder" | "optminmem" | "recexpand" |
//   "full"), and the parallel replay block: workers (> 0 enables the
//   replay), priority (default "sequential-order": replay the planned
//   schedule), evict ("fifo" is an alias of "lru"), cost, backfill_depth
//   (backfill look-ahead, 0 = unlimited, 1 = strict priority), residency
//   (bool, residency-aware paged starts), evict_seed, page_size (> 0
//   switches the replay to the paged engine, page-I/O stats in the
//   response), disk_latency / disk_bandwidth (> 0 charges read stalls;
//   requires page_size), write_queue_depth / prefetch_window (disk
//   pipeline).
// When "source" is absent it is inferred: a "path" ending in .mtx means
// mtx, one ending in .otree means snapshot, any other path means tree, a
// "parent" array means parents, otherwise synth. When "id" is absent the
// 1-based line ordinal (JSONL) or data-row ordinal (CSV) is used.
//
// CSV: a header row naming a subset of the scalar keys above (parent/
// weight arrays are JSONL-only), then one request per row; empty cells
// keep the field's default. The same inference rules apply. Each row
// decodes through request_from_fields, which also decodes ooc_planner's
// command-line options, so a key, a cell and an option are one field.
//
// Numbers are strict decimals, parsed once by the field's kind: integers
// must fit int64 and the field's range, reals must be finite. The parser
// is deliberately minimal — flat objects, numbers, strings, booleans and
// integer arrays — so the service has no dependency beyond the standard
// library. Malformed input throws std::runtime_error with a line number.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/service/request.hpp"

namespace ooctree::service {

/// Which cache keys a request field determines. The fingerprints in
/// request.cpp are hand-written mixes; tests/test_request_fields.cpp
/// perturbs every field and checks that each mix honours its role.
enum class FieldRole : std::uint8_t {
  kRouting,  ///< no key: tenant, and id while seed is set
  kTree,     ///< the materialized tree: spec key, canonical tree hash, tree_identity
  kParams,   ///< memory bound and strategy: spec key and params_fingerprint
  kReplay,   ///< the replay block: spec key and params_fingerprint; needs workers > 0
};

struct RequestField {
  std::string_view name;
  FieldRole role;
};

/// Every request key with its role, in the decoder's table order.
[[nodiscard]] std::vector<RequestField> request_fields();

/// Batch file format selector; kAuto sniffs JSONL by a leading '{'.
enum class BatchFormat : std::uint8_t { kAuto, kJsonl, kCsv };

/// Decodes one JSONL object into a request. `fallback_id` is used when the
/// object has no "id" key. Throws std::runtime_error on malformed input.
[[nodiscard]] PlanRequest request_from_json(const std::string& line,
                                            std::int64_t fallback_id = 0);

/// One field spelled as text: a CSV header cell and its row's cell, or a
/// command-line option and its value.
struct FieldText {
  std::string_view name;
  std::string_view text;
};

/// Decodes a request from name/text pairs, each text parsed by its field's
/// kind exactly as a CSV cell is: an empty text keeps the field's default,
/// and the array fields are JSONL-only. `fallback_id` is used when no pair
/// names "id". Inference, replay gating and the error on an unknown name or
/// a bad value are request_from_json's.
[[nodiscard]] PlanRequest request_from_fields(std::span<const FieldText> fields,
                                              std::int64_t fallback_id = 0);

/// Reads a whole JSONL stream.
[[nodiscard]] std::vector<PlanRequest> read_requests_jsonl(std::istream& in);

/// Reads a whole CSV stream (header row + one request per data row).
[[nodiscard]] std::vector<PlanRequest> read_requests_csv(std::istream& in);

/// Loads a batch file. kAuto decides per content: a first non-blank,
/// non-comment line starting with '{' is JSONL, anything else CSV.
[[nodiscard]] std::vector<PlanRequest> load_requests(const std::string& path,
                                                     BatchFormat format = BatchFormat::kAuto);

}  // namespace ooctree::service
