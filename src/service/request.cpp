#include "src/service/request.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "src/core/snapshot.hpp"
#include "src/core/tree_io.hpp"
#include "src/sparse/assembly_tree.hpp"
#include "src/sparse/matrix_market.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/util/rng.hpp"
#include "src/util/text.hpp"

namespace ooctree::service {

namespace {

using util::to_lower;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) { return util::splitmix64(h ^ v); }

std::uint64_t mix_i64(std::uint64_t h, std::int64_t v) {
  return mix(h, static_cast<std::uint64_t>(v));
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  return mix(h, std::bit_cast<std::uint64_t>(v));
}

/// Folds the replay configuration into a digest. The replay seed only
/// enters under EvictionPolicy::kRandom — for every other policy it cannot
/// influence the result, and keeping it out lets requests that differ only
/// in their derived stream share one cache entry.
std::uint64_t mix_replay(std::uint64_t h, const PlanRequest& request, std::uint64_t seed) {
  // Mixed unconditionally: requests differing only in page_size or the disk
  // model must never share a key, even invalid ones (page_size without a
  // replay config) — those are rejected before the cache is consulted, but
  // the keyspace stays honest regardless.
  h = mix_i64(h, request.page_size);
  h = mix_double(h, request.disk_latency);
  h = mix_double(h, request.disk_bandwidth);
  if (!request.parallel.has_value()) return mix(h, 0x70ULL);
  const parallel::ParallelConfig& pc = *request.parallel;
  h = mix(h, 0x71ULL);
  h = mix_i64(h, pc.workers);
  h = mix(h, static_cast<std::uint64_t>(pc.cost));
  h = mix(h, static_cast<std::uint64_t>(pc.priority));
  h = mix_i64(h, pc.backfill_depth);
  h = mix(h, pc.residency_aware ? 1ULL : 0ULL);
  h = mix_i64(h, pc.write_queue_depth);
  h = mix_i64(h, pc.prefetch_window);
  h = mix(h, static_cast<std::uint64_t>(pc.evict));
  if (pc.evict == core::EvictionPolicy::kRandom)
    h = mix(h, pc.seed == 0 ? seed : pc.seed);
  return h;
}

}  // namespace

std::string tree_source_name(TreeSource s) {
  switch (s) {
    case TreeSource::kSynth: return "synth";
    case TreeSource::kParents: return "parents";
    case TreeSource::kTreeFile: return "tree";
    case TreeSource::kMatrixMarket: return "mtx";
    case TreeSource::kSnapshot: return "snapshot";
  }
  throw std::invalid_argument("tree_source_name: unknown source");
}

TreeSource tree_source_from_name(const std::string& name) {
  const std::string s = to_lower(name);
  if (s == "synth") return TreeSource::kSynth;
  if (s == "parents") return TreeSource::kParents;
  if (s == "tree" || s == "file") return TreeSource::kTreeFile;
  if (s == "mtx" || s == "matrixmarket") return TreeSource::kMatrixMarket;
  if (s == "snapshot" || s == "otree") return TreeSource::kSnapshot;
  throw std::invalid_argument("unknown tree source '" + name +
                              "' (synth | parents | tree | mtx | snapshot)");
}

std::string priority_name(parallel::Priority p) {
  switch (p) {
    case parallel::Priority::kSequentialOrder: return "sequential-order";
    case parallel::Priority::kCriticalPath: return "critical-path";
    case parallel::Priority::kHeaviestSubtree: return "heaviest-subtree";
  }
  throw std::invalid_argument("priority_name: unknown priority");
}

parallel::Priority priority_from_name(const std::string& name) {
  const std::string s = to_lower(name);
  if (s == "sequential-order" || s == "sequential") return parallel::Priority::kSequentialOrder;
  if (s == "critical-path" || s == "critical") return parallel::Priority::kCriticalPath;
  if (s == "heaviest-subtree" || s == "heaviest") return parallel::Priority::kHeaviestSubtree;
  throw std::invalid_argument("unknown priority '" + name +
                              "' (sequential-order | critical-path | heaviest-subtree)");
}

std::string cost_model_name(parallel::CostModel c) {
  switch (c) {
    case parallel::CostModel::kWbar: return "wbar";
    case parallel::CostModel::kWeight: return "weight";
    case parallel::CostModel::kUnit: return "unit";
  }
  throw std::invalid_argument("cost_model_name: unknown cost model");
}

parallel::CostModel cost_model_from_name(const std::string& name) {
  const std::string s = to_lower(name);
  if (s == "wbar") return parallel::CostModel::kWbar;
  if (s == "weight") return parallel::CostModel::kWeight;
  if (s == "unit") return parallel::CostModel::kUnit;
  throw std::invalid_argument("unknown cost model '" + name + "' (wbar | weight | unit)");
}

std::string served_name(Served s) {
  switch (s) {
    case Served::kComputed: return "computed";
    case Served::kCached: return "cached";
    case Served::kCoalesced: return "coalesced";
    case Served::kFused: return "fused";
    case Served::kShed: return "shed";
  }
  throw std::invalid_argument("served_name: unknown value");
}

bool identical(const PlanStats& a, const PlanStats& b) {
  return std::apply([&](auto... member) { return ((a.*member == b.*member) && ...); },
                    kPlanStatsFields);
}

std::uint64_t effective_seed(const PlanRequest& request, std::uint64_t service_seed) {
  return request.seed != 0 ? request.seed
                           : util::derive_seed(service_seed,
                                               static_cast<std::uint64_t>(request.id));
}

core::Tree materialize_tree(const PlanRequest& request, std::uint64_t seed) {
  core::Tree tree = [&] {
    switch (request.source) {
      case TreeSource::kSynth: {
        if (request.nodes == 0) throw std::invalid_argument("synth request: nodes must be > 0");
        if (request.w_lo < 1 || request.w_hi < request.w_lo)
          throw std::invalid_argument("synth request: need 1 <= w_lo <= w_hi");
        util::Rng rng(seed);
        return treegen::synth_instance(request.nodes, request.w_lo, request.w_hi, rng,
                                       request.model);
      }
      case TreeSource::kParents:
        return core::Tree::from_parents(request.parent, request.weight, request.model);
      case TreeSource::kTreeFile:
      case TreeSource::kMatrixMarket:
        return tree_from_bytes(request.source, read_source_file(request.source, request.path),
                               request.model);
      case TreeSource::kSnapshot:
        return core::load_snapshot(request.path);
    }
    throw std::invalid_argument("materialize_tree: unknown source");
  }();
  if (tree.memory_model() != request.model) tree = tree.with_memory_model(request.model);
  return tree;
}

bool is_text_source(TreeSource source) {
  return source == TreeSource::kTreeFile || source == TreeSource::kMatrixMarket;
}

std::string read_source_file(TreeSource source, const std::string& path) {
  if (!is_text_source(source)) throw std::invalid_argument("read_source_file: not a text source");
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error(
        (source == TreeSource::kTreeFile ? "load_tree" : "load_matrix_market") +
        std::string(": cannot open ") + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();  // an empty file leaves `bytes` empty; the parsers report it
  return std::move(bytes).str();
}

core::Tree tree_from_bytes(TreeSource source, std::string bytes, core::MemoryModel model) {
  if (!is_text_source(source)) throw std::invalid_argument("tree_from_bytes: not a text source");
  core::Tree tree = [&] {
    if (source == TreeSource::kMatrixMarket)
      return sparse::mtx_assembly_tree(sparse::read_matrix_market(std::string_view(bytes)));
    std::istringstream in(std::move(bytes));
    return core::read_tree(in);
  }();
  if (tree.memory_model() != model) tree = tree.with_memory_model(model);
  return tree;
}

core::Weight resolve_memory(const PlanRequest& request, core::Weight lb) {
  if (request.memory > 0) {
    if (request.memory < lb)
      throw std::invalid_argument("memory bound " + std::to_string(request.memory) +
                                  " below the feasibility bound LB=" + std::to_string(lb));
    return request.memory;
  }
  if (request.memory_lb < 1.0)
    throw std::invalid_argument("memory_lb multiple must be >= 1.0");
  // Converting a double at or above 2^63 (or a NaN / infinity) to int64 is
  // undefined; on x86 it yields INT64_MIN, which the max() below would
  // silently turn into the tightest bound LB.
  const double bound = static_cast<double>(lb) * request.memory_lb;
  if (!(bound < 0x1p63))
    throw std::invalid_argument("memory_lb multiple gives a bound beyond the int64 range");
  return std::max(lb, static_cast<core::Weight>(bound));
}

core::Weight resolve_memory(const PlanRequest& request, const core::Tree& tree) {
  return resolve_memory(request, tree.min_feasible_memory());
}

std::optional<std::uint64_t> request_fingerprint(const PlanRequest& request, std::uint64_t seed) {
  if (request.source == TreeSource::kTreeFile || request.source == TreeSource::kMatrixMarket ||
      request.source == TreeSource::kSnapshot)
    return std::nullopt;  // the answer depends on file content, not the spec
  std::uint64_t h = util::splitmix64(0xF1ULL);
  h = mix(h, static_cast<std::uint64_t>(request.source));
  h = mix(h, static_cast<std::uint64_t>(request.model));
  h = mix_i64(h, request.memory);
  h = mix_double(h, request.memory_lb);
  h = mix(h, static_cast<std::uint64_t>(request.strategy));
  if (request.source == TreeSource::kSynth) {
    h = mix(h, request.nodes);
    h = mix_i64(h, request.w_lo);
    h = mix_i64(h, request.w_hi);
    h = mix(h, seed);
  } else {
    h = mix(h, request.parent.size());
    for (const core::NodeId p : request.parent) h = mix_i64(h, p);
    for (const core::Weight w : request.weight) h = mix_i64(h, w);
  }
  return mix_replay(h, request, seed);
}

std::uint64_t params_fingerprint(const PlanRequest& request, core::Weight memory,
                                 std::uint64_t seed) {
  std::uint64_t h = util::splitmix64(0xA7ULL);
  h = mix_i64(h, memory);
  h = mix(h, static_cast<std::uint64_t>(request.strategy));
  return mix_replay(h, request, seed);
}

std::uint64_t tree_identity(const PlanRequest& request, std::uint64_t seed) {
  std::uint64_t h = util::splitmix64(0x7EE1DULL);
  h = mix(h, static_cast<std::uint64_t>(request.source));
  h = mix(h, static_cast<std::uint64_t>(request.model));
  switch (request.source) {
    case TreeSource::kSynth:
      h = mix(h, request.nodes);
      h = mix_i64(h, request.w_lo);
      h = mix_i64(h, request.w_hi);
      // The *effective* seed: synth requests with seed == 0 derive a
      // per-id stream, so two ids only share a tree when those streams
      // coincide — grouping on the raw spec would fuse different trees.
      h = mix(h, seed);
      break;
    case TreeSource::kParents:
      h = mix(h, request.parent.size());
      for (const core::NodeId p : request.parent) h = mix_i64(h, p);
      for (const core::Weight w : request.weight) h = mix_i64(h, w);
      break;
    case TreeSource::kTreeFile:
    case TreeSource::kMatrixMarket:
    case TreeSource::kSnapshot:
      h = mix(h, request.path.size());
      for (const char c : request.path) h = mix(h, static_cast<unsigned char>(c));
      break;
  }
  return h;
}

}  // namespace ooctree::service
