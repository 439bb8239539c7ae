#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>
#include <stdexcept>
#include <tuple>

#include "src/core/snapshot.hpp"
#include "src/sparse/generators.hpp"
#include "src/sparse/matrix_market.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/treegen/shapes.hpp"
#include "src/treegen/weights.hpp"
#include "src/util/rng.hpp"

namespace bench {

namespace {

using ooctree::util::derive_seed;
using ooctree::util::Rng;

// FullRecExpand is left out: its expansion loop is not polynomially bounded
// (paper, Section 5) and the service sets no cap, so one 4000-node SYNTH
// request at 1.05 x LB ran for minutes.
constexpr const char* kStrategies[] = {"recexpand", "optminmem", "postorder"};
constexpr const char* kModels[] = {"max", "sum"};

/// Stream salts keep the per-purpose RNG streams of one seed independent.
enum Salt : std::uint64_t {
  kTreeSeed = 0x7e5eedULL,
  kBlock = 0xb10cULL,
  kFile = 0xf11eULL,
  kDraw = 0xd4a3ULL,
};

/// A request's own generator seed: nonzero and representable as the
/// int64 the JSONL decoder reads.
std::uint64_t tree_seed(std::uint64_t seed, std::uint64_t stream) {
  return (derive_seed(seed ^ kTreeSeed, stream) >> 1) | 1ULL;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.index(i)]);
}

std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  shuffle(p, rng);
  return p;
}

std::string file_path(const std::string& dir, const char* stem, std::size_t index,
                      const char* ext) {
  const std::string number = std::to_string(index);
  return dir + "/" + stem + std::string(3 - std::min<std::size_t>(3, number.size()), '0') +
         number + ext;
}

/// Appends the distinct text `line` and its position.
void push_unique(Stream& stream, std::string line) {
  stream.order.push_back(static_cast<std::uint32_t>(stream.texts.size()));
  stream.answer.push_back(static_cast<std::uint32_t>(stream.texts.size()));
  stream.texts.push_back(std::move(line));
}

// cold-plan --------------------------------------------------------------
// Every fifth position is a snapshot request, the rest SYNTH. SYNTH
// positions walk blocks of 72 = 3 sizes x 3 strategies x 4 bounds x 2
// models, each block a seeded permutation, so every seed draws the same
// mix and only the trees differ. Snapshot file f serves its 24 parameter
// combinations in seeded order, one every kColdFiles snapshot positions,
// so one file never has two requests in the window at once (no fusion)
// and never repeats a (file, parameters) pair (no cache hits).

constexpr std::size_t kColdSizes[] = {4000, 8000, 16000};
constexpr const char* kColdBounds[] = {"1.05", "1.1", "1.5", "2.0"};
constexpr std::size_t kColdParams = 24;  // strategies x bounds x models
constexpr std::size_t kColdFiles = 144;

std::string cold_params(std::size_t p) {
  return std::string(",\"strategy\":\"") + kStrategies[p % 3] + "\",\"memory_lb\":" +
         kColdBounds[(p / 3) % 4] + ",\"model\":\"" + kModels[p / 12] + "\"}";
}

ooctree::core::Tree cold_shape(std::size_t f, Rng& rng) {
  namespace tg = ooctree::treegen;
  const std::size_t n = kColdSizes[(f / 3) % 3];
  ooctree::core::Tree shape = [&] {
    switch (f % 3) {
      case 0: return tg::caterpillar_tree(n / 4, 3, 1);
      case 1: return tg::spider_tree(16, n / 16, 1);
      default: return tg::random_recursive_tree(n, rng);
    }
  }();
  return tg::with_uniform_weights(shape, 1, 100, rng);
}

Stream cold_plan(const Workload& w, std::uint64_t seed, const std::string& dir) {
  Stream s;
  std::vector<std::vector<std::size_t>> file_params;
  for (std::size_t f = 0; f < kColdFiles; ++f) {
    Rng rng(derive_seed(seed ^ kFile, f));
    s.files.push_back(file_path(dir, "snap", f, ".otree"));
    file_params.push_back(permutation(kColdParams, rng));
    ooctree::core::save_snapshot(s.files.back(), cold_shape(f, rng));
  }
  std::vector<std::size_t> block;
  for (std::size_t i = 0; i < w.length; ++i) {
    if (i % 5 == 4) {
      const std::size_t k = i / 5;
      const std::size_t f = k % kColdFiles;
      if (k / kColdFiles >= kColdParams) throw std::logic_error("cold-plan: snapshot pairs exhausted");
      push_unique(s, "{\"path\":\"" + s.files[f] + "\"" + cold_params(file_params[f][k / kColdFiles]));
      continue;
    }
    const std::size_t j = i - i / 5;
    if (j % 72 == 0) {
      Rng rng(derive_seed(seed ^ kBlock, j / 72));
      block = permutation(72, rng);
    }
    const std::size_t c = block[j % 72];
    push_unique(s, "{\"nodes\":" + std::to_string(kColdSizes[c % 3]) +
                       ",\"seed\":" + std::to_string(tree_seed(seed, i)) + cold_params(c / 3));
  }
  return s;
}

// mtx-order --------------------------------------------------------------
// Square 5-pt and 9-pt 2-D grids, cubic 3-D grids and random patterns from
// the sparse generators. File f's size comes from a low-discrepancy sweep
// over its generator's range (ranges chosen so the costliest request is
// within about 10x the median); the seed draws the random patterns. Grid
// shapes stay fixed: their I/O volume under the sum model dominates the
// workload's and swings with the aspect ratio. Distinct (path, parameters)
// pairs cycle through the files in order, file f taking parameter set
// (f + round) % 12, so one file is never twice in a window and every seed
// plans the same parameters on the same sizes; positions i % 10 in
// {3, 6, 9} (30%) repeat the pair introduced 8 pairs earlier.

constexpr std::size_t kMtxFiles = 360;
constexpr const char* kMtxStrategies[] = {"recexpand", "optminmem"};
constexpr const char* kMtxBounds[] = {"1.0", "1.1", "2.0"};

ooctree::sparse::SymPattern mtx_pattern(std::size_t f, Rng& rng) {
  namespace sp = ooctree::sparse;
  const double u = std::fmod(static_cast<double>(f / 4) * 0.6180339887498949, 1.0);
  const auto side = [&](double lo, double hi) {
    return static_cast<sp::Index>(std::lround(lo + u * (hi - lo)));
  };
  switch (f % 4) {
    case 0: return sp::grid2d(side(28, 56), side(28, 56));
    case 1: return sp::grid2d_9pt(side(20, 40), side(20, 40));
    case 2: return sp::grid3d(side(8, 12), side(8, 12), side(8, 12));
    default: return sp::random_symmetric(side(400, 1200), 4.0, rng);
  }
}

Stream mtx_order(const Workload& w, std::uint64_t seed, const std::string& dir) {
  Stream s;
  for (std::size_t f = 0; f < kMtxFiles; ++f) {
    Rng rng(derive_seed(seed ^ kFile, f));
    s.files.push_back(file_path(dir, "matrix", f, ".mtx"));
    ooctree::sparse::save_matrix_market(s.files.back(), mtx_pattern(f, rng));
  }
  for (std::size_t i = 0; i < w.length; ++i) {
    const std::size_t k = s.texts.size();
    if (i % 10 % 3 == 0 && i % 10 != 0 && k >= 8) {
      s.order.push_back(static_cast<std::uint32_t>(k - 8));
      continue;
    }
    const std::size_t f = k % kMtxFiles;
    if (k / kMtxFiles >= 12) throw std::logic_error("mtx-order: pairs exhausted");
    const std::size_t c = (f + k / kMtxFiles) % 12;
    push_unique(s, "{\"path\":\"" + s.files[f] + "\",\"strategy\":\"" + kMtxStrategies[c % 2] +
                       "\",\"memory_lb\":" + kMtxBounds[(c / 2) % 3] + ",\"model\":\"" +
                       kModels[c / 6] + "\"}");
  }
  return s;
}

// replay-paged -----------------------------------------------------------
// Blocks of 36 = 3 sizes x 3 worker counts x 2 bounds x 2 strategies, the
// factors that set a replay's cost; the 24 combinations of the pipeline,
// residency and eviction knobs cycle from a seeded offset. Unbounded
// backfill (depth 0) costs up to ~10^7 failed starts per replay beyond
// 3000 nodes at 4+ workers, so it runs on the 3000-node OptMinMem replays
// only. Bounds start at 1.5 x LB: rounding outputs up to 32-unit pages
// makes a 1.1 x LB replay infeasible.

constexpr std::size_t kReplaySizes[] = {3000, 6000, 10000};
constexpr int kReplayWorkers[] = {2, 4, 8};
constexpr const char* kReplayBounds[] = {"1.5", "2.0"};
constexpr const char* kReplayEvict[] = {"belady", "lru", "largest"};

Stream replay_paged(const Workload& w, std::uint64_t seed) {
  Stream s;
  std::vector<std::size_t> block;
  Rng draw(derive_seed(seed, kDraw));
  const std::size_t knob_offset = draw.index(24);
  for (std::size_t i = 0; i < w.length; ++i) {
    if (i % 36 == 0) {
      Rng rng(derive_seed(seed ^ kBlock, i / 36));
      block = permutation(36, rng);
    }
    const std::size_t c = block[i % 36];
    const std::size_t q = (i + knob_offset) % 24;  // prefetch x write queue x residency x evict
    const bool optminmem = c / 18 == 0;
    const bool unbounded = optminmem && c % 3 == 0;
    push_unique(s, "{\"nodes\":" + std::to_string(kReplaySizes[c % 3]) +
                       ",\"seed\":" + std::to_string(tree_seed(seed, i)) + ",\"strategy\":\"" +
                       (optminmem ? "optminmem" : "recexpand") +
                       "\",\"memory_lb\":" + kReplayBounds[(c / 9) % 2] +
                       ",\"workers\":" + std::to_string(kReplayWorkers[(c / 3) % 3]) +
                       ",\"page_size\":32,\"disk_latency\":0.5,\"disk_bandwidth\":64" +
                       ",\"backfill_depth\":" + (unbounded ? "0" : "8") +
                       ",\"prefetch_window\":" + (q % 2 == 0 ? "8" : "0") +
                       ",\"write_queue_depth\":" + ((q / 2) % 2 == 0 ? "8" : "0") +
                       ",\"residency\":" + ((q / 4) % 2 == 0 ? "true" : "false") +
                       ",\"evict\":\"" + kReplayEvict[q / 8] + "\"}");
  }
  return s;
}

// tenant-repeat ----------------------------------------------------------
// Callers send sweeps: 6 bounds over one tree, back to back. Every fifth
// sweep is over a ~2000-node inline parent/weight tree, the others over a
// 4000-node SYNTH spec; within each pool a tree's popularity follows a
// Zipf law over a seeded ranking, sampled at a golden-ratio sequence of
// quantiles so every seed sends the same popularity profile. The pool
// outgrows the 512-entry cache, so the popular head hits while the tail
// misses, fills and evicts.

constexpr std::size_t kPoolSynth = 240;
constexpr std::size_t kPoolInline = 24;
constexpr double kZipfExponent = 1.1;
constexpr const char* kSweepBounds[] = {"1.0", "1.1", "1.25", "1.5", "2.0", "3.0"};
constexpr const char* kTenants[] = {"a", "b", "c"};

std::string inline_tree(Rng& rng) {
  const ooctree::core::Tree t = ooctree::treegen::synth_instance(2000, 1, 100, rng);
  std::string parents = "\"parent\":[";
  std::string weights = "\"weight\":[";
  for (std::size_t v = 0; v < t.size(); ++v) {
    const auto id = static_cast<ooctree::core::NodeId>(v);
    if (v != 0) {
      parents += ',';
      weights += ',';
    }
    parents += std::to_string(t.parent(id));
    weights += std::to_string(t.weight(id));
  }
  return parents + "]," + weights + "]";
}

/// Zipf(kZipfExponent) quantile function over ranks 0..n-1.
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    for (std::size_t r = 0; r < n; ++r)
      cdf_[r] = total_ += std::pow(static_cast<double>(r + 1), -kZipfExponent);
  }
  /// The rank at quantile u in [0, 1).
  [[nodiscard]] std::size_t operator()(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u * total_);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
  double total_ = 0.0;
};

Stream tenant_repeat(const Workload& w, std::uint64_t seed) {
  Stream s;
  std::vector<std::string> trees;
  for (std::size_t k = 0; k < kPoolSynth; ++k)
    trees.push_back("\"nodes\":4000,\"seed\":" + std::to_string(tree_seed(seed, k)));
  for (std::size_t k = 0; k < kPoolInline; ++k) {
    Rng rng(tree_seed(seed, kPoolSynth + k));
    trees.push_back(inline_tree(rng));
  }
  Rng draw(derive_seed(seed, kDraw));
  const std::vector<std::size_t> synth_rank = permutation(kPoolSynth, draw);
  const std::vector<std::size_t> inline_rank = permutation(kPoolInline, draw);
  const Zipf synth_zipf(kPoolSynth);
  const Zipf inline_zipf(kPoolInline);

  std::map<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>, std::uint32_t> index;
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, std::uint32_t> answers;
  const double phase = draw.uniform_real();
  std::size_t drawn[2] = {0, 0};  // synth, inline sweeps so far
  for (std::size_t sweep = 0; s.order.size() < w.length; ++sweep) {
    const std::size_t tenant = draw.index(3);
    const bool inline_sweep = sweep % 5 == 4;
    const double u =
        std::fmod(phase + static_cast<double>(drawn[inline_sweep]++) * 0.6180339887498949, 1.0);
    const std::size_t tree = inline_sweep ? kPoolSynth + inline_rank[inline_zipf(u)]
                                          : synth_rank[synth_zipf(u)];
    const std::size_t strategy = draw.index(2);
    for (std::size_t b = 0; b < 6 && s.order.size() < w.length; ++b) {
      const auto [it, fresh] = index.try_emplace({tenant, tree, strategy, b},
                                                 static_cast<std::uint32_t>(s.texts.size()));
      if (fresh) {
        s.answer.push_back(answers.try_emplace({tree, strategy, b}, answers.size()).first->second);
        s.texts.push_back(std::string("{\"tenant\":\"") + kTenants[tenant] + "\"," + trees[tree] +
                          ",\"strategy\":\"" + (strategy == 0 ? "optminmem" : "recexpand") +
                          "\",\"memory_lb\":" + kSweepBounds[b] + "}");
      }
      s.order.push_back(it->second);
    }
  }
  return s;
}

std::uint64_t mix_bytes(std::uint64_t h, const std::string& bytes) {
  for (const char c : bytes) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return ooctree::util::splitmix64(h ^ bytes.size());
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"cold-plan", 6, 24, 16000, {}},
      {"mtx-order", 6, 24, 6000, {}},
      {"replay-paged", 6, 24, 5000, {}},
      {"tenant-repeat", 16, 3000, 160000, {{"a", 2.0}, {"b", 1.0}, {"c", 1.0}}},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

Stream make_stream(const Workload& workload, std::uint64_t seed, const std::string& dir) {
  if (workload.name == "cold-plan") return cold_plan(workload, seed, dir);
  if (workload.name == "mtx-order") return mtx_order(workload, seed, dir);
  if (workload.name == "replay-paged") return replay_paged(workload, seed);
  return tenant_repeat(workload, seed);
}

ooctree::server::ServerConfig server_config(const Workload& workload) {
  ooctree::server::ServerConfig config;
  config.workers = 3;
  config.service.cache_capacity = 512;
  config.weights = workload.weights;
  return config;
}

std::uint64_t stream_digest(const Stream& stream) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& text : stream.texts) h = mix_bytes(h, text);
  for (const std::uint32_t t : stream.order) h = ooctree::util::splitmix64(h ^ t);
  for (const std::string& path : stream.files) {
    h = mix_bytes(h, path);
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read back " + path);
    h = mix_bytes(h, std::string(std::istreambuf_iterator<char>(in), {}));
  }
  return h;
}

}  // namespace bench
