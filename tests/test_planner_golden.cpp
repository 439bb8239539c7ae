// Golden digests of the cold planning path: OptMinMem, the all-peaks pass,
// RecExpand (both variants), PostOrderMinIO and the SYNTH generators, over
// a fixed grid of shapes, sizes, seeds, memory bounds and memory models.
//
// Every digest below was recorded from an implementation that predates the
// allocation-free kernels (per-node segment vectors, a separate peaks pass
// in RecExpand, stable_sort postorders, a two-build SYNTH). A kernel
// rewrite must keep each one bit-identical: any change to a schedule,
// peak, segment, I/O figure or generated tree shows up here.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/minio_postorder.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/rec_expand.hpp"
#include "src/service/request.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/treegen/shapes.hpp"
#include "src/treegen/weights.hpp"
#include "src/util/rng.hpp"

namespace ooctree {
namespace {

using core::MemoryModel;
using core::NodeId;
using core::Tree;
using core::Weight;

constexpr std::array<std::size_t, 5> kSizes = {1, 2, 7, 500, 4000};
constexpr std::array<std::uint64_t, 3> kSeeds = {1, 2, 3};

/// Chained splitmix64 digest.
class Digest {
 public:
  void add(std::uint64_t v) { h_ = util::splitmix64(h_ ^ v); }
  void add_i64(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(values.size());
    for (const T v : values) add_i64(static_cast<std::int64_t>(v));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x676f6c64656e3031ULL;
};

enum class Shape { kSynth, kSynthEqual, kCaterpillar, kCaterpillarEqual, kSpider,
                   kRecursive, kRecursiveEqual };

/// Roughly n nodes of the given shape. The "Equal" variants give every node
/// weight 1, so many siblings tie on every sort key and the tie-breaks are
/// pinned too.
Tree make_shape(Shape shape, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  switch (shape) {
    case Shape::kSynth:
      return treegen::synth_instance(n, 1, 100, rng);
    case Shape::kSynthEqual:
      return treegen::with_constant_weights(treegen::uniform_binary_tree(n, rng), 1);
    case Shape::kCaterpillar:
      return treegen::with_uniform_weights(treegen::caterpillar_tree((n + 3) / 4, 3, 1), 1, 100,
                                           rng);
    case Shape::kCaterpillarEqual:
      return treegen::caterpillar_tree((n + 3) / 4, 3, 1);
    case Shape::kSpider: {
      const std::size_t legs = n < 8 ? 1 + n / 3 : 12;
      const std::size_t leg_len = n > legs ? (n - 1) / legs : 1;
      return treegen::with_uniform_weights(treegen::spider_tree(legs, leg_len, 1), 1, 100, rng);
    }
    case Shape::kRecursive:
      return treegen::with_uniform_weights(treegen::random_recursive_tree(n, rng), 1, 100, rng);
    case Shape::kRecursiveEqual:
      return treegen::random_recursive_tree(n, rng);
  }
  return treegen::random_recursive_tree(1, rng);
}

void digest_planners(const Tree& tree, Digest& d) {
  const core::OptMinMemResult opt = core::opt_minmem(tree);
  d.add_all(opt.schedule);
  d.add_i64(opt.peak);
  d.add(opt.segments.size());
  for (const auto& [hill, valley] : opt.segments) {
    d.add_i64(hill);
    d.add_i64(valley);
  }
  d.add_all(core::opt_minmem_all_peaks(tree));
  // A proper subtree, so the non-root entry point is pinned as well.
  const auto kids = tree.children(tree.root());
  if (!kids.empty()) {
    const NodeId sub = kids.back();
    const core::OptMinMemResult sub_opt = core::opt_minmem(tree, sub);
    d.add_all(sub_opt.schedule);
    d.add_i64(sub_opt.peak);
    d.add_i64(core::opt_minmem_peak(tree, sub));
  }

  const Weight lb = tree.min_feasible_memory();
  for (const Weight memory : {lb + lb / 20, lb + lb / 2}) {
    d.add_i64(memory);
    for (const core::RecExpandResult& r :
         {core::rec_expand2(tree, memory), core::full_rec_expand(tree, memory)}) {
      d.add_all(r.schedule);
      d.add_i64(r.evaluation.io_volume);
      d.add(r.expansions);
      d.add_i64(r.expansion_volume);
      d.add_i64(r.final_peak);
    }
    const core::PostOrderMinIoResult po = core::postorder_minio(tree, memory);
    d.add_all(po.schedule);
    d.add_i64(po.predicted_io);
    d.add_all(po.used);
    d.add_all(po.storage);
    d.add_all(po.io);
  }
}

/// Digest of the planners on shape(n, seed) for every seed and both memory
/// models.
std::uint64_t planner_digest(Shape shape, std::size_t n) {
  Digest d;
  for (const std::uint64_t seed : kSeeds) {
    const Tree tree = make_shape(shape, n, seed);
    for (const MemoryModel model : {MemoryModel::kMaxInOut, MemoryModel::kSumInOut}) {
      digest_planners(tree.with_memory_model(model), d);
    }
  }
  return d.value();
}

void expect_golden(Shape shape, const std::array<std::uint64_t, kSizes.size()>& golden) {
  for (std::size_t k = 0; k < kSizes.size(); ++k) {
    EXPECT_EQ(planner_digest(shape, kSizes[k]), golden[k]) << "n = " << kSizes[k];
  }
}

TEST(PlannerGolden, Synth) {
  expect_golden(Shape::kSynth, {14205805487704508216ULL, 14308235135210776624ULL,
                                4507140418398500149ULL, 8193352928679354905ULL,
                                13318353657419595446ULL});
}

TEST(PlannerGolden, SynthEqualWeights) {
  expect_golden(Shape::kSynthEqual, {2098505460230726001ULL, 9403740851045169181ULL,
                                     16765704848526718006ULL, 10304056862148074318ULL,
                                     4285703308878622915ULL});
}

TEST(PlannerGolden, Caterpillar) {
  expect_golden(Shape::kCaterpillar, {17629329456998547734ULL, 17629329456998547734ULL,
                                      7836612855908430764ULL, 6979096826131985721ULL,
                                      4000492216045125164ULL});
}

TEST(PlannerGolden, CaterpillarEqualWeights) {
  expect_golden(Shape::kCaterpillarEqual, {845015431739180631ULL, 845015431739180631ULL,
                                           6098909864345263009ULL, 4496914372817218696ULL,
                                           4977617653643117502ULL});
}

TEST(PlannerGolden, Spider) {
  expect_golden(Shape::kSpider, {1536827705783143062ULL, 1536827705783143062ULL,
                                 14622641870676720713ULL, 271468235603466041ULL,
                                 4034187445897142110ULL});
}

TEST(PlannerGolden, RandomRecursive) {
  expect_golden(Shape::kRecursive, {7009031835292285080ULL, 464225908530991693ULL,
                                    8804727936763604492ULL, 10948807399781955374ULL,
                                    16220605054987464829ULL});
}

TEST(PlannerGolden, RandomRecursiveEqualWeights) {
  expect_golden(Shape::kRecursiveEqual, {2098505460230726001ULL, 9403740851045169181ULL,
                                         12786800343642381109ULL, 12484377333298507101ULL,
                                         6607945921200460498ULL});
}

/// canonical_hash of every generator output on the grid, plus the trees
/// the service materializes for SYNTH requests under both memory models.
TEST(PlannerGolden, Generators) {
  Digest d;
  for (const std::size_t n : kSizes) {
    for (const std::uint64_t seed : kSeeds) {
      util::Rng synth_rng(seed);
      const Tree synth = treegen::synth_instance(n, 1, 100, synth_rng);
      d.add(synth.canonical_hash());
      util::Rng uniform_rng(seed);
      d.add(treegen::uniform_binary_tree(n, uniform_rng).canonical_hash());
      util::Rng remy_rng(seed);
      d.add(treegen::remy_binary_tree(n, remy_rng).canonical_hash());
      // The rng must be left in the same state, so a second draw matches.
      d.add(synth_rng.index(1u << 30));

      service::PlanRequest request;
      request.source = service::TreeSource::kSynth;
      request.nodes = n;
      request.w_lo = 3;
      request.w_hi = 40;
      for (const MemoryModel model : {MemoryModel::kMaxInOut, MemoryModel::kSumInOut}) {
        request.model = model;
        const Tree served = service::materialize_tree(request, seed);
        util::Rng rng(seed);
        const Tree rebuilt = treegen::synth_instance(n, 3, 40, rng).with_memory_model(model);
        EXPECT_EQ(served.canonical_hash(), rebuilt.canonical_hash()) << "n = " << n;
        EXPECT_EQ(served.memory_model(), model);
        d.add(served.canonical_hash());
      }
    }
  }
  EXPECT_EQ(d.value(), 17982086955131202802ULL);
}

}  // namespace
}  // namespace ooctree
