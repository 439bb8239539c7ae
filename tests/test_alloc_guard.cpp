// Allocation guard for the cold planning path.
//
// The planners reserve their working storage once per call and reuse it:
// OptMinMem keeps every hill-valley segment in one pool, RecExpand reads
// subtree peaks from its own incremental engine, the FiF simulator reserves
// its heap once, PostOrderMinIO sorts one flat child array, and SYNTH
// builds its Tree once. This suite replaces the
// global operator new with a counting one and asserts that each kernel
// allocates a bounded number of times on a 16000-node SYNTH tree — a
// per-node allocation anywhere on the path costs thousands and fails here.
// The cold .mtx path (reader, minimum degree, permutation, assembly tree)
// is held to the same bound, and so is one paged replay: the engine sizes
// its state once per replay and reuses its per-round scratch, so its count
// does not grow with the tree or the number of scheduling rounds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/fif_simulator.hpp"
#include "src/core/minio_postorder.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/rec_expand.hpp"
#include "src/parallel/parallel_sim.hpp"
#include "src/service/request.hpp"
#include "src/sparse/generators.hpp"
#include "src/sparse/matrix_market.hpp"
#include "src/treegen/random_binary.hpp"
#include "src/util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// The library's operator new[] and nothrow forms forward to this one. GCC
// cannot see that the replaced new and delete pair malloc with free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ooctree {
namespace {

using core::MemoryModel;
using core::Tree;
using core::Weight;

constexpr std::size_t kNodes = 16000;
constexpr std::size_t kMaxAllocations = 256;

/// Heap allocations made while running `f`.
template <typename F>
std::size_t allocations_of(F&& f) {
  const std::size_t before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

Tree synth_tree(MemoryModel model) {
  util::Rng rng(17);
  return treegen::synth_instance(kNodes, 1, 100, rng).with_memory_model(model);
}

class AllocationGuard : public ::testing::TestWithParam<MemoryModel> {
 protected:
  void SetUp() override { tree_ = synth_tree(GetParam()); }

  /// The bounds the cold-plan workload sweeps, as multiples of LB.
  std::vector<Weight> bounds() const {
    const Weight lb = tree_->min_feasible_memory();
    return {lb + lb / 20, lb + lb / 10, lb + lb / 2, 2 * lb};
  }

  std::optional<Tree> tree_;
};

TEST(AllocationGuardCounter, CountsHeapAllocations) {
  // The counter must see allocations, or every bound below holds vacuously.
  const std::size_t n = allocations_of([] {
    std::vector<int> v(8);
    ASSERT_EQ(v.size(), 8u);
  });
  EXPECT_EQ(n, 1u);
}

TEST_P(AllocationGuard, OptMinMem) {
  Weight peak = 0;
  const std::size_t n = allocations_of([&] { peak = core::opt_minmem(*tree_).peak; });
  EXPECT_GT(peak, 0);
  EXPECT_LT(n, kMaxAllocations);
}

TEST_P(AllocationGuard, OptMinMemAllPeaks) {
  std::size_t size = 0;
  const std::size_t n =
      allocations_of([&] { size = core::opt_minmem_all_peaks(*tree_).size(); });
  EXPECT_EQ(size, kNodes);
  EXPECT_LT(n, kMaxAllocations);
}

TEST_P(AllocationGuard, RecExpand2) {
  for (const Weight memory : bounds()) {
    std::size_t scheduled = 0;
    const std::size_t n =
        allocations_of([&] { scheduled = core::rec_expand2(*tree_, memory).schedule.size(); });
    EXPECT_EQ(scheduled, kNodes);
    EXPECT_LT(n, kMaxAllocations) << "M = " << memory;
  }
}

TEST_P(AllocationGuard, SimulateFif) {
  const core::Schedule schedule = core::opt_minmem(*tree_).schedule;
  for (const Weight memory : bounds()) {
    bool feasible = false;
    const std::size_t n =
        allocations_of([&] { feasible = core::simulate_fif(*tree_, schedule, memory).feasible; });
    EXPECT_TRUE(feasible);
    EXPECT_LT(n, kMaxAllocations) << "M = " << memory;
  }
}

TEST_P(AllocationGuard, PostOrderMinIo) {
  for (const Weight memory : bounds()) {
    std::size_t scheduled = 0;
    const std::size_t n = allocations_of(
        [&] { scheduled = core::postorder_minio(*tree_, memory).schedule.size(); });
    EXPECT_EQ(scheduled, kNodes);
    EXPECT_LT(n, kMaxAllocations) << "M = " << memory;
  }
}

TEST_P(AllocationGuard, SynthInstance) {
  std::size_t size = 0;
  const std::size_t n = allocations_of([&] {
    util::Rng rng(17);
    size = treegen::synth_instance(kNodes, 1, 100, rng, GetParam()).size();
  });
  EXPECT_EQ(size, kNodes);
  EXPECT_LT(n, kMaxAllocations);
}

// The cold .mtx path of a path-source request: parse the bytes, order by
// minimum degree, permute, build the assembly tree. Each stage reserves its
// storage once, so the count does not grow with the pattern.
TEST(AllocationGuardMatrixMarket, TreeFromBytes) {
  util::Rng rng(23);
  const sparse::SymPattern patterns[] = {sparse::grid2d(56, 56),
                                         sparse::random_symmetric(4000, 4.0, rng)};
  for (const sparse::SymPattern& pattern : patterns) {
    std::ostringstream out;
    sparse::write_matrix_market(out, pattern);
    std::string bytes = out.str();
    std::size_t size = 0;
    const std::size_t n = allocations_of([&] {
      size = service::tree_from_bytes(service::TreeSource::kMatrixMarket, std::move(bytes),
                                      MemoryModel::kSumInOut)
                 .size();
    });
    EXPECT_GT(size, 0u);
    EXPECT_LT(n, kMaxAllocations) << "n = " << pattern.size();
  }
}

// One replay in the replay-paged shape, with the prefetch prediction on:
// every scheduling round replays the running set, which must reuse its
// buffers rather than copy them. The write queue reuses its buffer too, so
// turning it on adds a few allocations, not one per batch of evictions.
TEST(AllocationGuardPagedReplay, SimulateParallelPaged) {
  for (const std::size_t nodes : {std::size_t{3000}, std::size_t{10000}}) {
    util::Rng rng(29);
    const Tree tree = treegen::synth_instance(nodes, 1, 100, rng);
    const core::Schedule reference = core::opt_minmem(tree).schedule;
    for (const bool residency : {false, true}) {
      std::size_t queue_off = 0;
      for (const int queue : {0, 8}) {
        parallel::PagedParallelConfig config;
        config.base.workers = 4;
        config.base.memory = tree.min_feasible_memory() * 3 / 2;
        config.base.priority = parallel::Priority::kSequentialOrder;
        config.base.backfill_depth = 8;
        config.base.prefetch_window = 8;
        config.base.residency_aware = residency;
        config.base.write_queue_depth = queue;
        config.page_size = 32;
        config.disk = iosim::DiskModel{0.5, 64.0};
        bool feasible = false;
        const std::size_t n = allocations_of([&] {
          feasible = parallel::simulate_parallel_paged(tree, config, reference).base.feasible;
        });
        EXPECT_TRUE(feasible);
        EXPECT_LT(n, kMaxAllocations) << "n = " << nodes << ", residency " << residency
                                      << ", write_queue_depth " << queue;
        if (queue == 0) queue_off = n;
        EXPECT_LE(n, queue_off + 8) << "n = " << nodes << ", residency " << residency
                                    << ": the write queue allocates per eviction";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothModels, AllocationGuard,
                         ::testing::Values(MemoryModel::kMaxInOut, MemoryModel::kSumInOut),
                         [](const auto& info) {
                           return info.param == MemoryModel::kMaxInOut ? std::string("MaxInOut")
                                                                       : std::string("SumInOut");
                         });

}  // namespace
}  // namespace ooctree
