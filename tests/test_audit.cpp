// Runtime invariant auditor suite (src/core/check.hpp).
//
// Three layers of proof:
//   1. the explicit audit() sweeps (EvictionIndex, ResultCache,
//      PlanService) pass on healthy state in *every* preset and bump the
//      process-wide audit counter, so the paths demonstrably run;
//   2. under OOCTREE_AUDIT (the dev preset) the engines execute their
//      internal conservation checks — asserted via the counter — and the
//      PR 3 regression fixtures (failed-start I/O, transient reservation)
//      run clean end-to-end with the auditor armed;
//   3. fault injection: each core::fault flag re-introduces one historical
//      accounting-bug class, and the auditor must convict it by throwing
//      core::AuditError — the "would the net have caught the seed bugs?"
//      question answered in the affirmative, mechanically.
// Tests in layers 2-3 GTEST_SKIP outside audit builds: the hooks compile
// away everywhere else.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "src/core/check.hpp"
#include "src/core/eviction.hpp"
#include "src/core/tree.hpp"
#include "src/parallel/parallel_sim.hpp"
#include "src/service/plan_service.hpp"
#include "src/service/result_cache.hpp"
#include "src/util/rng.hpp"
#include "tests/oracles/pager_reference.hpp"
#include "tests/test_support.hpp"

namespace ooctree {
namespace {

using core::EvictionIndex;
using core::EvictionPolicy;
using core::Tree;
using parallel::ParallelConfig;
using parallel::Priority;
using service::CacheKey;
using service::PlanStats;
using service::ResultCache;

// The fixtures below feed only the audit-build tests; without
// OOCTREE_AUDIT they would be unused.
#if OOCTREE_AUDIT_ENABLED
/// The PR 3 failed-start regression tree (see
/// tests/test_parallel_incremental.cpp): task B keeps failing to fit round
/// after round while a side chain backfills, so failed transactional
/// starts are guaranteed.
Tree failed_start_tree() {
  return core::make_tree({{core::kNoNode, 1},
                          {0, 1},
                          {1, 4},
                          {1, 4},
                          {0, 2},
                          {4, 2},
                          {5, 2},
                          {0, 2}});
}

ParallelConfig failed_start_config() {
  ParallelConfig c;
  c.workers = 2;
  c.memory = 9;
  c.priority = Priority::kCriticalPath;
  return c;
}
#endif

TEST(Audit, ExplicitSweepsRunAndPassInEveryPreset) {
  const std::uint64_t before = core::audit_checks_executed();

  EvictionIndex index(EvictionPolicy::kBelady, 8);
  index.insert(1, 10);
  index.insert(3, 5);
  index.insert(1, 7);  // re-key: the stale heap entry must not confuse audit
  index.audit();
  index.erase(3);
  index.audit();

  ResultCache cache(16, 4);
  for (std::uint64_t k = 0; k < 40; ++k) {
    auto value = std::make_shared<PlanStats>();
    cache.put(CacheKey{k, 1}, std::move(value));
    (void)cache.get(CacheKey{k / 2, 1});
    cache.audit();
  }

  EXPECT_GT(core::audit_checks_executed(), before)
      << "audit() calls must execute real checks, not compile away";
}

TEST(Audit, RandomPolicyDenseStructuresAudit) {
  util::Rng rng(11);
  EvictionIndex index(EvictionPolicy::kRandom, 16, &rng);
  for (core::NodeId id = 0; id < 12; ++id) index.insert(id, 0);
  index.audit();
  for (core::NodeId id = 0; id < 12; id += 2) index.erase(id);
  index.audit();
  EXPECT_EQ(index.size(), 6u);
}

TEST(Audit, PlanServiceQuiescentAuditPasses) {
  service::PlanService planner(service::ServiceConfig{.threads = 2});
  service::PlanRequest request;
  request.id = 1;
  request.nodes = 40;
  request.seed = 5;
  request.memory_lb = 1.3;
  const auto first = planner.plan(request);
  request.id = 2;
  const auto second = planner.plan(request);
  ASSERT_TRUE(first.stats->ok) << first.stats->error;
  ASSERT_TRUE(second.stats->ok);
  planner.audit(/*quiescent=*/true);
}

// ---------------------------------------------------------------------------
// Audit-build-only layers: engine-internal checks and fault injection.

TEST(Audit, EngineChecksExecuteUnderAuditBuilds) {
#if OOCTREE_AUDIT_ENABLED
  const std::uint64_t before = core::audit_checks_executed();
  const auto result = parallel::simulate_parallel(failed_start_tree(), failed_start_config());
  ASSERT_TRUE(result.feasible);
  EXPECT_GT(core::audit_checks_executed(), before)
      << "simulate_parallel_paged must run its internal audits";

  // The sequential paged replay: one worker, sequential order, strict scan.
  const std::uint64_t mid = core::audit_checks_executed();
  const auto fx = test::transient_reservation_fixture();
  const auto paged = test::sequential_paged_replay(fx.tree, fx.schedule, fx.feasible_memory);
  ASSERT_TRUE(paged.base.feasible);
  EXPECT_EQ(paged.peak_frames_used, fx.expected_peak_frames);
  EXPECT_GT(core::audit_checks_executed(), mid)
      << "the one-worker paged replay must run its internal audits";
#else
  GTEST_SKIP() << "engine audits compile away without OOCTREE_AUDIT (dev preset has it on)";
#endif
}

// The PR 3 pins, re-run with the auditor armed: the fixed engines must
// sail through every conservation check while reproducing the exact
// pinned accounting.
TEST(Audit, FailedStartPinRunsCleanUnderAudit) {
#if OOCTREE_AUDIT_ENABLED
  const auto r = parallel::simulate_parallel(failed_start_tree(), failed_start_config());
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.failed_starts, 0);
  EXPECT_EQ(r.io_volume, 6);  // the PR 3 pinned value, audited end-to-end
#else
  GTEST_SKIP() << "requires an OOCTREE_AUDIT build (dev preset)";
#endif
}

TEST(Audit, TransientReservationPinRunsCleanUnderAudit) {
#if OOCTREE_AUDIT_ENABLED
  const auto fx = test::transient_reservation_fixture();
  const auto paged = test::sequential_paged_replay(fx.tree, fx.schedule, fx.feasible_memory);
  ASSERT_TRUE(paged.base.feasible);
  EXPECT_EQ(paged.peak_frames_used, fx.expected_peak_frames);
#else
  GTEST_SKIP() << "requires an OOCTREE_AUDIT build (dev preset)";
#endif
}

TEST(Audit, ConvictsReintroducedFailedStartIoCharge) {
#if OOCTREE_AUDIT_ENABLED
  const core::FaultGuard guard;
  core::fault::parallel_engine.store(1);  // failed starts charge I/O again
  EXPECT_THROW(
      (void)parallel::simulate_parallel(failed_start_tree(), failed_start_config()),
      core::AuditError);
#else
  GTEST_SKIP() << "fault hooks compile away without OOCTREE_AUDIT (dev preset)";
#endif
}

TEST(Audit, ConvictsReintroducedReservationLeak) {
#if OOCTREE_AUDIT_ENABLED
  const core::FaultGuard guard;
  core::fault::parallel_engine.store(2);  // completions leak a frame again
  util::Rng rng(3);
  const Tree t = test::small_random_tree(24, 12, rng);
  ParallelConfig c;
  c.workers = 2;
  c.memory = t.min_feasible_memory() * 2;
  EXPECT_THROW((void)parallel::simulate_parallel(t, c), core::AuditError);
#else
  GTEST_SKIP() << "fault hooks compile away without OOCTREE_AUDIT (dev preset)";
#endif
}

TEST(Audit, ConvictsReintroducedUnreservedTransient) {
#if OOCTREE_AUDIT_ENABLED
  const core::FaultGuard guard;
  core::fault::pager.store(1);  // the pager oracle stops reserving head-room again
  const auto fx = test::transient_reservation_fixture();
  parallel::oracle::PagerConfig pc;
  pc.memory = fx.feasible_memory;
  EXPECT_THROW((void)parallel::oracle::run_pager_reference(fx.tree, fx.schedule, pc),
               core::AuditError);
#else
  GTEST_SKIP() << "fault hooks compile away without OOCTREE_AUDIT (dev preset)";
#endif
}

// The PR 10 disk-pipeline bug classes. Each fixture runs the pipelined
// paged engine on a stall-heavy configuration the healthy engine passes
// clean (pinned by tests/test_disk_pipeline.cpp under the dev preset).

#if OOCTREE_AUDIT_ENABLED
// A pipelined configuration under memory pressure: tight frames force
// evictions (write traffic), the window forces prefetch reads.
parallel::PagedParallelConfig pipelined_pressure_config(const Tree& t, int depth, int window) {
  parallel::PagedParallelConfig c;
  c.base.workers = 4;
  c.base.memory = parallel::min_feasible_frames(t, 2) * 2;
  c.base.seed = 3;
  c.base.write_queue_depth = depth;
  c.base.prefetch_window = window;
  c.page_size = 2;
  c.disk = iosim::DiskModel{0.5, 2.0};
  return c;
}
#endif

TEST(Audit, ConvictsEvictionIgnoringWriteBackpressure) {
#if OOCTREE_AUDIT_ENABLED
  const core::FaultGuard guard;
  core::fault::parallel_engine.store(4);  // evictions enqueue past the depth bound again
  util::Rng rng(41);
  const Tree t = test::small_random_tree(48, 14, rng);
  EXPECT_THROW((void)parallel::simulate_parallel_paged(t, pipelined_pressure_config(t, 1, 0)),
               core::AuditError);
#else
  GTEST_SKIP() << "fault hooks compile away without OOCTREE_AUDIT (dev preset)";
#endif
}

TEST(Audit, ConvictsPrefetchOfResidentPages) {
#if OOCTREE_AUDIT_ENABLED
  const core::FaultGuard guard;
  core::fault::parallel_engine.store(8);  // prefetch re-reads resident pages again
  util::Rng rng(41);
  const Tree t = test::small_random_tree(48, 14, rng);
  EXPECT_THROW((void)parallel::simulate_parallel_paged(t, pipelined_pressure_config(t, 4, 8)),
               core::AuditError);
#else
  GTEST_SKIP() << "fault hooks compile away without OOCTREE_AUDIT (dev preset)";
#endif
}

TEST(Audit, ConvictsDiskTransferDoubleBooking) {
#if OOCTREE_AUDIT_ENABLED
  const core::FaultGuard guard;
  core::fault::parallel_engine.store(16);  // transfers beat the serial device timeline again
  util::Rng rng(41);
  const Tree t = test::small_random_tree(48, 14, rng);
  EXPECT_THROW((void)parallel::simulate_parallel_paged(t, pipelined_pressure_config(t, 4, 4)),
               core::AuditError);
#else
  GTEST_SKIP() << "fault hooks compile away without OOCTREE_AUDIT (dev preset)";
#endif
}

TEST(Audit, ConvictsEvictionIndexLiveCountCorruption) {
#if OOCTREE_AUDIT_ENABLED
  const core::FaultGuard guard;
  EvictionIndex index(EvictionPolicy::kLru, 8);
  index.insert(2, 1);
  index.insert(5, 2);
  index.audit();  // healthy so far
  core::fault::eviction_index.store(1);
  index.erase(2);  // drops the live count but leaves the version live
  EXPECT_THROW(index.audit(), core::AuditError);
#else
  GTEST_SKIP() << "fault hooks compile away without OOCTREE_AUDIT (dev preset)";
#endif
}

}  // namespace
}  // namespace ooctree
