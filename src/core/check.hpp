// Runtime invariant auditor — the assertion layer of the correctness
// tooling (TSan preset + clang-tidy gate + this file, see
// docs/ARCHITECTURE.md "Correctness tooling").
//
// Two tiers share one throwing checker:
//   * explicit audit() methods — EvictionIndex::audit(),
//     ResultCache::audit(), PlanService::audit() — are compiled
//     unconditionally. They are O(state) consistency sweeps a test calls at
//     a point of quiescence, in every preset.
//   * implicit engine audits — the conservation / write-at-most-once /
//     transactional-start checks inside simulate_parallel_paged (and the
//     sequential pager oracle, parallel::oracle::run_pager_reference in
//     tests/oracles/) — go through OOCTREE_AUDIT_CHECK, which
//     compiles to nothing unless the build defines OOCTREE_AUDIT (the dev
//     preset does; release and the benches stay zero-cost).
//
// A failed check throws AuditError, never aborts: the gtest suites assert
// both directions (clean engines never throw; fault-injected engines must).
// Every executed check also bumps a process-wide relaxed counter,
// audit_checks_executed(), so a test can prove the audit paths actually ran
// rather than silently compiling out — the dev-preset acceptance gate.
//
// Fault injection. When OOCTREE_AUDIT is on, the components above expose
// test-only fault flags (ooctree::core::fault) that re-introduce the exact
// accounting-bug classes PR 3 fixed — failed starts charging I/O, the
// transient working space left unreserved, a corrupted eviction live-count.
// tests/test_audit.cpp flips each flag and demands the auditor catches it;
// FaultGuard restores the flags on scope exit so a throwing test never
// leaks a fault into later tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#if defined(OOCTREE_AUDIT) && OOCTREE_AUDIT
#define OOCTREE_AUDIT_ENABLED 1
#else
#define OOCTREE_AUDIT_ENABLED 0
#endif

namespace ooctree::core {

/// Thrown (never aborts) when an invariant audit fails.
class AuditError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace audit_detail {
inline std::atomic<std::uint64_t> checks_executed{0};
}  // namespace audit_detail

/// Process-wide count of audit checks executed so far (explicit audit()
/// calls and, under OOCTREE_AUDIT, the in-engine checks). Monotonic,
/// relaxed; tests diff it around a call to prove the audit paths ran.
[[nodiscard]] inline std::uint64_t audit_checks_executed() {
  return audit_detail::checks_executed.load(std::memory_order_relaxed);
}

/// Records one executed check and throws AuditError when it does not hold.
inline void audit_check(bool ok, const char* what) {
  audit_detail::checks_executed.fetch_add(1, std::memory_order_relaxed);
  if (!ok) throw AuditError(std::string("audit failed: ") + what);
}

#if OOCTREE_AUDIT_ENABLED
/// Test-only fault flags (audit builds only): each non-zero value
/// re-introduces a historical accounting bug so tests can prove the
/// auditor detects that bug class. Atomics because the stress suites run
/// services concurrently in the same process; fault tests themselves are
/// single-threaded and reset the flags via FaultGuard.
namespace fault {
/// 1 = EvictionIndex::erase() corrupts the live count (decrements it but
/// leaves the entry's version live), the bookkeeping drift audit() exists
/// to catch.
inline std::atomic<int> eviction_index{0};
/// 1 = the sequential pager oracle (parallel::oracle::run_pager_reference,
/// tests/oracles/pager_reference.cpp) does not reserve the transient
/// working space of a step (the PR 3 "head-room not allocated" seed bug).
inline std::atomic<int> pager{0};
/// Bitmask for simulate_parallel_paged: 1 = a failed transactional start
/// still charges io_volume (the PR 3 "failed starts charge I/O" seed bug);
/// 2 = task completion leaks one frame of its reservation. Disk-pipeline
/// bug classes (PR 10): 4 = eviction ignores write-queue backpressure, so
/// pending writes overflow write_queue_depth slots; 8 = prefetch sizes its
/// read from the datum's full page count, re-fetching pages that are
/// already resident; 16 = a disk transfer completes earlier than the
/// serial device timeline allows (double-booked bandwidth).
inline std::atomic<int> parallel_engine{0};
}  // namespace fault

/// True when the simulate_parallel_paged fault `bit` is set.
[[nodiscard]] inline bool parallel_engine_fault(int bit) {
  return (fault::parallel_engine.load(std::memory_order_relaxed) & bit) != 0;
}

/// RAII reset of every fault flag — fault tests hold one so an
/// EXPECT_THROW that fires (or fails to) cannot poison later tests.
class FaultGuard {
 public:
  FaultGuard() = default;
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
  ~FaultGuard() {
    fault::eviction_index.store(0);
    fault::pager.store(0);
    fault::parallel_engine.store(0);
  }
};
#else
/// Outside audit builds no fault can be set, so every injection site
/// compiles away.
[[nodiscard]] constexpr bool parallel_engine_fault(int /*bit*/) { return false; }
#endif  // OOCTREE_AUDIT_ENABLED

}  // namespace ooctree::core

/// In-engine audit check: active only in OOCTREE_AUDIT builds; compiles to
/// nothing (condition unevaluated) otherwise.
#if OOCTREE_AUDIT_ENABLED
#define OOCTREE_AUDIT_CHECK(cond, what) ::ooctree::core::audit_check((cond), (what))
#else
#define OOCTREE_AUDIT_CHECK(cond, what) ((void)0)
#endif
