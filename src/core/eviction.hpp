// Shared eviction-policy machinery for the out-of-core simulators.
//
// The parallel simulator (src/parallel/parallel_sim.cpp) and the test
// oracles that replay the same executions (tests/oracles/: the sequential
// pager and the reference parallel engines) repeatedly answer the same
// question: "memory is short — which active datum loses units next?".
// This module centralizes the answer. EvictionPolicy names the replacement
// rules (Belady/FiF — the paper's Theorem 1 optimum — plus the classic
// LRU/Random/LargestFirst baselines the ablations compare against),
// and EvictionIndex keeps the evictable set *indexed* so a victim is found
// in O(log n) (O(1) for Random) instead of the O(n) full-state scan the
// seed simulators performed per eviction.
//
// The index is policy-agnostic at the container level: callers insert each
// datum with an explicit 64-bit key (consumer step for Belady, a logical
// clock for LRU, the resident size for LargestFirst) and the policy
// only decides which end of the key order is evicted first. Ties are broken
// toward the smaller node id, so victim sequences are deterministic and the
// scan-based reference engines can reproduce them bit-for-bit.
//
// Units and invariants. The index holds node ids only — whether an entry's
// "size" means memory units (simulate_parallel at page_size 1) or pages
// (simulate_parallel_paged, the pager oracle) is the caller's convention; the key
// passed to insert() must be in the caller's own unit too (LargestFirst
// re-keys with resident *pages* in the paged engines). The index never
// removes a victim by itself: pick() is read-only, and the caller either
// erases (full eviction) or re-keys (partial eviction), so the caller's
// residency accounting is the single source of truth. Complexity:
// insert/erase/pick are O(log n) amortized via lazy deletion (O(1) for
// kRandom's dense set); a simulation doing E evictions over n nodes pays
// O((n + E) log n) total in the index.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/tree.hpp"
#include "src/util/rng.hpp"

namespace ooctree::core {

/// Replacement policies for choosing which active datum loses units.
enum class EvictionPolicy : std::uint8_t {
  kBelady,        ///< evict the datum consumed furthest in the future (FiF)
  /// Least recently touched datum. The simulators touch a datum only when
  /// it is produced or prefetched, so oldest-first (FIFO) is the same rule;
  /// "fifo" parses to this value.
  kLru,
  kRandom,        ///< uniform among evictable data
  kLargestFirst,  ///< datum with the most resident units
};

[[nodiscard]] std::string eviction_policy_name(EvictionPolicy p);

/// Inverse of eviction_policy_name, case-insensitive, also accepting the
/// short CLI spellings (belady | fif | lru | random | largest); "fifo" is an
/// alias of lru.
/// Throws std::invalid_argument on unknown names.
[[nodiscard]] EvictionPolicy eviction_policy_from_name(const std::string& name);

/// Indexed evictable set: tracks data by policy key and yields the
/// policy-best victim without scanning. Heap-backed with lazy deletion;
/// erase/re-key are O(log n) amortized. kRandom keeps a dense array
/// instead (O(1) insert/erase/pick) and draws from the Rng passed at
/// construction — each pick() consumes one draw.
class EvictionIndex {
 public:
  /// `capacity` is the node-id universe (ids in [0, capacity)); `rng` is
  /// required for kRandom and ignored otherwise.
  EvictionIndex(EvictionPolicy policy, std::size_t capacity, util::Rng* rng = nullptr);

  /// Adds `id` with the given policy key, or re-keys it when present
  /// (LargestFirst uses re-keying after partial evictions).
  void insert(NodeId id, std::int64_t key);

  /// Removes `id`; no-op when absent.
  void erase(NodeId id);

  [[nodiscard]] bool contains(NodeId id) const;
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// The current victim, or kNoNode when the set is empty. The entry stays
  /// in the index: the caller erases it (full eviction) or re-keys it
  /// (partial eviction under kLargestFirst). Victim order: best policy key
  /// first — largest for kBelady/kLargestFirst, smallest for kLru —
  /// with ties to the smaller id; kRandom draws uniformly per call.
  [[nodiscard]] NodeId pick();

  /// Full consistency sweep, throwing core::AuditError on drift: the live
  /// count equals the number of ids with a live version, every live id has
  /// exactly one current heap entry (or dense slot under kRandom), and the
  /// dense position map inverts the dense array. O(capacity + heap size);
  /// compiled in every preset, called by the audit-enabled engines and
  /// directly by tests (see src/core/check.hpp).
  void audit() const;

 private:
  struct Entry {
    std::int64_t key = 0;  ///< normalized: larger always means evict sooner
    NodeId id = kNoNode;
    std::uint32_t version = 0;
    bool operator<(const Entry& o) const {
      return key != o.key ? key < o.key : id > o.id;
    }
  };

  [[nodiscard]] std::int64_t normalize(std::int64_t key) const;

  EvictionPolicy policy_;
  util::Rng* rng_ = nullptr;
  std::size_t live_ = 0;
  std::uint32_t stamp_ = 0;
  std::vector<Entry> heap_;               // lazy-deletion max-heap (non-random)
  std::vector<std::uint32_t> version_;    // current version per id (0 = absent)
  std::vector<NodeId> dense_;             // kRandom: evictable ids
  std::vector<std::uint32_t> dense_pos_;  // kRandom: position of id in dense_
};

}  // namespace ooctree::core
