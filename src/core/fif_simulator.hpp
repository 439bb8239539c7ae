// Furthest-in-the-Future eviction simulator (paper, Theorem 1).
//
// Given a schedule sigma and a memory bound M, the I/O function tau that
// minimizes written volume is obtained by evicting, whenever memory is
// short, from the active data whose parent executes latest in sigma
// (Belady's rule transposed to task trees). This simulator computes that
// optimal tau and its total volume; by Theorem 1 the result equals the best
// I/O volume achievable with the given schedule, so
//   min over all topological sigma of simulate_fif(...).io_volume
// is the exact MinIO optimum.
#pragma once

#include "src/core/traversal.hpp"
#include "src/core/tree.hpp"

namespace ooctree::core {

/// Outcome of a FiF simulation.
struct FifResult {
  bool feasible = false;      ///< false iff some wbar(i) alone exceeds M
  Weight io_volume = 0;       ///< total written volume (the MinIO objective)
  IoFunction io;              ///< per-node written amounts tau(i)
  Weight peak_resident = 0;   ///< largest resident memory observed (<= M when feasible)
  std::int64_t evictions = 0; ///< number of (partial) eviction events
};

/// Runs sigma under memory bound M with FiF evictions and returns the
/// optimal tau for that schedule. The schedule must be topological
/// (checked; throws std::invalid_argument otherwise).
///
/// Evictions go to the active datum whose parent runs latest, the larger
/// id on a tie between siblings. Nothing is evicted before memory first
/// binds, so up to that step only the in-core volume is tracked, from the
/// children's sums. From that step on, one pass numbers the child spans of
/// the remaining steps in schedule order: a datum's consumption rank is
/// (parent step, slot in the parent's child span) made dense, and since
/// child spans are sorted by id, the largest active rank is exactly the
/// (latest parent, larger id) victim. The active set is a RankSet
/// (rank_set.hpp), a hierarchical bitset over those ranks, sized once per
/// call. When the schedule is infeasible (`feasible == false`), the other
/// fields hold what was accumulated up to the offending step.
/// tests/oracles/fif_reference.hpp is the plain std::set version this must
/// match field for field.
[[nodiscard]] FifResult simulate_fif(const Tree& tree, const Schedule& schedule, Weight memory);

/// Convenience: the I/O volume of a schedule under FiF, or -1 if infeasible.
[[nodiscard]] Weight fif_io_volume(const Tree& tree, const Schedule& schedule, Weight memory);

}  // namespace ooctree::core
