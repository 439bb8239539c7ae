// The paper's novel heuristics FULLRECEXPAND and RECEXPAND (Section 5,
// Algorithm 2).
//
// Idea: run OptMinMem; when its traversal of a subtree needs more than M,
// the FiF policy identifies a datum that must be (partially) written out.
// That I/O is *forced into the tree* by expanding the node (Figure 3), so
// subsequent OptMinMem runs are aware of it. Subtrees are processed bottom
// up; at each node the expand-and-retry loop runs until the subtree fits in
// memory (FullRecExpand) or at most `max_expansions_per_node` times
// (RecExpand — the paper's variant exits after 2 iterations).
//
// The final schedule is OptMinMem on the fully expanded tree, mapped back
// to the original nodes; by Theorem 1 its FiF evaluation never exceeds the
// total expanded volume.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "src/core/expansion.hpp"
#include "src/core/fif_simulator.hpp"
#include "src/core/traversal.hpp"
#include "src/core/tree.hpp"

namespace ooctree::core {

/// Tuning knobs for the RecExpand family.
struct RecExpandOptions {
  /// Maximum expand-and-retry iterations of the while loop per node.
  /// Paper: infinity for FullRecExpand, 2 for RecExpand.
  std::size_t max_expansions_per_node = std::numeric_limits<std::size_t>::max();

  /// Safety valve: total expansions across the whole run. FullRecExpand's
  /// loop count is not polynomially bounded (Section 5), so a cap keeps
  /// adversarial inputs from running away; the result stays a valid
  /// traversal because the mapped schedule is re-evaluated with FiF.
  std::size_t global_expansion_cap = std::numeric_limits<std::size_t>::max();
};

/// Result of a RecExpand run.
struct RecExpandResult {
  Schedule schedule;              ///< schedule on the original tree
  FifResult evaluation;           ///< FiF evaluation of `schedule` under M
  Weight expansion_volume = 0;    ///< sum of all expansion amounts
  std::size_t expansions = 0;     ///< number of expansions performed
  Weight final_peak = 0;          ///< OptMinMem peak of the final expanded tree
};

/// Runs the heuristic with the given options.
///
/// Uses the incremental expansion engine: node expansions are applied in
/// place (TreeBuilder), each node's normalized segment sequence is cached
/// between expand-and-retry iterations (IncrementalMinMem) so only the
/// victim's ancestor path is recombined, and the per-iteration FiF runs
/// directly on the expanded subtree without extracting a standalone Tree.
/// Amortized near-linear in (nodes + expansions · subtree size) instead of
/// the reference path's full O(n) rebuild + OptMinMem rerun per expansion.
/// Produces bit-identical schedules, I/O volumes and peaks to the
/// rebuild-per-iteration oracle in tests/oracles/rec_expand_reference.hpp
/// (enforced by test_expansion_incremental.cpp).
///
/// Subtree peaks come from the engine itself: the postorder walk combines
/// each subtree once and reads its optimal peak in O(1), so there is no
/// separate opt_minmem_all_peaks pass. A subtree whose peak fits in memory
/// is skipped; since peaks are monotone along the tree, nothing below it
/// was expanded either, so this is exactly the test against the original
/// tree's peaks.
///
/// The run pays only for the expansions it makes:
///   * The engine plans the original tree; the ExpandedTree copy is made
///     at the first expansion. Expansion only appends ids, so the
///     engine's cached sequences stay valid in the copy. Without an
///     expansion (M at or above the OptMinMem peak) the result is
///     OptMinMem's schedule, returned without a copy or map_schedule.
///     A fused service group answers such bounds from its one shared
///     opt_minmem pass (PlanService::SharedPlanState).
///   * The per-iteration FiF works on the expanded tree's ids and touches
///     only the nodes of the subtree's schedule. Siblings tie-break by
///     their slot in the parent's child span — the reference's postorder
///     rank order — and the victim (latest parent, then first slot) is
///     tracked as evictions happen. As in simulate_fif, the steps before
///     memory first binds track only the in-core volume; from that step
///     on, the active data are kept by consumption rank in a RankSet
///     (rank_set.hpp) reused across iterations.
///   * `evaluation` is the FiF of the returned schedule; run_strategy
///     passes it on instead of simulating again.
[[nodiscard]] RecExpandResult rec_expand(const Tree& tree, Weight memory,
                                         const RecExpandOptions& options);

/// Legacy overload taking precomputed subtree peaks. `orig_peaks` is only
/// checked to have one entry per node (std::invalid_argument otherwise) and
/// is otherwise unread: the 3-arg overload computes the peaks it needs in
/// the same pass that plans. Kept only because the end-to-end benchmark's
/// layer decomposition (bench_e2e/decompose.cpp) still calls it; it goes
/// when that caller does.
[[nodiscard]] RecExpandResult rec_expand(const Tree& tree, Weight memory,
                                         const RecExpandOptions& options,
                                         const std::vector<Weight>& orig_peaks);

/// FULLRECEXPAND: unbounded per-node loop.
[[nodiscard]] inline RecExpandResult full_rec_expand(const Tree& tree, Weight memory) {
  return rec_expand(tree, memory, RecExpandOptions{});
}

/// RECEXPAND: per-node loop capped at 2 iterations (paper, end of Sec. 5).
[[nodiscard]] inline RecExpandResult rec_expand2(const Tree& tree, Weight memory) {
  RecExpandOptions o;
  o.max_expansions_per_node = 2;
  return rec_expand(tree, memory, o);
}

}  // namespace ooctree::core
