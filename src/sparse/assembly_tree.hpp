// Assembly (task) trees for multifrontal factorization.
//
// In the multifrontal method every elimination-tree node assembles a dense
// frontal matrix from its children's *contribution blocks*, factors one (or
// a supernode's worth of) pivot column(s) and passes its own contribution
// block up. The out-of-core scheduling model of the paper treats the
// contribution block as the node's output datum: w_j = (|L(:,j)| - 1)^2 for
// a single column, or (colcount(top) - 1)^2 for a supernode. This module
// turns a symmetric pattern into that task tree, optionally amalgamating
// fundamental supernodes (single-child chains with colcount decreasing by
// exactly one), which is what real solvers schedule.
#pragma once

#include "src/core/tree.hpp"
#include "src/sparse/csc.hpp"
#include "src/sparse/etree.hpp"

namespace ooctree::sparse {

/// Options for assembly-tree construction.
struct AssemblyOptions {
  bool amalgamate = true;      ///< merge fundamental supernodes
  core::Weight min_weight = 1; ///< floor applied to every node weight
};

/// Builds the task tree of the (possibly permuted) pattern. A forest (from
/// a reducible matrix) is joined under a virtual root of weight
/// `min_weight`. Node weights are contribution-block sizes as described
/// above.
[[nodiscard]] core::Tree assembly_tree(const SymPattern& pattern,
                                       const AssemblyOptions& options = {});

/// Convenience: permute the pattern, then build its assembly tree.
[[nodiscard]] core::Tree assembly_tree_ordered(const SymPattern& pattern,
                                               const std::vector<Index>& perm,
                                               const AssemblyOptions& options = {});

/// The one rule that turns a `.mtx` pattern into a task tree: minimum
/// degree ordering, then the amalgamated assembly tree with default
/// options. The service, `tree_pack` and `ooc_planner` all call it, so a
/// packed `.otree` and a served `.mtx` of one matrix are the same tree.
[[nodiscard]] core::Tree mtx_assembly_tree(const SymPattern& pattern);

}  // namespace ooctree::sparse
