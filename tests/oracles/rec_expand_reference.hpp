// Test oracles: the pre-incremental expansion paths, which rebuild the
// tree from scratch. rec_expand and ExpandedTree::expand_in_place must
// match them bit for bit (tests/test_expansion_incremental.cpp), and
// bench_recexpand_scaling times the incremental engine against them.
#pragma once

#include "src/core/expansion.hpp"
#include "src/core/rec_expand.hpp"

namespace ooctree::core::oracle {

/// ExpandedTree::expand() through a full Tree::from_parents rebuild, with
/// the same ids (i stays as i1, i2 = n, i3 = n + 1).
[[nodiscard]] ExpandedTree expand_rebuild(const ExpandedTree& expanded, NodeId i, Weight tau);

/// RecExpand with a standalone-subtree OptMinMem rerun and an
/// expand_rebuild per iteration. Quadratic-plus.
[[nodiscard]] RecExpandResult rec_expand_reference(const Tree& tree, Weight memory,
                                                   const RecExpandOptions& options);

}  // namespace ooctree::core::oracle
