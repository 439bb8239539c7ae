// Uniform random binary trees — the SYNTH dataset substrate.
//
// The paper draws 330 binary trees of 3000 nodes "uniformly at random among
// all binary trees" using (half-)Catalan counting in the style surveyed by
// Mäkinen [15], with node weights uniform in [1, 100]. Two generators are
// provided:
//   * remy_binary_tree: Rémy's bijective algorithm — exact uniformity over
//     full binary trees with n internal nodes in O(n), the workhorse;
//   * unrank_binary_tree: Catalan unranking (see catalan.hpp) — exact
//     uniformity over binary trees with n nodes, usable up to the sizes
//     where Catalan numbers fit in 128-bit arithmetic and handy for
//     exhaustive small-size sweeps in tests.
#pragma once

#include "src/core/tree.hpp"
#include "src/util/rng.hpp"

namespace ooctree::treegen {

/// A uniform random *full* binary tree with `internal` internal nodes (and
/// internal+1 leaves), by Rémy's algorithm. Node weights are all 1; callers
/// assign weights afterwards (see weights.hpp).
[[nodiscard]] core::Tree remy_binary_tree(std::size_t internal, util::Rng& rng);

/// A uniform random binary tree (each node has 0, 1 or 2 children) with
/// exactly `n` nodes, via Catalan-ranking over left/right subtree splits.
/// Exact uniformity; O(n^2) time, intended for n up to a few thousand.
[[nodiscard]] core::Tree uniform_binary_tree(std::size_t n, util::Rng& rng);

/// The paper's SYNTH instance: a uniform binary tree of `n` nodes with
/// weights drawn uniformly from [w_lo, w_hi], under the given memory model.
/// Equal to with_uniform_weights(uniform_binary_tree(n, rng), w_lo, w_hi,
/// rng).with_memory_model(model) — same draws, same tree — but builds the
/// Tree once, straight from Rémy's arrays.
[[nodiscard]] core::Tree synth_instance(std::size_t n, core::Weight w_lo, core::Weight w_hi,
                                        util::Rng& rng,
                                        core::MemoryModel model = core::MemoryModel::kMaxInOut);

}  // namespace ooctree::treegen
