// The ready set of the paged replay engine (simulate_parallel_paged).
//
// The ready tasks of a replay, indexed by priority rank (rank 0 starts
// first). A task's rank is fixed for the whole replay and so is its
// work_frames, the quantity its fit test thresholds, so the set is a
// segment tree over ranks: a leaf holds its task's work_frames while the
// task is ready, and each internal node the minimum and the ready count of
// its leaves. Insert, erase, first-fit-from-rank and k-th-ready each cost
// O(log n), which lets a scan in priority order skip every task that does
// not fit in one walk and count what it skipped. Next to the tree a bitset
// of the ready ranks answers contains() in O(1) and next() by a word scan,
// so reading the ready ranks in order costs one find-first-set per rank
// plus the empty words in between, not a tree descent each. The set is
// built in O(n): place() every initially ready rank, then build() the
// internal nodes once.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/check.hpp"
#include "src/core/tree.hpp"

namespace ooctree::parallel {

class ReadySet {
 public:
  /// An empty set over ranks [0, n).
  explicit ReadySet(std::size_t n) : n_(n), bits_((n + 63) / 64, 0) {
    while (leaves_ < n) leaves_ *= 2;
    nodes_.assign(2 * leaves_, Node{});
  }

  void insert(std::size_t rank, core::Weight frames) {
    place(rank, frames);
    update_path(rank);
  }
  void erase(std::size_t rank) {
    nodes_[leaves_ + rank] = Node{};
    bits_[rank / 64] &= ~bit(rank);
    update_path(rank);
  }
  [[nodiscard]] bool contains(std::size_t rank) const { return (bits_[rank / 64] & bit(rank)) != 0; }

  /// Bulk build, first step: marks `rank` ready without updating the
  /// internal nodes. Queries are valid again after build().
  void place(std::size_t rank, core::Weight frames) {
    nodes_[leaves_ + rank] = Node{frames, 1};
    bits_[rank / 64] |= bit(rank);
  }
  /// Bulk build, second step: recomputes every internal node once, O(n).
  void build() {
    for (std::size_t p = leaves_ - 1; p > 0; --p) nodes_[p] = merged(p);
  }

  /// The first ready rank >= `from` whose frames fit in `slack` (n when
  /// none does); `passed` receives the number of ready ranks before it.
  [[nodiscard]] std::size_t first_fit(std::size_t from, core::Weight slack,
                                      std::int64_t& passed) const {
    return walk(from, passed, [slack](const Node& node, std::int64_t) {
      return node.count == 0 || node.min > slack;
    });
  }

  /// The k-th (1-based) ready rank >= `from`, or n when fewer are ready.
  [[nodiscard]] std::size_t kth(std::size_t from, std::int64_t k) const {
    std::int64_t passed = 0;
    return walk(from, passed, [k](const Node& node, std::int64_t before) {
      return before + node.count < k;
    });
  }

  /// The first ready rank >= `from`, or n when none is: a word scan of the
  /// bitset. Equal to kth(from, 1).
  [[nodiscard]] std::size_t next(std::size_t from) const {
    if (from >= n_) return n_;
    std::size_t w = from / 64;
    std::uint64_t word = bits_[w] & (~std::uint64_t{0} << (from % 64));
    while (word == 0) {
      if (++w == bits_.size()) return n_;
      word = bits_[w];
    }
    return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
  }

  /// Recomputes every internal node from its children and checks that the
  /// bitset marks exactly the ready leaves.
  void audit() const {
    for (std::size_t p = 1; p < leaves_; ++p) {
      const Node want = merged(p);
      core::audit_check(nodes_[p].min == want.min && nodes_[p].count == want.count,
                        "simulate_parallel_paged: ready set aggregates out of date");
    }
    for (std::size_t r = 0; r < n_; ++r)
      core::audit_check(contains(r) == (nodes_[leaves_ + r].count > 0),
                        "simulate_parallel_paged: ready bitset out of sync with the tree");
  }

 private:
  struct Node {
    core::Weight min = std::numeric_limits<core::Weight>::max();
    std::int64_t count = 0;
  };

  static std::uint64_t bit(std::size_t rank) { return std::uint64_t{1} << (rank % 64); }

  [[nodiscard]] Node merged(std::size_t p) const {
    return Node{std::min(nodes_[2 * p].min, nodes_[2 * p + 1].min),
                nodes_[2 * p].count + nodes_[2 * p + 1].count};
  }

  void update_path(std::size_t rank) {
    for (std::size_t p = (leaves_ + rank) / 2; p > 0; p /= 2) nodes_[p] = merged(p);
  }

  // Walks right from leaf `from` over maximal subtrees that `skip` rejects
  // whole, adding their ready counts to `passed`, then descends into the
  // first subtree it does not reject down to its leftmost accepted leaf.
  // Returns that leaf's rank, or n when every leaf from `from` on is skipped.
  template <class Skip>
  std::size_t walk(std::size_t from, std::int64_t& passed, Skip skip) const {
    passed = 0;
    if (from >= n_) return n_;
    std::size_t p = leaves_ + from;
    do {
      while (p % 2 == 0) p /= 2;
      if (!skip(nodes_[p], passed)) {
        while (p < leaves_) {
          p *= 2;
          if (skip(nodes_[p], passed)) passed += nodes_[p++].count;
        }
        return p - leaves_;
      }
      passed += nodes_[p++].count;
    } while ((p & (p - 1)) != 0);  // stop once the walk passed the last leaf
    return n_;
  }

  std::size_t n_;
  std::size_t leaves_ = 1;
  std::vector<Node> nodes_;
  std::vector<std::uint64_t> bits_;  ///< bit r set iff rank r is ready
};

}  // namespace ooctree::parallel
