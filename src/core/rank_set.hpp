// Active set of the Furthest-in-the-Future simulators, kept over dense
// consumption ranks.
//
// FiF evicts the active datum whose parent runs latest, and among siblings
// the one with the larger slot in the parent's child span (children are
// stored by increasing id, so that is the larger id). Numbering the child
// spans of the scheduled nodes one after another, in schedule order, turns
// this key into a dense rank in [0, n):
//
//   rank(c) = (children of all nodes scheduled before c's parent) + slot(c)
//
// so the victim is the largest active rank. RankSet keeps the active ranks
// in a hierarchical bitset: level 0 holds one bit per rank, and each level
// above one bit per nonzero word of the level below, up to a single word.
// insert, erase and max each touch at most one word per level, O(log64 n).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ooctree::core {

class RankSet {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Empties the set and sizes it for ranks in [0, n). The storage is
  /// reused, and grows geometrically, so a caller that keeps the object
  /// across calls allocates only when n outgrows what it held.
  void reset(std::size_t n) {
    std::size_t total = 0;
    std::size_t count = std::max<std::size_t>(n, 1);
    levels_ = 0;
    do {
      count = (count + 63) / 64;
      offset_[levels_++] = total;
      total += count;
    } while (count > 1);
    if (words_.capacity() < total) words_.reserve(std::max(total, 2 * words_.capacity()));
    words_.assign(total, 0);
  }

  void insert(std::size_t r) {
    for (std::size_t l = 0; l < levels_; ++l, r >>= 6) {
      std::uint64_t& w = words_[offset_[l] + (r >> 6)];
      const bool was_empty = w == 0;
      w |= bit(r);
      if (!was_empty) return;
    }
  }

  /// Erasing a rank that is not in the set is a no-op.
  void erase(std::size_t r) {
    for (std::size_t l = 0; l < levels_; ++l, r >>= 6) {
      std::uint64_t& w = words_[offset_[l] + (r >> 6)];
      w &= ~bit(r);
      if (w != 0) return;
    }
  }

  /// The largest rank in the set, or npos when it is empty.
  [[nodiscard]] std::size_t max() const {
    std::size_t r = 0;
    for (std::size_t l = levels_; l-- > 0;) {
      const std::uint64_t w = words_[offset_[l] + r];
      if (w == 0) return npos;  // only the single top word can be empty
      r = r << 6 | static_cast<std::size_t>(63 - std::countl_zero(w));
    }
    return r;
  }

 private:
  static constexpr std::size_t kMaxLevels = 6;  // 64^6 = 2^36 ranks: any NodeId range
  static std::uint64_t bit(std::size_t r) { return std::uint64_t{1} << (r & 63); }

  std::vector<std::uint64_t> words_;            // every level, level 0 first
  std::array<std::size_t, kMaxLevels> offset_{};  // first word of each level
  std::size_t levels_ = 0;
};

}  // namespace ooctree::core
