#include "src/core/minmem_optimal.hpp"

#include <algorithm>

namespace ooctree::core {

namespace {

using Segment = IncrementalMinMem::Segment;

std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }

/// Appends `s` to the sequence occupying pool[start, end), restoring the
/// normalization invariant (hills strictly decreasing, valleys strictly
/// increasing) by merging backwards, never below `start`. Merging two
/// adjacent segments keeps the max hill and the *later* valley — cutting at
/// a valley that is not a running suffix minimum, or before a hill that is
/// not a running suffix maximum, never helps the interleaving (Liu's
/// normalization). Chunk chains concatenate with a single next[] write per
/// absorbed segment.
void push_normalized(std::vector<NodeId>& next, std::vector<Segment>& pool, std::size_t start,
                     Segment s) {
  while (pool.size() > start && (pool.back().hill <= s.hill || pool.back().valley >= s.valley)) {
    const Segment& back = pool.back();
    s.hill = std::max(s.hill, back.hill);
    next[idx(back.tail)] = s.head;
    s.head = back.head;
    pool.pop_back();
  }
  pool.push_back(s);
}

}  // namespace

void IncrementalMinMem::reserve(std::size_t n) {
  if (slice_.size() >= n) return;
  slice_.resize(n);
  next_.resize(n, kNoNode);
}

void IncrementalMinMem::compact() {
  spare_.clear();
  for (Slice& s : slice_) {
    if (s.len == 0) continue;
    const auto first = pool_.begin() + static_cast<std::ptrdiff_t>(s.offset);
    s.offset = spare_.size();
    spare_.insert(spare_.end(), first, first + static_cast<std::ptrdiff_t>(s.len));
  }
  pool_.swap(spare_);
  garbage_ = 0;
}

void IncrementalMinMem::combine(const Tree& tree, NodeId u, bool release_children) {
  reserve(tree.size());
  // u's previous sequence, if any, is superseded.
  garbage_ += slice_[idx(u)].len;
  slice_[idx(u)].len = 0;
  if (garbage_ > pool_.size() - garbage_ + slice_.size()) compact();

  const auto kids = tree.children(u);
  // Release mode reuses the children's pool space when their slices are
  // the pool's tail, in child order — always the case in a postorder.
  const std::size_t block = kids.empty() ? pool_.size() : slice_[idx(kids[0])].offset;
  std::size_t cursor = block;
  bool stacked = release_children;
  for (const NodeId c : kids) {
    stacked = stacked && slice_[idx(c)].offset == cursor;
    cursor += slice_[idx(c)].len;
  }
  stacked = stacked && cursor == pool_.size();

  std::size_t start = pool_.size();
  if (kids.size() == 1) {
    // Single child: extend its sequence in place (stacked) or copy it —
    // keeps chains linear-time either way.
    const Slice child = slice_[idx(kids[0])];
    if (stacked) {
      start = child.offset;
    } else {
      for (std::size_t k = 0; k < child.len; ++k) {
        const Segment s = pool_[child.offset + k];  // by value: push_back may reallocate
        pool_.push_back(s);
      }
    }
  } else if (kids.size() > 1) {
    // K-way merge of children segments by non-increasing (hill - valley).
    // Ordering is optimal by Theorem 3; per-child order is preserved since
    // each normalized sequence has strictly decreasing (hill - valley).
    heap_.clear();
    for (std::size_t c = 0; c < kids.size(); ++c) {
      const Slice& sl = slice_[idx(kids[c])];
      if (sl.len > 0) heap_.push_back({pool_[sl.offset].hill - pool_[sl.offset].valley, c, 0});
    }
    std::make_heap(heap_.begin(), heap_.end());
    resident_.assign(kids.size(), 0);
    Weight base = 0;  // total resident memory across all children
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end());
      const Head h = heap_.back();
      heap_.pop_back();
      const Slice child = slice_[idx(kids[h.child])];
      const Segment s = pool_[child.offset + h.pos];  // by value: the push may reallocate
      const Weight offset = base - resident_[h.child];
      base = offset + s.valley;
      resident_[h.child] = s.valley;
      push_normalized(next_, pool_, start,
                      Segment{offset + s.hill, offset + s.valley, s.head, s.tail});
      const std::size_t nxt = h.pos + 1;
      if (nxt < child.len) {
        const Segment& n = pool_[child.offset + nxt];
        heap_.push_back({n.hill - n.valley, h.child, nxt});
        std::push_heap(heap_.begin(), heap_.end());
      }
    }
  }

  // The node's own execution: all children outputs are resident
  // (base == child_weight_sum), the transient peak is wbar, and the
  // subtree's final resident memory is the node's output.
  push_normalized(next_, pool_, start, Segment{tree.wbar(u), tree.weight(u), u, u});
  if (stacked && kids.size() > 1) {
    // Slide the merged sequence down over the children's block.
    const std::size_t len = pool_.size() - start;
    std::copy(pool_.begin() + static_cast<std::ptrdiff_t>(start), pool_.end(),
              pool_.begin() + static_cast<std::ptrdiff_t>(block));
    pool_.resize(block + len);
    start = block;
  }
  slice_[idx(u)] = Slice{start, pool_.size() - start};

  if (release_children) {
    for (const NodeId c : kids) {
      if (!stacked) garbage_ += slice_[idx(c)].len;
      slice_[idx(c)].len = 0;
    }
  }
}

void IncrementalMinMem::extract_schedule(NodeId u, Schedule& out) const {
  for (const Segment& s : sequence(u)) {
    for (NodeId x = s.head;; x = next_[idx(x)]) {
      out.push_back(x);
      if (x == s.tail) break;
    }
  }
}

namespace {

OptMinMemResult run(const Tree& tree, NodeId root, bool want_schedule,
                    std::vector<Weight>* all_peaks = nullptr) {
  IncrementalMinMem engine;
  engine.reserve(tree.size());
  const std::vector<NodeId> order = tree.postorder(root);
  for (const NodeId node : order) {
    // Release mode: in a postorder the pool is a stack — each merged
    // sequence slides down over its children's — so it holds only the
    // combine frontier (chains of 100k nodes must not retain 100k
    // sequences).
    engine.combine(tree, node, /*release_children=*/true);
    if (all_peaks != nullptr) (*all_peaks)[idx(node)] = engine.peak(node);
  }

  const auto root_seq = engine.sequence(root);
  OptMinMemResult result;
  result.peak = engine.peak(root);
  result.segments.reserve(root_seq.size());
  for (const auto& s : root_seq) result.segments.emplace_back(s.hill, s.valley);
  if (want_schedule) {
    result.schedule.reserve(order.size());
    engine.extract_schedule(root, result.schedule);
  }
  return result;
}

}  // namespace

OptMinMemResult opt_minmem(const Tree& tree, NodeId root) { return run(tree, root, true); }

Weight opt_minmem_peak(const Tree& tree, NodeId root) {
  return run(tree, root, false).peak;
}

std::vector<Weight> opt_minmem_all_peaks(const Tree& tree) {
  std::vector<Weight> peaks(tree.size(), 0);
  (void)run(tree, tree.root(), false, &peaks);
  return peaks;
}

}  // namespace ooctree::core
