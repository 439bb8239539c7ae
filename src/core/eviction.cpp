#include "src/core/eviction.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/core/check.hpp"
#include "src/util/text.hpp"

namespace ooctree::core {

std::string eviction_policy_name(EvictionPolicy p) {
  switch (p) {
    case EvictionPolicy::kBelady: return "Belady";
    case EvictionPolicy::kLru: return "LRU";
    case EvictionPolicy::kRandom: return "Random";
    case EvictionPolicy::kLargestFirst: return "LargestFirst";
  }
  throw std::invalid_argument("eviction_policy_name: unknown policy");
}

EvictionPolicy eviction_policy_from_name(const std::string& name) {
  const std::string s = util::to_lower(name);
  if (s == "belady" || s == "fif") return EvictionPolicy::kBelady;
  // FIFO keys on the same production clock as LRU everywhere, so it stays
  // only as a spelling: request streams that name it still decode.
  if (s == "lru" || s == "fifo") return EvictionPolicy::kLru;
  if (s == "random") return EvictionPolicy::kRandom;
  if (s == "largest" || s == "largestfirst") return EvictionPolicy::kLargestFirst;
  throw std::invalid_argument("unknown eviction policy '" + name +
                              "' (belady | lru | random | largest)");
}

namespace {
std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }
}  // namespace

EvictionIndex::EvictionIndex(EvictionPolicy policy, std::size_t capacity, util::Rng* rng)
    : policy_(policy), rng_(rng), version_(capacity, 0) {
  if (policy_ == EvictionPolicy::kRandom) {
    if (rng_ == nullptr)
      throw std::invalid_argument("EvictionIndex: kRandom requires an Rng");
    dense_.reserve(capacity);
    dense_pos_.assign(capacity, 0);
  } else {
    heap_.reserve(capacity);
  }
}

std::int64_t EvictionIndex::normalize(std::int64_t key) const {
  // Larger normalized key == evicted sooner. LRU prefers the *oldest*
  // clock, so its keys are flipped.
  return policy_ == EvictionPolicy::kLru ? -key : key;
}

void EvictionIndex::insert(NodeId id, std::int64_t key) {
  if (policy_ == EvictionPolicy::kRandom) {
    if (version_[idx(id)] == 0) {
      version_[idx(id)] = 1;
      dense_pos_[idx(id)] = static_cast<std::uint32_t>(dense_.size());
      dense_.push_back(id);
      ++live_;
    }
    return;  // keys are irrelevant to kRandom
  }
  // 0 marks "absent", so the stamp skips it when it wraps.
  if (++stamp_ == 0) ++stamp_;
  const std::uint32_t v = stamp_;
  if (version_[idx(id)] == 0) ++live_;
  version_[idx(id)] = v;
  heap_.push_back(Entry{normalize(key), id, v});
  std::push_heap(heap_.begin(), heap_.end());
}

void EvictionIndex::erase(NodeId id) {
  if (version_[idx(id)] == 0) return;
#if OOCTREE_AUDIT_ENABLED
  if (fault::eviction_index.load(std::memory_order_relaxed) == 1) {
    // Test-only corruption: drop the live count but leave the version, the
    // exact live_/version_ drift audit() exists to detect.
    --live_;
    return;
  }
#endif
  version_[idx(id)] = 0;
  --live_;
  if (policy_ == EvictionPolicy::kRandom) {
    const std::uint32_t pos = dense_pos_[idx(id)];
    dense_[pos] = dense_.back();
    dense_pos_[idx(dense_[pos])] = pos;
    dense_.pop_back();
  }
  // Non-random: the heap entry goes stale and is skipped on a later pick().
}

bool EvictionIndex::contains(NodeId id) const { return version_[idx(id)] != 0; }

void EvictionIndex::audit() const {
  std::size_t live = 0;
  for (const std::uint32_t v : version_)
    if (v != 0) ++live;
  audit_check(live == live_, "EvictionIndex: live count != ids with a live version");
  if (policy_ == EvictionPolicy::kRandom) {
    audit_check(dense_.size() == live_, "EvictionIndex: dense set size != live count");
    for (std::size_t pos = 0; pos < dense_.size(); ++pos) {
      const NodeId id = dense_[pos];
      audit_check(version_[idx(id)] != 0, "EvictionIndex: dense entry for an absent id");
      audit_check(dense_pos_[idx(id)] == pos, "EvictionIndex: dense position map broken");
    }
    return;
  }
  // Non-random: exactly one heap entry per live id carries the current
  // version (stale duplicates are expected — lazy deletion).
  std::size_t current = 0;
  for (const Entry& e : heap_) {
    audit_check(static_cast<std::size_t>(e.id) < version_.size(),
                "EvictionIndex: heap entry id out of range");
    if (version_[idx(e.id)] == e.version) ++current;
  }
  audit_check(current == live_, "EvictionIndex: live ids without a current heap entry");
}

NodeId EvictionIndex::pick() {
  if (live_ == 0) return kNoNode;
  if (policy_ == EvictionPolicy::kRandom) return dense_[rng_->index(dense_.size())];
  while (true) {
    const Entry& top = heap_.front();
    if (version_[idx(top.id)] == top.version) return top.id;
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
  }
}

}  // namespace ooctree::core
