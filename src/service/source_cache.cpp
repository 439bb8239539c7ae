#include "src/service/source_cache.hpp"

#include <bit>
#include <cstring>
#include <utility>

#include "src/core/check.hpp"
#include "src/util/rng.hpp"

namespace ooctree::service {

SourceKey source_key(TreeSource kind, std::string_view bytes) {
  SourceKey key;
  key.kind = kind;
  key.length = bytes.size();
  std::uint64_t lo = util::splitmix64(0x736f757263656c6fULL ^ key.length);
  std::uint64_t hi = util::splitmix64(0x736f757263656869ULL + key.length);
  const auto step = [&](std::uint64_t word) {
    lo = util::splitmix64(lo ^ word);
    hi = util::splitmix64(hi ^ std::rotl(word, 29) ^ 0xa0761d6478bd642fULL);
  };
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    step(word);
  }
  if (i < bytes.size()) {  // zero-padded tail; the length above tells paddings apart
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, bytes.size() - i);
    step(word);
  }
  key.digest_lo = lo;
  key.digest_hi = hi;
  return key;
}

core::Tree SourceCache::tree(TreeSource kind, const std::string& path, core::MemoryModel model) {
  std::string bytes = read_source_file(kind, path);
  if (budget_ == 0) return tree_from_bytes(kind, std::move(bytes), model);
  const SourceKey key = source_key(kind, bytes);
  if (const std::shared_ptr<const Shape> shape = find(key))
    return core::Tree::from_parents(shape->parent, shape->weight, model);

  core::Tree tree = tree_from_bytes(kind, std::move(bytes), model);
  const std::size_t n = tree.size();
  if (n * (sizeof(core::NodeId) + sizeof(core::Weight)) <= budget_) {
    auto shape = std::make_shared<Shape>();
    shape->parent.resize(n);
    shape->weight.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<core::NodeId>(i);
      shape->parent[i] = tree.parent(id);
      shape->weight[i] = tree.weight(id);
    }
    insert(key, std::move(shape));
  }
  return tree;
}

std::shared_ptr<const SourceCache::Shape> SourceCache::find(const SourceKey& key) {
  const std::lock_guard lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->shape;
}

void SourceCache::insert(const SourceKey& key, std::shared_ptr<const Shape> shape) {
  const std::size_t size = shape->bytes();
  const std::lock_guard lock(mutex_);
  if (map_.count(key) != 0) return;  // a concurrent miss on the same bytes stored it first
  lru_.push_front(Entry{key, std::move(shape)});
  map_.emplace(key, lru_.begin());
  bytes_ += size;
  while (bytes_ > budget_) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.shape->bytes();
    map_.erase(victim.key);
    lru_.pop_back();
  }
}

SourceCounters SourceCache::counters() const {
  const std::lock_guard lock(mutex_);
  return SourceCounters{hits_, misses_, bytes_, map_.size()};
}

void SourceCache::audit() const {
  const std::lock_guard lock(mutex_);
  core::audit_check(map_.size() == lru_.size(), "SourceCache: map and LRU list differ in size");
  std::size_t total = 0;
  for (const Entry& entry : lru_) {
    core::audit_check(entry.shape != nullptr &&
                          entry.shape->parent.size() == entry.shape->weight.size(),
                      "SourceCache: null or ragged shape");
    const auto it = map_.find(entry.key);
    core::audit_check(it != map_.end() && &*it->second == &entry,
                      "SourceCache: LRU entry missing from the map");
    total += entry.shape->bytes();
  }
  core::audit_check(total == bytes_, "SourceCache: byte total drifted from its entries");
  core::audit_check(bytes_ <= budget_, "SourceCache: cached bytes exceed the budget");
}

}  // namespace ooctree::service
