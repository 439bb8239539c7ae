// Thread-safe least-recently-used map bounded by the bytes of its values,
// the one eviction rule of the planning service's source cache
// (source_cache.hpp) and tree-pass cache (PlanService, plan_service.hpp).
//
// Values are immutable and handed out as shared_ptr, so a reader keeps an
// evicted value alive for as long as it holds it. A value's size is its
// `bytes()`. insert() stores a value as most recent and evicts least
// recently used entries until the total fits the budget; a value larger
// than the whole budget is not stored, since keeping it would empty the
// map. A budget of 0 stores nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/core/check.hpp"

namespace ooctree::service {

/// Counters of a ByteLru.
struct LruCounters {
  std::uint64_t hits = 0;    ///< find() calls that returned a value
  std::uint64_t misses = 0;  ///< find() calls that returned nullptr
  std::size_t bytes = 0;     ///< value bytes held
  std::size_t entries = 0;   ///< values held
};

template <class Key, class Value, class Hash = std::hash<Key>>
class ByteLru {
 public:
  explicit ByteLru(std::size_t budget_bytes) : budget_(budget_bytes) {}

  ByteLru(const ByteLru&) = delete;
  ByteLru& operator=(const ByteLru&) = delete;

  [[nodiscard]] std::size_t budget() const { return budget_; }

  /// The value stored under `key`, refreshed to most recent, or nullptr.
  [[nodiscard]] std::shared_ptr<const Value> find(const Key& key) {
    const std::lock_guard lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  /// Stores `value` under `key` as most recent and evicts down to the
  /// budget. Keeps the stored value when `key` is already present (a
  /// concurrent miss on the same key stored it first).
  void insert(const Key& key, std::shared_ptr<const Value> value) {
    const std::size_t size = value->bytes();
    if (size > budget_) return;
    const std::lock_guard lock(mutex_);
    if (index_.count(key) != 0) return;
    lru_.push_front(Entry{key, std::move(value)});
    index_.emplace(key, lru_.begin());
    bytes_ += size;
    while (bytes_ > budget_) {
      const Entry& victim = lru_.back();
      bytes_ -= victim.value->bytes();
      index_.erase(victim.key);
      lru_.pop_back();
    }
  }

  [[nodiscard]] LruCounters counters() const {
    const std::lock_guard lock(mutex_);
    return LruCounters{hits_, misses_, bytes_, index_.size()};
  }

  /// Consistency sweep, throwing core::AuditError on drift: the index and
  /// the LRU list hold the same entries, every value is non-null and passes
  /// `valid`, and the byte total is the sum over the values and stays
  /// within the budget. `name` starts every message.
  template <class Valid>
  void audit(const char* name, Valid valid) const {
    const std::lock_guard lock(mutex_);
    const auto check = [name](bool ok, const char* what) {
      core::audit_check(ok, (std::string(name) + ": " + what).c_str());
    };
    check(index_.size() == lru_.size(), "index and LRU list differ in size");
    std::size_t total = 0;
    for (const Entry& entry : lru_) {
      check(entry.value != nullptr && valid(*entry.value), "null or malformed value");
      const auto it = index_.find(entry.key);
      check(it != index_.end() && &*it->second == &entry, "LRU entry missing from the index");
      total += entry.value->bytes();
    }
    check(total == bytes_, "byte total drifted from its entries");
    check(bytes_ <= budget_, "held bytes exceed the budget");
  }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Value> value;
  };

  const std::size_t budget_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace ooctree::service
