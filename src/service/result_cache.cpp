#include "src/service/result_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <tuple>
#include <type_traits>

#include "src/core/check.hpp"

namespace ooctree::service {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// ---------------------------------------------------------------------------
// Spilled-entry files: one binary .plan per key, length-prefixed fields.
// The format is private to this translation unit; snapshots of *trees* are
// the public interchange format (core/snapshot.hpp), spilled plans are just
// the cache's own state. Unreadable or foreign files are treated as misses.

constexpr char kPlanMagic[8] = {'O', 'O', 'C', 'P', 'L', 'A', 'N', '\0'};
// Version 2: PlanStats grew the disk-pipeline block (write_stall +
// prefetch counters). Version 3: the replay key lost the `backfill` and
// `reserve_penalty` mixes (and FIFO folded into LRU), so every replay
// request now hashes to a different params key; v2 files would preload
// under keys no request can produce and only take cache slots. Bumping
// invalidates older spilled plans — they decode as misses and are
// recomputed, never misread.
constexpr std::uint32_t kPlanVersion = 3;

void put_bytes(std::ostream& os, const void* p, std::size_t n) {
  os.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
}

bool get_bytes(std::istream& is, void* p, std::size_t n) {
  is.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  return static_cast<bool>(is);
}

/// On-disk type of a scalar member: bool as u8, enums as u32, size_t as
/// u64, everything else as itself. Strings and vectors are a u64
/// length followed by their bytes.
template <typename T>
using Wire = std::conditional_t<
    std::is_same_v<T, bool>, std::uint8_t,
    std::conditional_t<std::is_enum_v<T>, std::uint32_t,
                       std::conditional_t<std::is_same_v<T, std::size_t>, std::uint64_t, T>>>;

template <typename T>
concept Sequence = requires(T& t) {
  t.data();
  t.resize(0);
};

/// Enum members are range-checked on read: serving an out-of-range value
/// would throw when the response is printed.
bool in_range(core::Strategy s) {
  const std::vector<core::Strategy> all = core::all_strategies();
  return std::find(all.begin(), all.end(), s) != all.end();
}

template <typename T>
void put_field(std::ostream& os, const T& v) {
  if constexpr (Sequence<T>) {
    put_field(os, static_cast<std::uint64_t>(v.size()));
    put_bytes(os, v.data(), sizeof(*v.data()) * v.size());
  } else {
    const auto wire = static_cast<Wire<T>>(v);
    put_bytes(os, &wire, sizeof wire);
  }
}

template <typename T>
bool get_field(std::istream& is, T& v) {
  if constexpr (Sequence<T>) {
    // Capped so a corrupt length cannot demand an absurd allocation.
    std::uint64_t n = 0;
    if (!get_field(is, n) || n > (1ULL << 32)) return false;
    v.resize(static_cast<std::size_t>(n));
    return n == 0 || get_bytes(is, v.data(), sizeof(*v.data()) * v.size());
  } else {
    Wire<T> wire{};
    if (!get_bytes(is, &wire, sizeof wire)) return false;
    v = static_cast<T>(wire);
    if constexpr (std::is_enum_v<T>) return in_range(v);
    return true;
  }
}

void write_plan_file(std::ostream& os, const CacheKey& key, const PlanStats& s) {
  put_bytes(os, kPlanMagic, sizeof kPlanMagic);
  put_field(os, kPlanVersion);
  put_field(os, std::uint32_t{0});  // reserved
  put_field(os, key.tree);
  put_field(os, key.params);
  std::apply([&](auto... member) { (put_field(os, s.*member), ...); }, kPlanStatsFields);
}

bool read_plan_file(std::istream& is, CacheKey& key, PlanStats& s) {
  char magic[8];
  std::uint32_t version = 0;
  std::uint32_t reserved = 0;
  if (!get_bytes(is, magic, sizeof magic) || std::memcmp(magic, kPlanMagic, sizeof magic) != 0)
    return false;
  if (!get_field(is, version) || version != kPlanVersion || !get_field(is, reserved)) return false;
  if (!get_field(is, key.tree) || !get_field(is, key.params)) return false;
  if (!std::apply([&](auto... member) { return (get_field(is, s.*member) && ...); },
                  kPlanStatsFields))
    return false;
  // An answer schedules every node of its tree; a shorter schedule is corrupt.
  if (s.ok && s.schedule.size() != s.nodes) return false;
  // Reject trailing garbage: the next read must hit EOF.
  return is.peek() == std::char_traits<char>::eof();
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

ResultCache::ResultCache(std::size_t capacity, std::size_t shards, std::string persist_dir)
    : persist_dir_(std::move(persist_dir)) {
  const std::size_t count = round_up_pow2(std::max<std::size_t>(1, shards));
  shard_mask_ = count - 1;
  // Per-shard budget: ceil(capacity / count) so the total is never below
  // the requested capacity; 0 stays 0 (cache disabled).
  shard_capacity_ = capacity == 0 ? 0 : (capacity + count - 1) / count;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) shards_.push_back(std::make_unique<Shard>());
  if (persistent() && enabled()) {
    std::filesystem::create_directories(persist_dir_);
    preload();
  }
}

ResultCache::~ResultCache() {
  if (!persistent() || !enabled()) return;
  // Flush: eviction only spills what falls off the LRU tail; entries still
  // resident at shutdown must reach disk too or a restart would lose them.
  for (const auto& shard : shards_) {
    const std::lock_guard lock(shard->mutex);
    for (const Entry& e : shard->lru)
      if (e.persistable) spill(e.key, *e.value);
  }
}

std::string ResultCache::entry_path(const CacheKey& key) const {
  return persist_dir_ + "/" + hex16(key.tree) + "-" + hex16(key.params) + ".plan";
}

bool ResultCache::spill(const CacheKey& key, const PlanStats& value) const {
  const std::string path = entry_path(key);
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) return false;  // deterministic per key
  const std::string tmp = path + ".tmp";
  std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  write_plan_file(os, key, value);
  os.flush();
  const bool ok = static_cast<bool>(os);
  os.close();
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::shared_ptr<const PlanStats> ResultCache::load_entry(const CacheKey& key) const {
  std::ifstream is(entry_path(key), std::ios::binary);
  if (!is) return nullptr;
  CacheKey stored;
  auto stats = std::make_shared<PlanStats>();
  if (!read_plan_file(is, stored, *stats) || !(stored == key)) return nullptr;
  return stats;
}

void ResultCache::preload() {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(persist_dir_, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".plan") continue;
    std::ifstream is(entry.path(), std::ios::binary);
    if (!is) continue;
    CacheKey key;
    auto stats = std::make_shared<PlanStats>();
    if (!read_plan_file(is, key, *stats)) continue;  // foreign/corrupt: skip
    put(key, std::move(stats), true);
  }
}

std::shared_ptr<const PlanStats> ResultCache::get(const CacheKey& key) {
  if (!enabled()) return nullptr;
  Shard& shard = shard_for(key);
  const std::lock_guard lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // refresh recency
    ++shard.hits;
    return it->second->value;
  }
  if (persistent()) {
    if (std::shared_ptr<const PlanStats> restored = load_entry(key)) {
      insert_locked(shard, key, restored, true);
      ++shard.restored;
      ++shard.hits;
      return restored;
    }
  }
  ++shard.misses;
  return nullptr;
}

void ResultCache::insert_locked(Shard& shard, const CacheKey& key,
                                std::shared_ptr<const PlanStats> value, bool persistable) {
  const auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second->value = std::move(value);
    it->second->persistable = it->second->persistable || persistable;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(Entry{key, std::move(value), persistable});
  shard.map.emplace(key, shard.lru.begin());
  ++shard.insertions;
  while (shard.lru.size() > shard_capacity_) {
    const Entry& victim = shard.lru.back();
    if (victim.persistable && persistent() && spill(victim.key, *victim.value)) ++shard.spilled;
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void ResultCache::put(const CacheKey& key, std::shared_ptr<const PlanStats> value,
                      bool persistable) {
  if (!enabled()) return;
  Shard& shard = shard_for(key);
  const std::lock_guard lock(shard.mutex);
  insert_locked(shard, key, std::move(value), persistable);
}

void ResultCache::audit() const {
  for (const auto& shard : shards_) {
    const std::lock_guard lock(shard->mutex);
    core::audit_check(shard->map.size() == shard->lru.size(),
                      "ResultCache: shard map and LRU list disagree on size");
    core::audit_check(shard->lru.size() <= shard_capacity_,
                      "ResultCache: shard holds more entries than its capacity");
    for (auto it = shard->lru.begin(); it != shard->lru.end(); ++it) {
      const auto slot = shard->map.find(it->key);
      core::audit_check(slot != shard->map.end(),
                        "ResultCache: LRU entry missing from the shard map");
      core::audit_check(slot->second == it, "ResultCache: shard map points at the wrong node");
      core::audit_check(it->value != nullptr, "ResultCache: cached value is null");
    }
    // Insertion and eviction are the only ways entries appear and leave,
    // so the counters must reproduce the shard's population exactly.
    core::audit_check(shard->insertions == shard->evictions + shard->lru.size(),
                      "ResultCache: insertion/eviction counters cannot produce this shard");
    // Every restore re-inserted an entry, and spills only happen on
    // eviction or shutdown flush.
    core::audit_check(shard->restored <= shard->insertions,
                      "ResultCache: more restores than insertions");
    core::audit_check(shard->spilled <= shard->evictions,
                      "ResultCache: more eviction spills than evictions");
  }
}

CacheCounters ResultCache::counters() const {
  CacheCounters total;
  total.capacity = shard_capacity_ * shards_.size();
  for (const auto& shard : shards_) {
    const std::lock_guard lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.insertions += shard->insertions;
    total.evictions += shard->evictions;
    total.spilled += shard->spilled;
    total.restored += shard->restored;
    total.entries += shard->lru.size();
  }
  return total;
}

}  // namespace ooctree::service
