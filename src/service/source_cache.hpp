// Content-addressed shape cache of the planning service's text path
// sources (.tree and .mtx files).
//
// Materializing a `.mtx` request re-reads the matrix, orders it by minimum
// degree and builds its assembly tree; a `.tree` request re-parses text.
// That work depends only on the file's bytes, so SourceCache reads each
// request's file once, digests the bytes, and looks up the tree's *shape*
// — the parent and weight arrays, 12 B per node — under (source kind,
// byte length, 128-bit digest). A hit rebuilds the tree with
// core::Tree::from_parents under the request's memory model; a miss parses
// the same bytes through tree_from_bytes (request.hpp) and stores the
// shape. One shape serves both memory models, since a model only changes
// the derived wbar arrays. The key is the content, never the path or its
// mtime: a rewritten file has new bytes and misses, and two paths holding
// the same bytes share one entry. The digest is non-cryptographic, like
// Tree::canonical_hash, which keys the result cache after it.
//
// The cache is a ByteLru (byte_lru.hpp) over shape bytes: a shape larger
// than the whole budget is not stored, and inserting one evicts least
// recently used shapes until the total fits. A budget of 0 disables it:
// tree() then reads and parses every time and counts nothing. `.otree` snapshots stay
// outside: loading one is an O(1) mmap, which digesting would turn into a
// full pass over the file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/tree.hpp"
#include "src/service/byte_lru.hpp"
#include "src/service/request.hpp"

namespace ooctree::service {

/// Identity of a text source's content.
struct SourceKey {
  TreeSource kind = TreeSource::kTreeFile;
  std::uint64_t length = 0;  ///< byte length of the file
  std::uint64_t digest_lo = 0;
  std::uint64_t digest_hi = 0;
  bool operator==(const SourceKey&) const = default;
};

/// The key of `bytes` read as a `kind` source: two independent 64-bit
/// splitmix lanes over the bytes make the 128-bit digest.
[[nodiscard]] SourceKey source_key(TreeSource kind, std::string_view bytes);

/// Counters of a SourceCache: hits are requests rebuilt from a cached
/// shape, misses requests parsed from their bytes.
using SourceCounters = LruCounters;

/// Thread-safe byte-budgeted LRU from source content to tree shape.
class SourceCache {
 public:
  explicit SourceCache(std::size_t budget_bytes) : shapes_(budget_bytes) {}

  SourceCache(const SourceCache&) = delete;
  SourceCache& operator=(const SourceCache&) = delete;

  /// The tree the text source at `path` holds, under `model`: exactly
  /// tree_from_bytes(kind, read_source_file(kind, path), model), with the
  /// parse skipped when the file's bytes match a cached shape. Throws what
  /// those two throw.
  [[nodiscard]] core::Tree tree(TreeSource kind, const std::string& path,
                                core::MemoryModel model);

  [[nodiscard]] SourceCounters counters() const { return shapes_.counters(); }

  /// Consistency sweep, throwing core::AuditError on drift: ByteLru::audit,
  /// with every shape holding as many weights as parents.
  void audit() const;

 private:
  struct Shape {
    std::vector<core::NodeId> parent;
    std::vector<core::Weight> weight;
    [[nodiscard]] std::size_t bytes() const {
      return parent.size() * sizeof(core::NodeId) + weight.size() * sizeof(core::Weight);
    }
  };
  struct KeyHash {
    std::size_t operator()(const SourceKey& k) const {
      return static_cast<std::size_t>(k.digest_lo);
    }
  };

  ByteLru<SourceKey, Shape, KeyHash> shapes_;
};

}  // namespace ooctree::service
