#include "src/service/source_cache.hpp"

#include <bit>
#include <cstring>
#include <utility>

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
  if (shapes_.budget() == 0) return tree_from_bytes(kind, std::move(bytes), model);
  const SourceKey key = source_key(kind, bytes);
  if (const std::shared_ptr<const Shape> shape = shapes_.find(key))
    return core::Tree::from_parents(shape->parent, shape->weight, model);

  core::Tree tree = tree_from_bytes(kind, std::move(bytes), model);
  const std::size_t n = tree.size();
  if (n * (sizeof(core::NodeId) + sizeof(core::Weight)) <= shapes_.budget()) {
    auto shape = std::make_shared<Shape>();
    shape->parent.resize(n);
    shape->weight.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<core::NodeId>(i);
      shape->parent[i] = tree.parent(id);
      shape->weight[i] = tree.weight(id);
    }
    shapes_.insert(key, std::move(shape));
  }
  return tree;
}

void SourceCache::audit() const {
  shapes_.audit("SourceCache", [](const Shape& shape) {
    return shape.parent.size() == shape.weight.size();
  });
}

}  // namespace ooctree::service
