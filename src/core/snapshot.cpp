#include "src/core/snapshot.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>

#include "src/core/tree_storage.hpp"

namespace ooctree::core {

namespace {

constexpr char kMagic[8] = {'O', 'O', 'C', 'T', 'R', 'E', 'E', '\0'};
constexpr std::uint32_t kEndianTag = 0x01020304;

// The fixed offsets below hard-code these widths; a platform where they
// differ would write unreadable files.
static_assert(sizeof(Weight) == 8 && sizeof(std::int64_t) == 8 && sizeof(NodeId) == 4);

// On-disk header, 64 bytes, naturally packed (no padding: one 8-byte magic,
// four 4-byte words, five 8-byte words).
struct SnapshotHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian;
  std::uint32_t model;
  std::uint32_t reserved;
  std::uint64_t nodes;
  std::int64_t root;
  std::int64_t max_wbar;
  std::int64_t total_weight;
  std::uint64_t tree_hash;
};
static_assert(sizeof(SnapshotHeader) == 64, "snapshot header must be 64 bytes");

std::size_t snapshot_bytes(std::uint64_t nodes) {
  // Header + 3 Weight arrays + (n+1) CSR offsets + parent[n] + child_list[n-1].
  return sizeof(SnapshotHeader) + 40 * static_cast<std::size_t>(nodes) + 4;
}

[[noreturn]] void reject(const std::string& path, const std::string& what) {
  throw std::runtime_error("snapshot: " + what + " in '" + path + "'");
}

// Header checks that need no body access; `file_size` enforces the exact
// node-count/size consistency so truncated or padded files never bind.
void validate_header(const SnapshotHeader& h, std::size_t file_size, const std::string& path) {
  if (std::memcmp(h.magic, kMagic, sizeof kMagic) != 0) reject(path, "bad magic");
  if (h.endian != kEndianTag) reject(path, "wrong endianness tag");
  if (h.version != kSnapshotVersion)
    reject(path, "unsupported format version " + std::to_string(h.version));
  if (h.model > 1) reject(path, "invalid memory model " + std::to_string(h.model));
  if (h.nodes == 0) reject(path, "zero node count");
  if (h.nodes > static_cast<std::uint64_t>(std::numeric_limits<NodeId>::max()))
    reject(path, "node count overflows node id range");
  if (file_size != snapshot_bytes(h.nodes))
    reject(path, "node count inconsistent with file size");
  if (h.root < 0 || static_cast<std::uint64_t>(h.root) >= h.nodes)
    reject(path, "root id out of range");
}

}  // namespace

void save_snapshot(const std::string& path, const Tree& tree) {
  SnapshotHeader h{};
  std::memcpy(h.magic, kMagic, sizeof kMagic);
  h.version = kSnapshotVersion;
  h.endian = kEndianTag;
  h.model = static_cast<std::uint32_t>(tree.memory_model());
  h.nodes = tree.size();
  h.root = tree.root();
  h.max_wbar = tree.min_feasible_memory();
  h.total_weight = tree.total_weight();
  h.tree_hash = tree.canonical_hash();

  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("snapshot: cannot write '" + tmp + "'");
    const auto put = [&os](const void* p, std::size_t bytes) {
      os.write(static_cast<const char*>(p), static_cast<std::streamsize>(bytes));
    };
    const std::size_t n = tree.size();
    const TreeArrays& a = tree.arrays_;
    put(&h, sizeof h);
    put(a.weight, 8 * n);
    put(a.child_sum, 8 * n);
    put(a.wbar, 8 * n);
    put(a.child_offset, 8 * (n + 1));
    put(a.parent, 4 * n);
    put(a.child_list, 4 * (n - 1));
    os.flush();
    if (!os) {
      std::remove(tmp.c_str());
      throw std::runtime_error("snapshot: write failed for '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("snapshot: cannot rename '" + tmp + "' to '" + path + "'");
  }
}

Tree load_snapshot(const std::string& path) {
  auto storage = std::make_shared<MappedStorage>(path);
  if (storage->length() < sizeof(SnapshotHeader)) reject(path, "truncated file");
  SnapshotHeader h{};
  std::memcpy(&h, storage->data(), sizeof h);
  validate_header(h, storage->length(), path);

  const auto n = static_cast<std::size_t>(h.nodes);
  // The mapping is PROT_READ; the non-const pointers are never written
  // through — Tree's only mutation path (TreeBuilder) goes via
  // ensure_owned, which clones mapped storage into an owned arena first.
  auto* body = const_cast<std::byte*>(storage->data()) + sizeof h;
  TreeArrays a;
  a.weight = reinterpret_cast<Weight*>(body);
  a.child_sum = reinterpret_cast<Weight*>(body + 8 * n);
  a.wbar = reinterpret_cast<Weight*>(body + 16 * n);
  a.child_offset = reinterpret_cast<std::int64_t*>(body + 24 * n);
  a.parent = reinterpret_cast<NodeId*>(body + 32 * n + 8);
  a.child_list = reinterpret_cast<NodeId*>(body + 36 * n + 8);

  // O(1) structural spot checks: the CSR bookends and the root's parent.
  // (Full-content validation would defeat the zero-parse point; corrupted
  // bodies with a consistent header are caught by the canonical hash when
  // the service compares cache keys, or by probe-and-rehash in tools.)
  if (a.child_offset[0] != 0 || a.child_offset[n] != static_cast<std::int64_t>(n) - 1)
    reject(path, "inconsistent CSR offsets");
  if (a.parent[static_cast<std::size_t>(h.root)] != kNoNode) reject(path, "root has a parent");

  storage->bind(a, n);
  Tree t;
  t.storage_ = std::move(storage);
  t.arrays_ = a;
  t.size_ = n;
  t.root_ = static_cast<NodeId>(h.root);
  t.max_wbar_ = h.max_wbar;
  t.total_weight_ = h.total_weight;
  t.model_ = static_cast<MemoryModel>(h.model);
  t.drop_postorder();  // walked on first use, so loading stays O(1)
  return t;
}

SnapshotInfo probe_snapshot(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw std::runtime_error("snapshot: cannot open '" + path + "'");
  const auto file_size = static_cast<std::size_t>(is.tellg());
  if (file_size < sizeof(SnapshotHeader)) reject(path, "truncated file");
  is.seekg(0);
  SnapshotHeader h{};
  is.read(reinterpret_cast<char*>(&h), sizeof h);
  if (!is) reject(path, "truncated file");
  validate_header(h, file_size, path);

  SnapshotInfo info;
  info.nodes = h.nodes;
  info.model = static_cast<MemoryModel>(h.model);
  info.root = static_cast<NodeId>(h.root);
  info.max_wbar = h.max_wbar;
  info.total_weight = h.total_weight;
  info.tree_hash = h.tree_hash;
  return info;
}

}  // namespace ooctree::core
