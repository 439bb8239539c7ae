#include "src/core/tree.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/core/tree_storage.hpp"
#include "src/util/rng.hpp"

namespace ooctree::core {

Tree Tree::from_parents(std::vector<NodeId> parent, std::vector<Weight> weight,
                        MemoryModel model) {
  if (parent.size() != weight.size())
    throw std::invalid_argument("Tree: parent/weight arrays differ in length");
  if (parent.empty()) throw std::invalid_argument("Tree: empty tree");
  const auto n = parent.size();
  const auto ni = static_cast<NodeId>(n);

  Tree t;
  t.model_ = model;
  t.root_ = kNoNode;
  for (NodeId i = 0; i < ni; ++i) {
    const NodeId p = parent[idx(i)];
    if (p == kNoNode) {
      if (t.root_ != kNoNode) throw std::invalid_argument("Tree: multiple roots");
      t.root_ = i;
    } else if (p < 0 || p >= ni || p == i) {
      throw std::invalid_argument("Tree: invalid parent index");
    }
    if (weight[idx(i)] < 0) throw std::invalid_argument("Tree: negative weight");
  }
  if (t.root_ == kNoNode) throw std::invalid_argument("Tree: no root");

  // Arena allocated in one shot, sized exactly to the tree.
  t.storage_ = std::make_shared<OwnedStorage>(n);
  t.arrays_ = t.storage_->arrays();
  t.size_ = n;
  TreeArrays& a = t.arrays_;
  std::copy(parent.begin(), parent.end(), a.parent);
  std::copy(weight.begin(), weight.end(), a.weight);

  // Children CSR (counting sort keeps children ordered by increasing id).
  std::fill_n(a.child_offset, n + 1, std::int64_t{0});
  for (NodeId i = 0; i < ni; ++i)
    if (a.parent[idx(i)] != kNoNode) ++a.child_offset[idx(a.parent[idx(i)]) + 1];
  for (std::size_t j = 0; j < n; ++j) a.child_offset[j + 1] += a.child_offset[j];
  std::fill_n(a.child_list, n - 1, kNoNode);
  std::vector<std::int64_t> cursor(a.child_offset, a.child_offset + n);
  for (NodeId i = 0; i < ni; ++i) {
    const NodeId p = a.parent[idx(i)];
    if (p != kNoNode) a.child_list[static_cast<std::size_t>(cursor[idx(p)]++)] = i;
  }

  // Acyclicity: every node must reach the root; equivalently the postorder
  // from the root must visit all n nodes.
  if (t.postorder(t.root_).size() != n)
    throw std::invalid_argument("Tree: parent array contains a cycle or disconnected part");

  t.total_weight_ = 0;
  for (NodeId i = 0; i < ni; ++i) {
    Weight s = 0;
    for (const NodeId c : t.children(i)) s += a.weight[idx(c)];
    a.child_sum[idx(i)] = s;
    a.wbar[idx(i)] =
        model == MemoryModel::kMaxInOut ? std::max(a.weight[idx(i)], s) : a.weight[idx(i)] + s;
    t.max_wbar_ = std::max(t.max_wbar_, a.wbar[idx(i)]);
    t.total_weight_ += a.weight[idx(i)];
  }
  return t;
}

Tree::Tree(Tree&& other) noexcept
    : storage_(std::move(other.storage_)),
      arrays_(other.arrays_),
      size_(other.size_),
      root_(other.root_),
      max_wbar_(other.max_wbar_),
      total_weight_(other.total_weight_),
      model_(other.model_) {
  other.arrays_ = {};
  other.size_ = 0;
  other.root_ = kNoNode;
  other.max_wbar_ = 0;
  other.total_weight_ = 0;
}

Tree& Tree::operator=(Tree&& other) noexcept {
  if (this != &other) {
    storage_ = std::move(other.storage_);
    arrays_ = other.arrays_;
    size_ = other.size_;
    root_ = other.root_;
    max_wbar_ = other.max_wbar_;
    total_weight_ = other.total_weight_;
    model_ = other.model_;
    other.arrays_ = {};
    other.size_ = 0;
    other.root_ = kNoNode;
    other.max_wbar_ = 0;
    other.total_weight_ = 0;
  }
  return *this;
}

bool Tree::is_mapped() const { return storage_ != nullptr && !storage_->writable(); }

void Tree::ensure_owned(std::size_t min_capacity) {
  if (storage_ == nullptr) {  // defensive: TreeBuilder never adopts an empty tree
    storage_ = std::make_shared<OwnedStorage>(min_capacity);
    arrays_ = storage_->arrays();
    arrays_.child_offset[0] = 0;
    return;
  }
  if (storage_->writable() && storage_.use_count() == 1 && storage_->capacity() >= min_capacity)
    return;
  // Clone (copy-on-write off shared or mapped storage) or grow; doubling
  // keeps a run of expansion appends amortized O(1), exactly like the
  // std::vector storage this replaced.
  const std::size_t new_cap = std::max(min_capacity, 2 * storage_->capacity());
  storage_ = std::make_shared<OwnedStorage>(arrays_, size_, new_cap);
  arrays_ = storage_->arrays();
}

std::vector<NodeId> Tree::postorder(NodeId r) const {
  // Read backwards, the postorder is a node, then its children's subtrees
  // last child first: a popped node goes just before those already placed,
  // and its children are pushed in stored order. The stack lives at the
  // front of the output; stacked and placed nodes are distinct, so the two
  // regions never meet.
  std::vector<NodeId> out(size());
  std::size_t top = 0;          // the stack is out[0, top)
  std::size_t placed = size();  // the order so far is out[placed, size)
  out[top++] = r;
  while (top > 0) {
    const NodeId node = out[--top];
    out[--placed] = node;
    for (const NodeId c : children(node)) out[top++] = c;
  }
  out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(placed));
  return out;
}

std::size_t Tree::subtree_size(NodeId r) const { return postorder(r).size(); }

Tree Tree::with_memory_model(MemoryModel model) const {
  return from_parents(std::vector<NodeId>(arrays_.parent, arrays_.parent + size_),
                      std::vector<Weight>(arrays_.weight, arrays_.weight + size_), model);
}

Tree Tree::subtree(NodeId r, std::vector<NodeId>* old_ids) const {
  const std::vector<NodeId> order = postorder(r);
  std::vector<NodeId> new_id(size(), kNoNode);
  for (std::size_t k = 0; k < order.size(); ++k) new_id[idx(order[k])] = static_cast<NodeId>(k);

  std::vector<NodeId> parent(order.size(), kNoNode);
  std::vector<Weight> weight(order.size(), 0);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const NodeId old = order[k];
    weight[k] = arrays_.weight[idx(old)];
    if (old != r) parent[k] = new_id[idx(arrays_.parent[idx(old)])];
  }
  if (old_ids != nullptr) *old_ids = order;
  return from_parents(std::move(parent), std::move(weight), model_);
}

std::size_t Tree::depth() const {
  std::vector<std::size_t> d(size(), 0);
  std::size_t best = 0;
  // Parents first: walk a reverse postorder.
  const std::vector<NodeId> order = postorder();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId i = *it;
    d[idx(i)] = (arrays_.parent[idx(i)] == kNoNode) ? 1 : d[idx(arrays_.parent[idx(i)])] + 1;
    best = std::max(best, d[idx(i)]);
  }
  return best;
}

bool Tree::is_homogeneous() const {
  return std::all_of(arrays_.weight, arrays_.weight + size_, [](Weight w) { return w == 1; });
}

std::uint64_t Tree::canonical_hash() const {
  // Chained splitmix64 over the logical content only: parent and weight in
  // node order plus the memory model. The CSR arrays, aggregates and wbar
  // are derived from these, so construction history cannot leak in.
  std::uint64_t h = util::splitmix64(0x6f6f637472656531ULL ^ size());
  h = util::splitmix64(h ^ static_cast<std::uint64_t>(model_));
  for (std::size_t i = 0; i < size(); ++i) {
    h = util::splitmix64(h ^
                         static_cast<std::uint64_t>(static_cast<std::int64_t>(arrays_.parent[i])));
    h = util::splitmix64(h ^ static_cast<std::uint64_t>(arrays_.weight[i]));
  }
  return h;
}

std::string Tree::to_string() const {
  std::ostringstream os;
  os << "Tree(n=" << size() << ", root=" << root_ << ")\n";
  // Depth-first with indentation.
  std::vector<std::pair<NodeId, int>> stack{{root_, 0}};
  while (!stack.empty()) {
    const auto [node, level] = stack.back();
    stack.pop_back();
    for (int k = 0; k < level; ++k) os << "  ";
    os << node << " (w=" << arrays_.weight[idx(node)] << ")\n";
    const auto kids = children(node);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.emplace_back(*it, level + 1);
  }
  return os.str();
}

Tree make_tree(const std::vector<std::pair<NodeId, Weight>>& nodes) {
  std::vector<NodeId> parent;
  std::vector<Weight> weight;
  parent.reserve(nodes.size());
  weight.reserve(nodes.size());
  for (const auto& [p, w] : nodes) {
    parent.push_back(p);
    weight.push_back(w);
  }
  return Tree::from_parents(std::move(parent), std::move(weight));
}

}  // namespace ooctree::core
