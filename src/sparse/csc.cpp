#include "src/sparse/csc.hpp"

#include <stdexcept>
#include <utility>

namespace ooctree::sparse {

namespace {
std::size_t uz(std::int64_t i) { return static_cast<std::size_t>(i); }
}  // namespace

SymPattern SymPattern::from_entries(Index n, std::vector<std::pair<Index, Index>> entries) {
  if (n <= 0) throw std::invalid_argument("SymPattern: n must be positive");
  // Two counting passes instead of a sort of 2 * entries pairs. First each
  // off-diagonal entry goes, in both orientations, into the bucket of its
  // column: bucket j lists the rows i of the stored pairs (i, j).
  std::vector<std::int64_t> bucket_ptr(uz(n) + 1, 0);
  for (const auto& [i, j] : entries) {
    if (i < 0 || i >= n || j < 0 || j >= n) throw std::invalid_argument("SymPattern: index range");
    if (i == j) continue;
    ++bucket_ptr[uz(i) + 1];
    ++bucket_ptr[uz(j) + 1];
  }
  for (std::size_t k = 0; k < uz(n); ++k) bucket_ptr[k + 1] += bucket_ptr[k];
  std::vector<Index> bucket(uz(bucket_ptr[uz(n)]));
  {
    std::vector<std::int64_t> cursor(bucket_ptr.begin(), bucket_ptr.end() - 1);
    for (const auto& [i, j] : entries) {
      if (i == j) continue;
      bucket[uz(cursor[uz(j)]++)] = i;
      bucket[uz(cursor[uz(i)]++)] = j;
    }
  }
  // Then the buckets are read in column order and each j is appended to
  // the rows it names, so every row comes out sorted and a duplicate is
  // always its row's last element. The pattern is symmetric, so a row and
  // its bucket hold the same count, duplicates included: rows are laid out
  // like the buckets and closed up once duplicates are gone.
  std::vector<Index> row(bucket.size());
  std::vector<std::int64_t> fill(bucket_ptr.begin(), bucket_ptr.end() - 1);
  for (Index j = 0; j < n; ++j)
    for (std::int64_t k = bucket_ptr[uz(j)]; k < bucket_ptr[uz(j) + 1]; ++k) {
      const Index i = bucket[uz(k)];
      if (fill[uz(i)] > bucket_ptr[uz(i)] && row[uz(fill[uz(i)] - 1)] == j) continue;
      row[uz(fill[uz(i)]++)] = j;
    }

  SymPattern p;
  p.n_ = n;
  p.ptr_.assign(uz(n) + 1, 0);
  std::size_t out = 0;
  for (Index i = 0; i < n; ++i) {
    for (std::int64_t k = bucket_ptr[uz(i)]; k < fill[uz(i)]; ++k) row[out++] = row[uz(k)];
    p.ptr_[uz(i) + 1] = static_cast<std::int64_t>(out);
  }
  row.resize(out);
  p.row_ = std::move(row);
  return p;
}

SymPattern SymPattern::permuted(const std::vector<Index>& perm) const {
  if (perm.size() != uz(n_))
    throw std::invalid_argument("SymPattern::permuted: wrong permutation length");
  std::vector<Index> inverse(perm.size(), -1);
  for (std::size_t v = 0; v < perm.size(); ++v) {
    const Index old = perm[v];
    if (old < 0 || old >= n_ || inverse[uz(old)] != -1)
      throw std::invalid_argument("SymPattern::permuted: not a permutation");
    inverse[uz(old)] = static_cast<Index>(v);
  }
  // New vertex v keeps old vertex perm[v]'s degree. Walking the new labels
  // c in increasing order and appending c to the row of each neighbour
  // leaves every row sorted; a pattern has no duplicates to drop.
  SymPattern p;
  p.n_ = n_;
  p.ptr_.assign(uz(n_) + 1, 0);
  for (std::size_t v = 0; v < perm.size(); ++v)
    p.ptr_[v + 1] = p.ptr_[v] + static_cast<std::int64_t>(degree(perm[v]));
  p.row_.resize(row_.size());
  std::vector<std::int64_t> fill(p.ptr_.begin(), p.ptr_.end() - 1);
  for (Index c = 0; c < n_; ++c)
    for (const Index u : neighbors(perm[uz(c)])) {
      const Index r = inverse[uz(u)];
      p.row_[uz(fill[uz(r)]++)] = c;
    }
  return p;
}

bool SymPattern::connected() const {
  std::vector<bool> seen(static_cast<std::size_t>(n_), false);
  std::vector<Index> stack{0};
  seen[0] = true;
  std::size_t count = 1;
  while (!stack.empty()) {
    const Index v = stack.back();
    stack.pop_back();
    for (const Index u : neighbors(v)) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = true;
        ++count;
        stack.push_back(u);
      }
    }
  }
  return count == static_cast<std::size_t>(n_);
}

}  // namespace ooctree::sparse
