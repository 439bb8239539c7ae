#include "tests/oracles/matrix_market_reference.hpp"

#include <algorithm>
#include <cctype>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ooctree::sparse::oracle {

ReferencePattern from_entries_reference(Index n, std::vector<std::pair<Index, Index>> entries) {
  if (n <= 0) throw std::invalid_argument("SymPattern: n must be positive");
  // Symmetrize and drop the diagonal.
  std::vector<std::pair<Index, Index>> edges;
  edges.reserve(entries.size() * 2);
  for (const auto& [i, j] : entries) {
    if (i < 0 || i >= n || j < 0 || j >= n) throw std::invalid_argument("SymPattern: index range");
    if (i == j) continue;
    edges.emplace_back(i, j);
    edges.emplace_back(j, i);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  ReferencePattern p;
  p.n = n;
  p.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [j, i] : edges) (void)i, ++p.ptr[static_cast<std::size_t>(j) + 1];
  for (std::size_t k = 0; k < static_cast<std::size_t>(n); ++k) p.ptr[k + 1] += p.ptr[k];
  p.row.resize(edges.size());
  std::vector<std::int64_t> cursor(p.ptr.begin(), p.ptr.end() - 1);
  for (const auto& [j, i] : edges)
    p.row[static_cast<std::size_t>(cursor[static_cast<std::size_t>(j)]++)] = i;
  return p;
}

ReferencePattern permuted_reference(const SymPattern& pattern, const std::vector<Index>& perm) {
  if (perm.size() != static_cast<std::size_t>(pattern.size()))
    throw std::invalid_argument("SymPattern::permuted: wrong permutation length");
  std::vector<Index> inverse(perm.size(), -1);
  for (std::size_t v = 0; v < perm.size(); ++v) {
    const Index old = perm[v];
    if (old < 0 || old >= pattern.size() || inverse[static_cast<std::size_t>(old)] != -1)
      throw std::invalid_argument("SymPattern::permuted: not a permutation");
    inverse[static_cast<std::size_t>(old)] = static_cast<Index>(v);
  }
  std::vector<std::pair<Index, Index>> entries;
  entries.reserve(pattern.nnz());
  for (Index j = 0; j < pattern.size(); ++j)
    for (const Index i : pattern.neighbors(j))
      if (i < j)
        entries.emplace_back(inverse[static_cast<std::size_t>(i)],
                             inverse[static_cast<std::size_t>(j)]);
  return from_entries_reference(pattern.size(), std::move(entries));
}

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

bool blank(const std::string& line) {
  return std::all_of(line.begin(), line.end(),
                     [](unsigned char c) { return std::isspace(c) != 0; });
}

}  // namespace

ReferencePattern read_matrix_market_reference(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("matrix market: empty stream");
  std::istringstream header(lower(line));
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%matrixmarket" || object != "matrix")
    throw std::runtime_error("matrix market: bad banner");
  if (format != "coordinate")
    throw std::runtime_error("matrix market: only coordinate format supported");
  if (field != "real" && field != "double" && field != "complex" && field != "integer" &&
      field != "pattern")
    throw std::runtime_error("matrix market: unknown field '" + field + "'");
  const bool has_values = field != "pattern";
  const int values_per_entry = (field == "complex") ? 2 : (has_values ? 1 : 0);
  // The symmetry field is part of the banner and must be honored, not
  // ignored: unknown symmetries are rejected, and `general` files are
  // symmetrized explicitly below (this reader produces symmetric patterns).
  if (symmetry != "general" && symmetry != "symmetric" && symmetry != "skew-symmetric" &&
      symmetry != "hermitian")
    throw std::runtime_error("matrix market: unknown symmetry '" + symmetry + "'");
  if (symmetry == "hermitian" && field != "complex")
    throw std::runtime_error("matrix market: hermitian requires a complex field");
  const bool declared_symmetric = symmetry != "general";

  // Skip comment and blank lines (both legal before the size line), then
  // read the size line.
  do {
    if (!std::getline(in, line)) throw std::runtime_error("matrix market: missing size line");
  } while (blank(line) || line[0] == '%');
  std::istringstream size_line(line);
  std::int64_t rows = 0, cols = 0, entries = 0;
  if (!(size_line >> rows >> cols >> entries))
    throw std::runtime_error("matrix market: malformed size line");
  if (rows != cols) throw std::runtime_error("matrix market: matrix is not square");
  if (rows <= 0 || rows > (std::int64_t{1} << 30))
    throw std::runtime_error("matrix market: dimension out of range");
  if (entries < 0) throw std::runtime_error("matrix market: negative entry count");

  // The size line is a claim, not a fact: reserve at most what a short body
  // could back, and let the vector grow with the entries actually read. A
  // huge count over a truncated body then fails as truncated instead of
  // allocating first.
  constexpr std::int64_t kMaxReserve = std::int64_t{1} << 16;
  std::vector<std::pair<Index, Index>> coo;
  coo.reserve(static_cast<std::size_t>(std::min(entries, kMaxReserve)));
  for (std::int64_t e = 0; e < entries; ++e) {
    std::int64_t i = 0, j = 0;
    if (!(in >> i >> j))
      throw std::runtime_error("matrix market: truncated entry list at entry " + std::to_string(e));
    for (int v = 0; v < values_per_entry; ++v) {
      double value = 0;
      if (!(in >> value)) throw std::runtime_error("matrix market: missing value");
    }
    if (i < 1 || i > rows || j < 1 || j > rows)
      throw std::runtime_error("matrix market: entry index out of range");
    if (declared_symmetric && i < j)
      throw std::runtime_error(
          "matrix market: " + symmetry +
          " file stores an upper-triangle entry (the format keeps the lower triangle only)");
    if (symmetry == "skew-symmetric" && i == j)
      throw std::runtime_error(
          "matrix market: skew-symmetric file stores a diagonal entry (A = -A^T forces a zero "
          "diagonal)");
    coo.emplace_back(static_cast<Index>(i - 1), static_cast<Index>(j - 1));
  }
  // The count is exact: a longer body describes a different pattern, so
  // entries past it are an error, not something to drop.
  if (!(in >> std::ws).eof())
    throw std::runtime_error("matrix market: more entries than the size line declares");
  // Declared-symmetric files expand their stored triangle; `general` files
  // are structurally symmetrized (i,j) | (j,i) — the explicit policy for
  // feeding unsymmetric patterns into the symmetric multifrontal pipeline.
  return from_entries_reference(static_cast<Index>(rows), std::move(coo));
}

}  // namespace ooctree::sparse::oracle
