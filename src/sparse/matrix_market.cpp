#include "src/sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ooctree::sparse {

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

SymPattern read_matrix_market(std::istream& in) {
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
  return SymPattern::from_entries(static_cast<Index>(rows), std::move(coo));
}

SymPattern load_matrix_market(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_matrix_market: cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const SymPattern& pattern) {
  out << "%%MatrixMarket matrix coordinate pattern symmetric\n";
  std::int64_t edges = 0;
  for (Index j = 0; j < pattern.size(); ++j)
    for (const Index i : pattern.neighbors(j)) edges += (i > j) ? 1 : 0;
  out << pattern.size() << ' ' << pattern.size() << ' ' << edges << '\n';
  for (Index j = 0; j < pattern.size(); ++j)
    for (const Index i : pattern.neighbors(j))
      if (i > j) out << (i + 1) << ' ' << (j + 1) << '\n';
}

void save_matrix_market(const std::string& path, const SymPattern& pattern) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_matrix_market: cannot open " + path);
  write_matrix_market(out, pattern);
  if (!out) throw std::runtime_error("save_matrix_market: write failed for " + path);
}

}  // namespace ooctree::sparse
