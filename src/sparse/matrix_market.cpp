#include "src/sparse/matrix_market.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "src/util/text.hpp"

namespace ooctree::sparse {

namespace {

/// The bytes std::isspace accepts in the "C" locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// The next line of `text` from `pos` (without its '\n'), as std::getline
/// extracts it; nullopt once nothing is left.
std::optional<std::string_view> next_line(std::string_view text, std::size_t& pos) {
  if (pos >= text.size()) return std::nullopt;
  const std::size_t end = std::min(text.find('\n', pos), text.size());
  const std::string_view line = text.substr(pos, end - pos);
  pos = end + 1;
  return line;
}

bool blank(std::string_view line) {
  return std::all_of(line.begin(), line.end(), is_space);
}

/// Reads numbers the way `std::istream >>` does: skip whitespace, then take
/// the longest number at the cursor, which need not end at whitespace. A
/// leading '+' is accepted; nan, inf and a number out of range are not.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : p_(text.data()), end_(text.data() + text.size()) {}

  /// True when only whitespace is left.
  [[nodiscard]] bool at_end() {
    skip_space();
    return p_ == end_;
  }

  bool read_int(std::int64_t& value) {
    if (!number_start()) return false;
    const auto [next, ec] = std::from_chars(p_, end_, value);
    if (ec != std::errc{}) return false;
    p_ = next;
    return true;
  }

  bool read_real() {
    if (!number_start()) return false;
    const char* const first = p_;
    double value = 0;
    const auto [next, ec] = std::from_chars(p_, end_, value, std::chars_format::general);
    if (ec == std::errc::invalid_argument) return false;
    // The stream takes an exponent marker into the number even without
    // digits after it ("1e", "1e+"), and then fails it.
    const auto exponent = [](char c) { return c == 'e' || c == 'E'; };
    if (next != end_ && exponent(*next) && std::none_of(first, next, exponent)) return false;
    // Out of range: an overflow fails as it does for the stream, whose
    // strtod gives HUGE_VAL; an underflow reads as the stream reads it.
    if (ec == std::errc::result_out_of_range &&
        std::abs(std::strtod(std::string(first, next).c_str(), nullptr)) == HUGE_VAL)
      return false;
    p_ = next;
    return true;
  }

 private:
  void skip_space() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  /// Skips whitespace and a '+' sign; true when a decimal number can
  /// start at the cursor. Rejecting letters here keeps from_chars from
  /// reading nan and inf, which the stream refuses.
  bool number_start() {
    skip_space();
    const bool plus = p_ != end_ && *p_ == '+';
    if (plus) ++p_;
    const char* digits = !plus && p_ != end_ && *p_ == '-' ? p_ + 1 : p_;
    return digits != end_ && (is_digit(*digits) || *digits == '.');
  }

  const char* p_;
  const char* end_;
};

}  // namespace

SymPattern read_matrix_market(std::string_view text) {
  std::size_t pos = 0;
  const auto first_line = next_line(text, pos);
  if (!first_line) throw std::runtime_error("matrix market: empty stream");
  // The banner's first five words, lower-cased; later words are ignored.
  const std::string head = util::to_lower(std::string(*first_line));
  std::string words[5];
  std::size_t k = 0;
  for (std::string& word : words) {
    while (k < head.size() && is_space(head[k])) ++k;
    const std::size_t start = k;
    while (k < head.size() && !is_space(head[k])) ++k;
    word = head.substr(start, k - start);
  }
  const std::string& banner = words[0];
  const std::string& object = words[1];
  const std::string& format = words[2];
  const std::string& field = words[3];
  const std::string& symmetry = words[4];
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
  // read the size line: three integers and nothing else.
  std::optional<std::string_view> line;
  do {
    line = next_line(text, pos);
    if (!line) throw std::runtime_error("matrix market: missing size line");
  } while (blank(*line) || (*line)[0] == '%');
  Scanner size_line(*line);
  std::int64_t rows = 0, cols = 0, entries = 0;
  if (!size_line.read_int(rows) || !size_line.read_int(cols) || !size_line.read_int(entries) ||
      !size_line.at_end())
    throw std::runtime_error("matrix market: malformed size line");
  if (rows != cols) throw std::runtime_error("matrix market: matrix is not square");
  if (rows <= 0 || rows > (std::int64_t{1} << 30))
    throw std::runtime_error("matrix market: dimension out of range");
  if (entries < 0) throw std::runtime_error("matrix market: negative entry count");

  // The body is a token stream: an entry may span lines. The size line is
  // a claim, not a fact: reserve at most what the remaining bytes could
  // hold (an entry and its separator take at least four), so a huge count
  // over a truncated body fails as truncated instead of allocating first.
  const std::string_view body = text.substr(std::min(pos, text.size()));
  std::vector<std::pair<Index, Index>> coo;
  coo.reserve(static_cast<std::size_t>(
      std::min(entries, static_cast<std::int64_t>(body.size() / 4 + 1))));
  Scanner in(body);
  for (std::int64_t e = 0; e < entries; ++e) {
    std::int64_t i = 0, j = 0;
    if (!in.read_int(i) || !in.read_int(j))
      throw std::runtime_error("matrix market: truncated entry list at entry " + std::to_string(e));
    for (int v = 0; v < values_per_entry; ++v)
      if (!in.read_real()) throw std::runtime_error("matrix market: missing value");
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
  if (!in.at_end())
    throw std::runtime_error("matrix market: more entries than the size line declares");
  // Declared-symmetric files expand their stored triangle; `general` files
  // are structurally symmetrized (i,j) | (j,i) — the explicit policy for
  // feeding unsymmetric patterns into the symmetric multifrontal pipeline.
  return SymPattern::from_entries(static_cast<Index>(rows), std::move(coo));
}

SymPattern read_matrix_market(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();  // an empty stream leaves `buffer` empty; the parser reports it
  const std::string bytes = std::move(buffer).str();
  return read_matrix_market(std::string_view(bytes));
}

SymPattern load_matrix_market(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
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
