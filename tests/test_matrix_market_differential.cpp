// Differential suite for the Matrix Market reader and the pattern builds.
//
// sparse::read_matrix_market parses a byte buffer with std::from_chars;
// SymPattern::from_entries and permuted build rows by counting. The oracles
// (tests/oracles/matrix_market_reference) are the std::istream reader and
// the sort-based builds they replaced. On every input here both sides must
// accept with identical rows, or both reject with the same message. The
// one intended difference, a size line with trailing tokens, is pinned in
// SizeLineTrailingTokensIsTheOneIntendedChange.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/sparse/csc.hpp"
#include "src/sparse/generators.hpp"
#include "src/sparse/matrix_market.hpp"
#include "src/util/rng.hpp"
#include "tests/oracles/matrix_market_reference.hpp"

namespace ooctree {
namespace {

using sparse::Index;
using sparse::SymPattern;
using sparse::oracle::ReferencePattern;

ReferencePattern rows_of(const SymPattern& p) {
  ReferencePattern r;
  r.n = p.size();
  r.ptr.push_back(0);
  for (Index j = 0; j < p.size(); ++j) {
    const auto nb = p.neighbors(j);
    r.row.insert(r.row.end(), nb.begin(), nb.end());
    r.ptr.push_back(static_cast<std::int64_t>(r.row.size()));
  }
  return r;
}

void expect_same_rows(const ReferencePattern& got, const ReferencePattern& want,
                      const std::string& label) {
  ASSERT_EQ(got.n, want.n) << label;
  ASSERT_EQ(got.ptr, want.ptr) << label;
  ASSERT_EQ(got.row, want.row) << label;
}

/// The rows a reader returns, or the message it throws.
struct Outcome {
  std::string error;
  ReferencePattern rows;
};

Outcome read_new(const std::string& text) {
  Outcome o;
  try {
    o.rows = rows_of(sparse::read_matrix_market(std::string_view(text)));
  } catch (const std::runtime_error& e) {
    o.error = e.what();
  }
  return o;
}

Outcome read_oracle(const std::string& text) {
  Outcome o;
  std::istringstream in(text);
  try {
    o.rows = sparse::oracle::read_matrix_market_reference(in);
  } catch (const std::runtime_error& e) {
    o.error = e.what();
  }
  return o;
}

/// Both readers agree on `text`; returns true when it was accepted.
bool expect_same_outcome(const std::string& text, const std::string& label) {
  const Outcome got = read_new(text);
  const Outcome want = read_oracle(text);
  EXPECT_EQ(got.error, want.error) << label << "\n" << text;
  if (got.error.empty() && want.error.empty()) expect_same_rows(got.rows, want.rows, label);
  // The stream overload parses the same buffer.
  std::istringstream in(text);
  try {
    const ReferencePattern via_stream = rows_of(sparse::read_matrix_market(in));
    expect_same_rows(via_stream, got.rows, label + " (stream)");
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), got.error) << label << " (stream)";
  }
  return want.error.empty();
}

std::string written(const SymPattern& p) {
  std::ostringstream out;
  sparse::write_matrix_market(out, p);
  return out.str();
}

TEST(MatrixMarketDifferential, MtxOrderFamilies) {
  util::Rng rng(7);
  const SymPattern patterns[] = {sparse::grid2d(28, 56), sparse::grid2d(56, 56),
                                 sparse::grid2d_9pt(20, 40), sparse::grid2d_9pt(40, 40),
                                 sparse::grid3d(8, 12, 10), sparse::grid3d(12, 12, 12),
                                 sparse::random_symmetric(400, 4.0, rng),
                                 sparse::random_symmetric(1200, 4.0, rng)};
  for (const SymPattern& p : patterns) {
    const std::string label = "n=" + std::to_string(p.size());
    EXPECT_TRUE(expect_same_outcome(written(p), label)) << label;
    expect_same_rows(read_new(written(p)).rows, rows_of(p), label + " round trip");
  }
}

TEST(MatrixMarketDifferential, EveryFieldAndSymmetry) {
  const std::pair<std::string, std::string> fields[] = {
      {"pattern", ""},        {"real", " 2.5"},  {"double", " -1e-3"},
      {"integer", " 7"},      {"complex", " 1.0 -2.0"}, {"banana", " 3"},
      {"Real", " 4"}};
  const char* symmetries[] = {"general", "symmetric", "skew-symmetric", "hermitian", "Symmetric",
                              "sideways"};
  int accepted = 0;
  for (const auto& [field, value] : fields) {
    for (const char* symmetry : symmetries) {
      const std::string banner =
          "%%MatrixMarket matrix coordinate " + field + " " + symmetry + "\n";
      const std::string label = field + " " + symmetry;
      accepted += expect_same_outcome(banner + "4 4 3\n2 1" + value + "\n4 2" + value + "\n4 3" +
                                          value + "\n",
                                      label + " lower")
                      ? 1
                      : 0;
      expect_same_outcome(banner + "3 3 2\n1 2" + value + "\n3 1" + value + "\n", label + " upper");
      expect_same_outcome(banner + "3 3 2\n2 2" + value + "\n3 1" + value + "\n",
                          label + " diagonal");
      expect_same_outcome(banner + "3 3 2\n2 1" + value + "\n1 2" + value + "\n",
                          label + " both orientations");
    }
  }
  EXPECT_GT(accepted, 10);  // the grid exercises acceptance, not only errors
}

TEST(MatrixMarketDifferential, EdgeCases) {
  const std::string sym = "%%MatrixMarket matrix coordinate pattern symmetric\n";
  const std::string real = "%%MatrixMarket matrix coordinate real symmetric\n";
  const std::string cplx = "%%MatrixMarket matrix coordinate complex general\n";
  const std::vector<std::pair<std::string, std::string>> corpus = {
      // Accepted by the stream reader.
      {"plus sign", sym + "+3 3 +2\n+2 +1\n3 +1\n"},
      {"plus-signed value", real + "3 3 1\n2 1 +4.5\n"},
      {"crlf", "%%MatrixMarket matrix coordinate real symmetric\r\n% c\r\n3 3 2\r\n2 1 1.5\r\n"
               "3 2 -2\r\n"},
      {"entry split over two lines", real + "3 3 2\n2\n1 4.5\n3 2\n\n-1\n"},
      {"no final newline", sym + "3 3 2\n2 1\n3 2"},
      {"no final newline after the size line", sym + "3 3 0"},
      {"blank and comment lines before the size line", sym + "\n% one\n \t\n%two\n3 3 1\n3 1\n"},
      {"tabs", sym + "3\t3\t1\n\t3\t1\t\n"},
      {"leading zeros and -0 value", real + "003 3 1\n02 01 -0\n"},
      {"value forms", cplx + "2 2 4\n1 1 1. .5\n2 1 -.5 1e3\n1 2 1E-3 +2.5e+2\n2 2 0 0\n"},
      {"underflowing value", real + "3 3 1\n2 1 1e-400\n"},
      {"subnormal value", real + "3 3 1\n2 1 4.9e-324\n"},
      {"banner case and extra words", "%%MATRIXMARKET Matrix Coordinate Pattern SYMMETRIC x y\n"
                                      "2 2 1\n2 1\n"},
      {"trailing blank lines", sym + "3 3 1\n2 1\n\n  \t\n"},
      {"entries glued by a sign", real + "3 3 2\n2 1 4.5+3 2 1\n"},
      {"one vertex", sym + "1 1 0\n"},
      {"duplicate entries", sym + "3 3 3\n2 1\n2 1\n3 3\n"},
      // Rejected by the stream reader.
      {"nan value", real + "3 3 1\n2 1 nan\n"},
      {"NaN value", real + "3 3 1\n2 1 NaN\n"},
      {"inf value", real + "3 3 1\n2 1 inf\n"},
      {"-inf value", real + "3 3 1\n2 1 -inf\n"},
      {"infinity value", real + "3 3 1\n2 1 +infinity\n"},
      {"hex value", real + "3 3 1\n2 1 0x1p3\n"},
      {"hex value, last", real + "3 3 2\n2 1 0x10\n3 1 1\n"},
      {"hex index", sym + "3 3 1\n0x2 1\n"},
      {"index like 2.0", sym + "3 3 1\n2.0 1\n"},
      {"index like 2.", sym + "3 3 1\n2 1.\n"},
      {"int64 overflow index", sym + "3 3 1\n99999999999999999999 1\n"},
      {"int64 overflow size", sym + "3 3 99999999999999999999\n2 1\n"},
      {"overflowing value", real + "3 3 1\n2 1 1e400\n"},
      {"exponent without digits", real + "3 3 2\n2 1 1e\n3 1 1\n"},
      {"double sign", sym + "3 3 1\n+-2 1\n"},
      {"lone sign", sym + "3 3 1\n2 - 1\n"},
      {"lone point", real + "3 3 1\n2 1 .\n"},
      {"truncated", sym + "3 3 2\n2 1\n"},
      {"truncated mid-entry", sym + "3 3 2\n2 1\n3\n"},
      {"missing value", real + "3 3 1\n2 1\n"},
      {"overlong", sym + "3 3 1\n2 1\n3 2\n"},
      {"garbage after the body", sym + "3 3 1\n2 1 x\n"},
      {"out of range row", sym + "3 3 1\n4 1\n"},
      {"out of range column", sym + "3 3 1\n2 0\n"},
      {"negative index", sym + "3 3 1\n-2 1\n"},
      {"upper triangle", sym + "3 3 1\n1 3\n"},
      {"skew diagonal", "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 1\n2 2 1\n"},
      {"hermitian real", "%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n2 1 1\n"},
      {"rectangular", sym + "3 4 1\n2 1\n"},
      {"zero dimension", sym + "0 0 0\n"},
      {"huge dimension", sym + "2147483648 2147483648 0\n"},
      {"negative entry count", sym + "4 4 -3\n2 1\n"},
      {"huge count over a short body", sym + "4 4 1099511627776\n2 1\n"},
      {"short size line", sym + "3 3\n"},
      {"size line like 3.0", sym + "3.0 3 1\n2 1\n"},
      {"indented comment is a size line", sym + " % not a comment\n3 3 0\n"},
      {"missing size line", sym + "% only a comment\n"},
      {"missing size line, no newline", "%%MatrixMarket matrix coordinate pattern symmetric"},
      {"empty", ""},
      {"newline only", "\n"},
      {"bad banner", "%%NotMM matrix coordinate real general\n1 1 0\n"},
      {"array format", "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"},
      {"short banner", "%%MatrixMarket matrix coordinate\n1 1 0\n"},
  };
  int accepted = 0;
  for (const auto& [label, text] : corpus) accepted += expect_same_outcome(text, label) ? 1 : 0;
  EXPECT_EQ(accepted, 17);  // every case up to "duplicate entries" parses
}

TEST(MatrixMarketDifferential, SizeLineTrailingTokensIsTheOneIntendedChange) {
  // The stream reader stopped after the third integer and dropped the
  // rest; the buffer reader rejects anything but whitespace after it.
  const std::string sym = "%%MatrixMarket matrix coordinate pattern symmetric\n";
  for (const std::string size_line : {"3 3 2 7", "3 3 2x", "3 3 2.5", "3 3 2 % note"}) {
    const std::string text = sym + size_line + "\n2 1\n3 2\n";
    EXPECT_TRUE(read_oracle(text).error.empty()) << size_line;
    EXPECT_EQ(read_new(text).error, "matrix market: malformed size line") << size_line;
  }
  EXPECT_TRUE(read_new(sym + "3 3 2 \t\r\n2 1\n3 2\n").error.empty());
}

TEST(PatternBuildDifferential, RandomEntryLists) {
  util::Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<Index>(trial < 20 ? 1 + trial % 3 : rng.uniform_int(1, 300));
    const auto count = static_cast<std::size_t>(rng.uniform_int(0, 4 * n + 10));
    std::vector<std::pair<Index, Index>> entries;
    for (std::size_t k = 0; k < count; ++k) {
      // A fifth of the entries repeat an earlier one in either orientation;
      // a quarter of the rest sit on or next to the diagonal.
      if (!entries.empty() && rng.uniform_int(0, 4) == 0) {
        const auto [a, b] = entries[rng.index(entries.size())];
        entries.emplace_back(rng.bernoulli(0.5) ? std::pair(a, b) : std::pair(b, a));
        continue;
      }
      const auto i = static_cast<Index>(rng.uniform_int(0, n - 1));
      const Index near = std::min<Index>(i + static_cast<Index>(rng.uniform_int(0, 1)), n - 1);
      entries.emplace_back(i, rng.bernoulli(0.25) ? near
                                                  : static_cast<Index>(rng.uniform_int(0, n - 1)));
    }
    const std::string label = "trial " + std::to_string(trial) + " n=" + std::to_string(n);
    const SymPattern p = SymPattern::from_entries(n, entries);
    expect_same_rows(rows_of(p), sparse::oracle::from_entries_reference(n, entries), label);

    std::vector<Index> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng.engine());
    expect_same_rows(rows_of(p.permuted(perm)), sparse::oracle::permuted_reference(p, perm),
                     label + " permuted");
  }
}

TEST(PatternBuildDifferential, GeneratorsPermuted) {
  util::Rng rng(5);
  const SymPattern patterns[] = {sparse::grid2d(30, 17), sparse::grid2d_9pt(21, 21),
                                 sparse::grid3d(7, 8, 9), sparse::random_symmetric(900, 6.0, rng)};
  for (const SymPattern& p : patterns) {
    std::vector<Index> perm(static_cast<std::size_t>(p.size()));
    std::iota(perm.rbegin(), perm.rend(), 0);  // reversed
    expect_same_rows(rows_of(p.permuted(perm)), sparse::oracle::permuted_reference(p, perm),
                     "n=" + std::to_string(p.size()));
  }
}

TEST(PatternBuildDifferential, InvalidInputThrowsLikeTheOracle) {
  EXPECT_THROW((void)SymPattern::from_entries(0, {}), std::invalid_argument);
  EXPECT_THROW((void)sparse::oracle::from_entries_reference(0, {}), std::invalid_argument);
  for (const auto& bad : {std::pair<Index, Index>{3, 0}, {0, -1}, {-1, -1}}) {
    EXPECT_THROW((void)SymPattern::from_entries(3, {{1, 0}, bad}), std::invalid_argument);
    EXPECT_THROW((void)sparse::oracle::from_entries_reference(3, {{1, 0}, bad}),
                 std::invalid_argument);
  }
  const SymPattern p = sparse::grid2d(2, 2);
  const std::vector<std::vector<Index>> bad_perms = {{0, 1, 2}, {0, 1, 1, 2}, {0, 1, 2, 4}};
  for (const std::vector<Index>& bad : bad_perms) {
    EXPECT_THROW((void)p.permuted(bad), std::invalid_argument);
    EXPECT_THROW((void)sparse::oracle::permuted_reference(p, bad), std::invalid_argument);
  }
}

}  // namespace
}  // namespace ooctree
