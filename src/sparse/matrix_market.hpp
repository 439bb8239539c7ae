// Matrix Market (.mtx) I/O for symmetric patterns.
//
// The TREES dataset was built by the paper's authors from University of
// Florida collection matrices, which ship in this format. The reader
// accepts coordinate-format files (pattern / real / double / integer /
// complex; any other field is rejected) and honors the banner's symmetry
// field: symmetric / skew-symmetric / hermitian files must store the lower
// triangle (upper-triangle entries are rejected as malformed) and are
// expanded, `general` files are explicitly symmetrized structurally, and
// unknown symmetries are rejected. Blank lines before the size line are
// skipped per the format specification; the size line holds exactly three
// integers, and its entry count is exact, so a body holding fewer or more
// entries is rejected. The body is a whitespace-separated token stream read
// with std::from_chars under std::istream's number rules (a leading '+',
// an entry split over lines, no final newline; no nan, inf or hex values).
// The writer makes the synthetic generators exportable.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "src/sparse/csc.hpp"

namespace ooctree::sparse {

/// Parses the bytes of a Matrix Market coordinate file into a symmetric
/// pattern. Rectangular matrices are rejected. Throws std::runtime_error on
/// malformed input.
[[nodiscard]] SymPattern read_matrix_market(std::string_view text);

/// Reads the rest of `in` and parses it as above.
[[nodiscard]] SymPattern read_matrix_market(std::istream& in);

/// Reads a .mtx file; throws std::runtime_error on failure.
[[nodiscard]] SymPattern load_matrix_market(const std::string& path);

/// Writes the pattern as "%%MatrixMarket matrix coordinate pattern
/// symmetric" (lower triangle).
void write_matrix_market(std::ostream& out, const SymPattern& pattern);

/// Writes to a file; throws std::runtime_error on failure.
void save_matrix_market(const std::string& path, const SymPattern& pattern);

}  // namespace ooctree::sparse
