// Test oracles: the original std::istream Matrix Market reader and the
// sort-based pattern build.
//
// sparse::read_matrix_market parses a byte buffer with std::from_chars, and
// SymPattern::from_entries / permuted build rows by counting. They must
// accept and reject what these accept and reject (one deliberate change:
// the size line now refuses trailing tokens) and produce the same rows;
// tests/test_matrix_market_differential.cpp checks both. The oracles are
// linked by the tests and benches only, never by the shipped library.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "src/sparse/csc.hpp"

namespace ooctree::sparse::oracle {

/// A symmetric pattern as plain compressed rows: row j is
/// row[ptr[j], ptr[j + 1]), sorted, without the diagonal.
struct ReferencePattern {
  Index n = 0;
  std::vector<std::int64_t> ptr;
  std::vector<Index> row;
};

/// Symmetrizes, sorts and deduplicates 2 * entries pairs, dropping the
/// diagonal. Throws std::invalid_argument like SymPattern::from_entries.
[[nodiscard]] ReferencePattern from_entries_reference(
    Index n, std::vector<std::pair<Index, Index>> entries);

/// The pattern with vertex v = old vertex perm[v], through
/// from_entries_reference. Throws std::invalid_argument on a bad perm.
[[nodiscard]] ReferencePattern permuted_reference(const SymPattern& pattern,
                                                  const std::vector<Index>& perm);

/// Parses a Matrix Market coordinate stream with std::istream extraction.
/// Throws std::runtime_error on malformed input.
[[nodiscard]] ReferencePattern read_matrix_market_reference(std::istream& in);

}  // namespace ooctree::sparse::oracle
