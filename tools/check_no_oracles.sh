#!/bin/sh
# Fails when the library archive $1 defines a differential-test oracle
# (those belong to the ooctree_oracles target in tests/oracles/): any
# defined symbol in an ooctree::<ns>::oracle:: namespace, where every
# oracle lives, or named like one (*_reference, expand_rebuild).
# Exit 77, reported SKIPPED by ctest, when nm is unavailable.
command -v nm >/dev/null 2>&1 || { echo "nm not found: cannot inspect $1"; exit 77; }
symbols=$(nm -C "$1") || exit 1
found=$(printf '%s\n' "$symbols" | grep -v ' U ' |
  grep -E 'ooctree::([A-Za-z0-9_]+::)*(oracle::|[A-Za-z0-9_]*(_reference|expand_rebuild)\()')
[ -z "$found" ] || { printf '%s defines oracle symbols:\n%s\n' "$1" "$found"; exit 1; }
echo "$1 defines no oracle symbols"
