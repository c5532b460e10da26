#!/bin/sh
# Non-test line counts of the product crates: every .rs file under
# crates/*/src, counted up to its first `#[cfg(test)]` at column 0 (the
# test module; an indented one marks a test-only item and counts), per
# crate and in total, then the largest files. Run from the repository root.
set -eu
for f in $(find crates/*/src -name '*.rs' | sort); do
  awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, FILENAME }' "$f"
done | awk '
  { split($2, p, "/"); crate[p[2]] += $1; total += $1; file[$2] = $1 }
  END {
    for (c in crate) printf "%7d  %s\n", crate[c], c | "sort -rn"
    close("sort -rn")
    printf "%7d  total\n", total
    print "largest files:"
    for (f in file) printf "%7d  %s\n", file[f], f | "sort -rn | head -8"
  }'
