#!/usr/bin/env bash
# Product-code line count, per crate and total: for every
# crates/*/src/**/*.rs, the lines before the first column-0
# `#[cfg(test)]` that are neither blank nor comment-only (`//`, which
# covers `///` and `//!`). The figure ROADMAP item 3 ("one path per
# concept") is judged by — tests, benches and docs do not count.
# Usage: scripts/loc.sh [--files] [repo-root]   (default: this checkout)
#   --files  also print one line per source file, under its crate
set -euo pipefail
files=0
if [ "${1:-}" = "--files" ]; then
  files=1
  shift
fi
cd "${1:-$(dirname "$0")/..}"

total=0
for crate in crates/*/; do
  [ -d "${crate}src" ] || continue
  # One "<count> <path>" line per file, in path order.
  counts=$(find "${crate}src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    function flush() { if (file != "") print n + 0, file }
    FNR == 1 { flush(); file = FILENAME; n = 0; in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { n++ }
    END { flush() }')
  n=$(awk '{ s += $1 } END { print s + 0 }' <<<"$counts")
  printf '%-12s %6d\n' "$(basename "$crate")" "$n"
  if [ "$files" = 1 ]; then
    awk '{ printf "  %-40s %6d\n", $2, $1 }' <<<"$counts"
  fi
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
