#!/usr/bin/env bash
# Product-code line count, per crate and total: for every
# crates/*/src/**/*.rs, the lines before the first column-0
# `#[cfg(test)]` that are neither blank nor comment-only (`//`, which
# covers `///` and `//!`). The figure ROADMAP item 3 ("one path per
# concept") is judged by — tests, benches and docs do not count. A last
# `options N` line counts the settable options: the `pub` fields of
# ClusterConfig, DaemonConfig, RetryConfig, ReplicationConfig and
# DbOptions.
# Usage: scripts/loc.sh [--files] [--against <rev>] [repo-root]   (default: this checkout)
#   --files          also print one line per source file, under its crate
#   --against <rev>  print `before → after (Δ)` per crate (and per file
#                    with --files), where before is <rev>'s tree, taken
#                    with `git archive <rev> crates` into a temp dir
set -euo pipefail
files=0
against=
while [ $# -gt 0 ]; do
  case "$1" in
    --files) files=1; shift ;;
    --against) against=${2:?--against needs a revision}; shift 2 ;;
    *) break ;;
  esac
done
cd "${1:-$(dirname "$0")/..}"

# count <root>: one "<name> <count>" line per crate under <root>/crates
# (each followed, with --files, by its "  <path> <count>" lines), then
# the total.
count() (
  cd "$1"
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
    echo "$(basename "$crate") $n"
    if [ "$files" = 1 ]; then
      awk '{ print "  " $2, $1 }' <<<"$counts"
    fi
    total=$((total + n))
  done
  echo "total $total"
)

# options <root>: the number of `pub` fields of the option structs
# under <root>/crates.
options() (
  cd "$1"
  find crates -path '*/src/*.rs' -exec cat {} + | awk '
    /^pub struct (ClusterConfig|DaemonConfig|RetryConfig|ReplicationConfig|DbOptions) \{/ { inside = 1; next }
    inside && /^\}/ { inside = 0 }
    inside && /^    pub [a-z_0-9]+:/ { n++ }
    END { print n + 0 }'
)

if [ -z "$against" ]; then
  count . | awk '/^  / { printf "  %-40s %6d\n", $1, $2; next } { printf "%-12s %6d\n", $1, $2 }'
  printf "%-12s %6d\n" options "$(options .)"
  exit
fi

before=$(mktemp -d)
trap 'rm -rf "$before"' EXIT
git archive "$against" crates | tar -x -C "$before"
# Rows in this checkout's order; a file only <rev> has closes its
# crate's block, a crate only <rev> has comes before the total, and
# one only this checkout has counts from 0.
awk -v rev="$against" '
  function row(key, b, a,    w) {
    w = (key ~ /^  /) ? 42 : 12
    printf "%-" w "s %6d → %6d (%+d)\n", key, b, a, a - b
    seen[key] = 1
  }
  # The rows of `crate` that only <rev> has.
  function gone(crate,    i) {
    for (i = 1; i <= n; i++)
      if (owner[i] == crate && !(order[i] in seen)) row(order[i], was[order[i]], 0)
  }
  { file = ($0 ~ /^  /); key = file ? "  " $1 : $1 }
  !file { crate = $1 }
  FNR == NR { was[key] = $2; order[++n] = key; owner[n] = crate; next }
  !file { gone(last); last = crate }
  key == "total" { for (i = 1; i <= n; i++) if (owner[i] != "total") gone(owner[i]) }
  { row(key, was[key], $2) }' <(count "$before") <(count .)
b=$(options "$before") a=$(options .)
printf "%-12s %6d → %6d (%+d)\n" options "$b" "$a" $((a - b))
echo "(before = $against)"
