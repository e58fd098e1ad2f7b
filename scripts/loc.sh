#!/usr/bin/env bash
# Non-test Rust line count of the workspace crates.
#
#   bash scripts/loc.sh            # total for the working tree
#   bash scripts/loc.sh REV        # total at git revision REV
#   bash scripts/loc.sh -v [REV]   # per-crate lines, then the total
#
# Counts non-blank lines of `.rs` files under `crates/`, leaving out
# `tests/` directories and `#[cfg(test)] mod` blocks: the attribute, the
# `mod name {` line and everything up to its closing brace. A file pulled
# in by `#[cfg(test)] mod name;` still counts: it is not a block. Braces
# are counted per character, so a brace inside a string or char literal
# of a test block can move where the block ends; the figure is for
# comparing revisions, not for exact accounting.
set -euo pipefail
cd "$(dirname "$0")/.."

verbose=0
if [[ "${1:-}" == "-v" ]]; then
  verbose=1
  shift
fi

tree=.
if [[ $# -gt 0 ]]; then
  tree="$(mktemp -d)"
  trap 'rm -rf "$tree"' EXIT
  git archive "$1" crates | tar -x -C "$tree"
fi

cd "$tree"
# shellcheck disable=SC2046 # file names under crates/ hold no spaces
awk -v verbose="$verbose" '
  function braces(s,   o, c) {
    o = gsub(/\{/, "{", s)
    c = gsub(/\}/, "}", s)
    return o - c
  }
  FNR == 1 { pending = 0; depth = 0 }
  depth > 0 { depth += braces($0); next }
  /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pending = 1; next }
  pending && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+[ \t]*\{/ {
    pending = 0
    depth = braces($0)
    next
  }
  pending { pending = 0; lines[FILENAME]++ }  # the attribute guarded an item
  /[^ \t]/ { lines[FILENAME]++ }
  END {
    for (f in lines) {
      split(f, part, "/")
      crate[part[2]] += lines[f]
      total += lines[f]
    }
    if (verbose) for (c in crate) printf "%-16s %7d\n", c, crate[c] | "sort"
    close("sort")
    print total
  }
' $(find crates -name '*.rs' -not -path '*/tests/*' | sort)
