#!/usr/bin/env bash
# Net lines of Rust code, the count every CHANGES.md entry reports: the
# non-blank lines that are not `//` comments (doc comments included) of
# every `.rs` file under the given paths, recursively. A file stops
# counting at its test module: a column-0 `#[cfg(test)]` whose next
# non-blank line starts with `mod` (a test-only `impl` or `fn` still
# counts). Prints each file's count, then the total.
#
#   bash tools/loc.sh crates/core/src crates/server/src
set -euo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: tools/loc.sh PATH..." >&2
  exit 2
fi

find "$@" -type f -name '*.rs' | LC_ALL=C sort | xargs awk '
  function flush() { if (FILENAME_PREV != "") printf "%7d %s\n", n, FILENAME_PREV }
  FNR == 1 { flush(); FILENAME_PREV = FILENAME; n = 0; done = 0; held = 0 }
  done { next }
  /^[ \t]*$/ { next }
  held {
    held = 0
    if ($0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod /) { done = 1; next }
    n++; total++
  }
  $0 == "#[cfg(test)]" { held = 1; next }
  /^[ \t]*\/\// { next }
  { n++; total++ }
  END { flush(); printf "%7d total\n", total }
'
