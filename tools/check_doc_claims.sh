#!/usr/bin/env bash
# Checks that every `[bench: <workload>/<metric>]` tag in README.md and
# docs/*.md names a workload that BENCHMARK.json declares and a metric
# that benchmark/README.md lists, and that every
# `[criterion: <group>/<row>]` tag names a group some
# crates/bench/benches/*.rs opens with a `benchmark_group("<group>")`
# literal, so a measured claim always points at something a benchmark can
# reproduce. CI runs this in the docs job; run it locally as
# `bash tools/check_doc_claims.sh`.
set -u

cd "$(dirname "$0")/.."
status=0
checked=0

# Workload names: the "name" fields inside BENCHMARK.json's "workloads"
# array.
workloads=$(awk '
  /"workloads"[[:space:]]*:/ { inside = 1; next }
  inside && /^[[:space:]]*\]/ { inside = 0 }
  inside && /"name"[[:space:]]*:/ {
    sub(/.*"name"[[:space:]]*:[[:space:]]*"/, ""); sub(/".*/, ""); print
  }' BENCHMARK.json)
if [ -z "$workloads" ]; then
  echo "check_doc_claims: no workloads found in BENCHMARK.json" >&2
  exit 1
fi

# Expands one `a.{b,c}_d` brace group per call, recursively.
expand() {
  if [[ $1 =~ ^(.*)\{([^}]*)\}(.*)$ ]]; then
    local pre=${BASH_REMATCH[1]} post=${BASH_REMATCH[3]} alt
    local -a alts
    IFS=, read -ra alts <<< "${BASH_REMATCH[2]}"
    for alt in "${alts[@]}"; do
      expand "$pre$alt$post"
    done
  else
    printf '%s\n' "$1"
  fi
}

# Metric names: every code span in benchmark/README.md, braces expanded.
metrics=$(grep -o '`[^`]*`' benchmark/README.md | tr -d '`' | while IFS= read -r span; do
  expand "$span"
done)

# Criterion groups: every `benchmark_group("…")` literal in the benches.
groups=$(grep -oh 'benchmark_group("[^"]*")' crates/bench/benches/*.rs |
  sed 's/^benchmark_group("//; s/")$//')
criterion=0

for file in README.md docs/*.md; do
  [ -f "$file" ] || continue
  while IFS= read -r tag; do
    [ -n "$tag" ] || continue
    checked=$((checked + 1))
    claim=${tag#\[bench: }
    claim=${claim%\]}
    workload=${claim%%/*}
    metric=${claim#*/}
    if ! grep -qxF -- "$workload" <<< "$workloads"; then
      echo "UNKNOWN WORKLOAD  $file: $tag" >&2
      status=1
    fi
    if [ "$metric" = "$claim" ] || ! grep -qxF -- "$metric" <<< "$metrics"; then
      echo "UNKNOWN METRIC    $file: $tag" >&2
      status=1
    fi
  done < <(grep -o '\[bench: [^]]*\]' "$file")
  while IFS= read -r tag; do
    [ -n "$tag" ] || continue
    criterion=$((criterion + 1))
    id=${tag#\[criterion: }
    id=${id%\]}
    group=${id%%/*}
    if [ "$group" = "$id" ] || ! grep -qxF -- "$group" <<< "$groups"; then
      echo "UNKNOWN GROUP     $file: $tag" >&2
      status=1
    fi
  done < <(grep -o '\[criterion: [^]]*\]' "$file")
done

if [ "$checked" -eq 0 ]; then
  echo "check_doc_claims: no [bench: ...] tags found — extraction broke?" >&2
  exit 1
fi
if [ "$status" -eq 0 ]; then
  echo "check_doc_claims: all $checked bench and $criterion criterion tags resolve"
fi
exit "$status"
