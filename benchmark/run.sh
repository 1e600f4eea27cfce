#!/usr/bin/env bash
# The one command of the Helix benchmark: builds `helix-benchmark` from
# source (offline, release) and runs it.
#
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--trace [0|1]] [--smoke] [--aa]
#
# With --workload it runs that workload in one process and prints, as its
# last line, the JSON object BENCHMARK.json's contract asks for; without,
# it runs all four workloads (each in its own process), prints every
# metric by name and unit and writes benchmark/out/result.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

rustc_version="$(rustc -V 2>/dev/null || echo unknown)"
# Never look above the checkout for a repository.
git_rev="$(GIT_CEILING_DIRECTORIES="$(dirname "$repo")" git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo unknown)"

exec "$target/release/helix-benchmark" \
    --bench-dir "$here" --rustc "$rustc_version" --git-rev "$git_rev" "$@"
