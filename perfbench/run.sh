#!/usr/bin/env bash
# Builds the benchmark and runs one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# `--trace 0` runs the untraced binary (end-to-end metrics); `--trace 1`
# runs the traced one (per-layer ledger, counting allocator). Run it from
# the repository root; build output goes to stderr, so the last line of
# stdout is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --quiet --manifest-path perfbench/Cargo.toml --bins >&2
bin=perfbench
prev=
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" != "0" ]]; then
        bin=perfbench-traced
    fi
    prev=$arg
done
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/$bin" "$@"
