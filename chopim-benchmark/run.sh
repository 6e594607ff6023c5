#!/usr/bin/env bash
# Build the benchmark and run one workload. From the repository root:
#
#   bash chopim-benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Both variants are built on every call (a no-op once built) so the
# first call pays for both: the plain build for `--trace 0` and the
# `perf-counters` build for `--trace 1`. They live in separate target
# directories under $CARGO_TARGET_DIR (default `.bench_build`) so
# alternating between them never rebuilds. Arguments pass through to
# the binary; see BENCHMARK.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"

variant=plain
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" && "${args[i + 1]:-0}" == "1" ]]; then
        variant=traced
    fi
done

CARGO_TARGET_DIR="$target/plain" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
CARGO_TARGET_DIR="$target/traced" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --features perf-counters >&2

exec "$target/$variant/release/chopim-benchmark" "$@"
