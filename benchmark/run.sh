#!/usr/bin/env bash
# Builds `subqd` and the benchmark from source, then runs the benchmark.
#
#   bash benchmark/run.sh                         all workloads, untraced + traced
#   bash benchmark/run.sh --workload read_hot --seed 3 --seconds 20 --trace 0
#
# Results land in benchmark/out/ (result.json, trace.json). Build
# products go to $CARGO_TARGET_DIR when it is set, else to target/ and
# benchmark/target/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f crates/server/Cargo.toml ]; then
    echo "benchmark/run.sh: the repository's crates are not here; nothing to measure" >&2
    exit 3
fi

absolute() {
    case "$1" in
        /*) printf '%s\n' "$1" ;;
        *) printf '%s\n' "$root/$1" ;;
    esac
}
server_target="$(absolute "${CARGO_TARGET_DIR:-target}")"
bench_target="$(absolute "${CARGO_TARGET_DIR:-benchmark/target}")"

CARGO_TARGET_DIR="$server_target" \
    cargo build --release --offline --quiet -p subq-server --bin subqd
CARGO_TARGET_DIR="$bench_target" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

exec "$bench_target/release/subq-benchmark" \
    --subqd "$server_target/release/subqd" --out benchmark/out "$@"
