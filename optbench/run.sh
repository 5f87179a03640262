#!/usr/bin/env bash
# Build the daemons and the benchmark from this checkout, then run one
# workload:  optbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Cargo's output goes to stderr; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/serve ] || [ ! -d crates/store ]; then
    echo "optbench: $(pwd) is not a checkout of the repository" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p optimist-serve -p optimist-store --bins 1>&2
cargo build --release --quiet --offline --manifest-path optbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/optbench" "$@"
