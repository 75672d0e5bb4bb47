#!/usr/bin/env bash
# Builds the `rtp` binary and the benchmark from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload fresh --seed 1 --seconds 8 --trace 0
#
# Build output goes to stderr; the benchmark's result is the last line
# of stdout. Both programs land in one target directory
# ($CARGO_TARGET_DIR, else ./target), where the benchmark finds `rtp`
# next to its own executable.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --target-dir "$target" -p rtp-cli --bin rtp >&2
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/rtp-e2e-bench" "$@"
