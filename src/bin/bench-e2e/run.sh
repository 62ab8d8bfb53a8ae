#!/usr/bin/env bash
# Build the daemon (overlap-cli) and the benchmark in release mode into one
# target directory, then run the benchmark with the given arguments.
#
#   bash src/bin/bench-e2e/run.sh [--workload NAME] [--seed S] [--seconds T] ...
#
# Both binaries land side by side, which is where the benchmark looks for
# overlap-cli. CARGO_TARGET_DIR is honoured; it defaults to the repository's
# target/ directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --locked --quiet \
    --manifest-path "$root/Cargo.toml" --bin overlap-cli >&2
cargo build --release --offline --locked --quiet \
    --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/bench-e2e" "$@"
