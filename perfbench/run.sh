#!/usr/bin/env bash
# Build the benchmark (and the birds-serve binary it drives) from source,
# then run it. Arguments pass through, e.g.
#   bash perfbench/run.sh --workload serve_mixed --seed 1 --seconds 20 --trace 0
# Run from the repository root; builds into $CARGO_TARGET_DIR when set,
# else perfbench/target.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml --bins >&2
exec "$target/release/perfbench" "$@"
