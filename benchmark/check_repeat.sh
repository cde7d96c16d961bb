#!/usr/bin/env bash
# Run N (default 2) full sets of the benchmark back to back and check that
# they agree: every end-to-end metric of every workload within its bound,
# every exact-count layer metric identical. Exits non-zero otherwise.
# Takes about four minutes per set. Usage: benchmark/check_repeat.sh [N]
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --repeat "${1:-2}"
