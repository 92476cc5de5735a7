#!/usr/bin/env bash
# Build the benchmark (release) and run it; every argument goes to the
# binary. See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- "$@"
