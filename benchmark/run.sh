#!/usr/bin/env bash
# Builds the ledger offline, then runs it; arguments go to wrf-ledger.
#
#   benchmark/run.sh                       whole ledger (all workloads, untraced then traced)
#   benchmark/run.sh --smoke               plumbing check of the same, well under a minute
#   benchmark/run.sh --workload sbm_dense --seed 3 --seconds 12 --trace 0
#   benchmark/run.sh --compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A build directory of the benchmark's own (the driver names one; the
# default sits beside the package and is gitignored), so building never
# touches the root workspace's target/ or Cargo.lock.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$(dirname "$here")/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/wrf-ledger" --out "$here/out" "$@"
