#!/usr/bin/env bash
# The one command of the benchmark.
#
#   benchmark/run.sh [--workload W] [--seed N] [--trace [0|1]] [--smoke]
#
# Builds the benchmark offline, then runs the named workload, or each of the
# five in turn, every one in a process of its own. Prints one line per metric
# as `workload metric value unit`, the sent / ok / failed / shed accounting of
# every phase, and last the result object; writes the stamped result under
# benchmark/out/ as <workload>.json (traced: <workload>-trace.json, spans
# included). Exits non-zero on any correctness failure. `--manifest` prints
# BENCHMARK.json. The driver also passes `--seconds <run_seconds>`, which
# states the length the benchmark runs for anyway.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/faasm-benchmark"

BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc -V)"
export BENCH_COMMIT BENCH_RUSTC

for arg in "$@"; do
    if [[ "$arg" == --workload || "$arg" == --manifest ]]; then
        exec "$bin" "$@"
    fi
done
status=0
for workload in ingress_null fvm_compute state_mix train_sgd coldstart_storm; do
    "$bin" --workload "$workload" "$@" || status=1
done
exit "$status"
