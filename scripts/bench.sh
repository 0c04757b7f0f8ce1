#!/usr/bin/env bash
# Benchmark driver: regenerates the parallel-execution report committed
# as BENCH_parallel.json and the live-telemetry overhead report
# committed as BENCH_telemetry.json, plus the Table 1 inventory as a
# sanity anchor.
# Run from the repository root:
#   scripts/bench.sh [parallel-report-path] [telemetry-report-path]
set -euo pipefail
cd "$(dirname "$0")/.."

REPORT="${1:-BENCH_parallel.json}"
TEL_REPORT="${2:-BENCH_telemetry.json}"

echo "== build (release) =="
cargo build --release -p iflex-bench

echo "== exp_table1 (inventory sanity) =="
./target/release/exp_table1

echo "== exp_scaling --parallel-report =="
# The morsel-executor report (DESIGN.md §13): serial vs threads over
# T1/T5/T8/Panel at corpus scale 1 plus T1/T5/T8 at scale 10, with
# morsel and steal counts per row. On a ≥4-core host the binary asserts
# the speedup gate: threads=4 ≥ serial on every non-Panel row; smaller
# hosts print a skip notice.
./target/release/exp_scaling --parallel-report "$REPORT"

echo "== exp_scaling --telemetry-report =="
# DESIGN.md §12: full-scale T1/T5 sessions with live telemetry off vs
# on, best-of-3 per arm. The binary asserts identical results and that
# T1's enabled arm stays under the 5% overhead budget.
./target/release/exp_scaling --telemetry-report "$TEL_REPORT"

echo "== trace overhead smoke =="
# Observability must be free when off: the same tiny workload with the
# tracer disabled (IFLEX_TRACE unset) is the number the <2% acceptance
# bound is judged against; the traced exp_trace smoke exercises the
# enabled path.
env -u IFLEX_TRACE ./target/release/exp_scaling --smoke target/BENCH_parallel_smoke.json
./target/release/exp_trace --smoke target/BENCH_trace_smoke.jsonl

echo "bench OK ($REPORT, $TEL_REPORT)"
