#!/usr/bin/env bash
# Tier-1 gate: build, test, and lint the workspace's core crates.
# Run from the repository root: scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q

echo "== clippy (workspace, every target, vendored stand-ins excluded) =="
cargo clippy --workspace --all-targets \
  --exclude proptest --exclude rand --exclude serde \
  -- -D warnings

echo "== rustfmt (files formatted so far) =="
# A ratchet: most of the tree predates formatting, so only these files
# are checked. A file joins the list once it is formatted, and every new
# file joins it when it is added.
rustfmt --check --edition 2021 \
  crates/assistant/src/strategy.rs \
  crates/engine/src/constraint.rs \
  crates/engine/src/incr.rs \
  crates/engine/src/par.rs \
  crates/engine/src/plan.rs \
  crates/engine/src/plan/schedule.rs \
  crates/engine/src/probe.rs \
  crates/engine/src/similarity.rs \
  crates/features/tests/prop_features.rs \
  tests/tests/probe_overlay.rs \
  tests/tests/probe_join.rs

echo "== rustdoc (workspace, private items included) =="
# Broken and public-to-private intra-doc links are errors, so a doc
# comment naming a deleted item fails here, in every crate.
# --document-private-items extends the check to crate-private modules
# (the engine's plan, incr, probe, ...).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
  --exclude proptest --exclude rand --exclude serde --document-private-items

echo "== service smoke =="
# A scripted client transcript through the multi-session server:
# create / ask / answer / get-results, an admission-cap rejection, and
# a graceful drain; asserts inside the binary check every response. The
# same session script then runs over two concurrent TCP connections to
# serve_tcp on 127.0.0.1:0; the binary prints the median round trip and
# fails when it is not under 5 ms (a reply split over two segments costs
# ~44 ms to the client's delayed ACK).
./target/release/service --smoke

echo "== chaos matrices =="
# Engine fault sites x {panic, too-large} x always-fire: one armed victim
# and concurrent clean siblings per scenario; asserts the process
# survives, siblings stay byte-identical to a solo baseline, and nothing
# degraded crosses the shared caches. The full matrix widens to
# deadline/io faults and nth/per-mille triggers, plus the service-site
# scenarios (spawn, decode, write in memory and over TCP beside a
# sibling connection, cache-share, admission storm). Deterministic per
# seed; about a second together.
./target/release/service --chaos --seed 7
./target/release/service --chaos --seed 1729 --full

echo "== trace smoke =="
# One tiny traced session end to end: dump the journal as JSONL, replay
# it, validate span nesting, and render the run report.
./target/release/exp_trace --smoke target/BENCH_trace_smoke.jsonl

echo "tier-1 OK"
