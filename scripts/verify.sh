#!/usr/bin/env bash
# Tier-1 verification plus the lint gate. Run from the repository root.
#
#   ./scripts/verify.sh
#
# 1. release build + full test suite (the ROADMAP tier-1 bar),
# 2. clippy with warnings denied — including `unwrap_used`/`expect_used`
#    in the pipeline crates (see [workspace.lints] in Cargo.toml),
# 3. rustfmt drift check (the tree is formatted; keep it that way).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== lint gate: cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

echo "== format gate: cargo fmt --check =="
cargo fmt --check

echo "== engine: differential + golden-snapshot tests =="
cargo test --release -p lintra-engine -q
cargo test --release -p lintra-bench --test parallel_equivalence --test golden_tables -q

echo "== perfbench: load-generator and report self-tests =="
# perfbench is its own cargo package (empty [workspace]), so the
# workspace test run above never reaches it.
cargo test --release --offline --manifest-path perfbench/Cargo.toml -q

echo "== egraph: property + differential harness (release, hard timeout) =="
# The saturation search is budgeted, never unbounded — a hang here is a
# bug, so the harness runs under a hard wall-clock cap.
timeout --kill-after=10 900 cargo test --release -p lintra-egraph -q
timeout --kill-after=10 900 cargo test --release -p lintra \
  --test egraph_properties --test egraph_differential -q

echo "== bench trajectory: scripts/bench.sh --smoke =="
./scripts/bench.sh --smoke

echo "== perf gate: egraph_suite sequential wall-clock budget =="
# The smoke run just rewrote BENCH_2.json; the indexed match engine and
# memoized MCM pass keep the sequential e-graph suite around ~1 s, so a
# report over the 6 s budget is a hot-loop regression, not noise.
./target/release/bench_report --perf-gate BENCH_2.json --budget-s 6.0

echo "== simulation: fixed-seed swarm smoke =="
# 64 deterministic seeds of the replicated-cluster simulation; every
# event is virtual time, so the batch finishes in seconds. A failure
# prints the seed + fault trace and exits 5 (CNV-SIM-INVARIANT).
timeout --kill-after=10 30 ./target/release/lintra sim --seed 1 --swarm 64 \
  | tail -n 1

echo "== simulation: sharded-sim smoke =="
# The shard groups run the shipped replication core too; both outage
# shapes re-check it behind the router model.
for scenario in blackout primary-crash; do
  timeout --kill-after=10 30 ./target/release/lintra sim --shards 3 --seed 1 --swarm 16 \
    --scenario "$scenario" | tail -n 1
done

echo "== service: scripts/chaos.sh =="
./scripts/chaos.sh

echo "== durability: scripts/crash.sh =="
./scripts/crash.sh

echo "== replication: scripts/failover.sh =="
./scripts/failover.sh

echo "== sharding: scripts/router_chaos.sh =="
./scripts/router_chaos.sh

echo "verify: all checks passed"
