#!/usr/bin/env bash
# Pre-merge gate (see ROADMAP.md): formatting, build, full test suite, lint-clean,
# and a deterministic fault-injected shadow-checker run. Every step must
# pass before a change lands.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt (check: the workspace is rustfmt-clean)"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (workspace)"
cargo test -q --workspace

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> benchmark package: build and test (its own workspace, so --workspace skips it)"
cargo test --release --offline --locked --manifest-path simbench/Cargo.toml

echo "==> benchmark run: every workload's cells checked against their committed fingerprints"
cargo run --release --quiet --offline --locked --manifest-path simbench/Cargo.toml -- \
  --workload all --seconds 1

echo "==> microbenches in --test mode (every bench body runs once, pass/fail)"
cargo bench -p seesaw-bench --benches -- --test

echo "==> fault-injected checker run (fixed seed, all fault kinds)"
cargo test --release -q --test checker

echo "==> 2-core fault-injected checker smoke (fixed seed, shared page table)"
cargo test --release -q --test checker two_core

echo "==> multi-threaded smoke (4 workers): fig15 driver + checker-enabled plan"
SEESAW_THREADS=4 ./target/release/fig15 60000
SEESAW_THREADS=4 cargo test --release -q --test runner

echo "==> traced smoke: fault-injected run, tracing on, JSONL through the validator"
./target/release/trace_smoke emit | ./target/release/trace_smoke validate

echo "==> 2-core traced smoke: real directory coherence, per-core reconciliation"
./target/release/trace_smoke emit --cores 2 | ./target/release/trace_smoke validate

echo "==> repro smoke: record a seeded violation, shrink it, replay the minimal bundle"
repro_dir="$(mktemp -d)"
trap 'rm -rf "$repro_dir"' EXIT
./target/release/repro record --out "$repro_dir/bundle.json"
./target/release/repro shrink "$repro_dir/bundle.json" --out "$repro_dir/shrunk.json"
./target/release/repro replay "$repro_dir/shrunk.json"

echo "==> chaos smoke (4 workers): injected panic + hang isolated, survivors complete"
SEESAW_THREADS=4 ./target/release/chaos_smoke inject

echo "==> kill-and-resume smoke: SIGKILL mid-sweep, corrupt a record, resume bit-identical"
./target/release/chaos_smoke crash-resume

echo "==> status smoke (4 workers): live status.json during a sweep, Prometheus textfile validated"
status_dir="$(mktemp -d)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$repro_dir" "$status_dir" "$trace_dir"' EXIT
SEESAW_THREADS=4 SEESAW_STATUS="$status_dir" SEESAW_TRACE="$trace_dir" \
  ./target/release/fig15 60000
./target/release/seesaw-status "$status_dir" --assert-done
./target/release/seesaw-status --check-prom "$trace_dir/fig15.prom"

echo "==> designs smoke: every L1 design fingerprint-stable, all distinct, figure driver emits valid .prom"
./target/release/designs --smoke
SEESAW_TRACE="$trace_dir" ./target/release/designs 60000
./target/release/seesaw-status --check-prom "$trace_dir/designs.prom"

echo "==> fabric smoke (2 worker processes): distributed sweep over a shared store"
fabric_store="$(mktemp -d)"
trap 'rm -rf "$repro_dir" "$status_dir" "$trace_dir" "$fabric_store"' EXIT
SEESAW_STATUS="$status_dir" SEESAW_TRACE="$trace_dir" \
  ./target/release/seesaw-submit partitions 60000 --store "$fabric_store" --workers 2
./target/release/seesaw-status "$status_dir" --assert-done
./target/release/seesaw-status --check-prom "$trace_dir/submit-partitions.prom"
for worker_prom in "$trace_dir"/worker-*.prom; do
  ./target/release/seesaw-status --check-prom "$worker_prom"
done

echo "==> results/ current: the cheap drivers at 800k reproduce their committed output byte for byte"
for bin in table1 table2 table3 fig2b fig2c fig3 fig11 fig15 scheduler partitions ext_1gb \
           ext_icache multicore; do
  env -u SEESAW_STORE -u SEESAW_TRACE ./target/release/"$bin" 800000 | cmp - "results/$bin.txt"
done

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "OK: all checks passed."
