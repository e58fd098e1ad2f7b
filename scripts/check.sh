#!/usr/bin/env bash
# Full local gate: formatting, lints, tier-1 build + tests.
#
#   bash scripts/check.sh
#
# Mirrors what CI would run; every step must pass before a PR merges.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> trust-lint (trust boundary / dataflow taint / determinism / journal discipline)"
mkdir -p target
cargo run --release --bin trust_lint -- --json > target/trust_lint_findings.json

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# The wall-clock benchmark is a workspace of its own that builds against
# these crates by path: build and unit-test it here, so an API change that
# breaks it fails locally rather than in the benchmark pipeline.
echo "==> perfbench: build + unit tests against the workspace crates"
cargo build --release --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
cargo test --release -q --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

# The benchmark checks its own outputs: one short run per workload must
# end with a JSON line reporting "correct": true and "failed": 0.
echo "==> perfbench smoke: every workload reports correct outputs"
mkdir -p target
for workload in signup_storm continuous_session lossy_durable; do
  out=target/perfbench_smoke.txt
  CARGO_TARGET_DIR=target/perfbench python3 perfbench/run.py \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 > "$out" \
    || { echo "perfbench $workload exited nonzero"; exit 1; }
  tail -n 1 "$out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' \
    || { echo "perfbench $workload reported wrong outputs:"; tail -n 1 "$out"; exit 1; }
done

# Runs a deterministic --json bench into $2 and fails fast on a nonzero
# exit status BEFORE any diff: a binary that panics mid-emit leaves a
# truncated JSON whose diff noise would bury the real failure.
run_bench_json() {
  local bin="$1" out="$2"
  if ! cargo run -q --release -p btd-bench --bin "$bin" -- --json > "$out"; then
    echo "$bin exited nonzero before emitting complete JSON; fix the bench, then re-run" >&2
    exit 1
  fi
}

echo "==> goodput matrix vs checked-in BENCH_goodput.json"
mkdir -p target
run_bench_json goodput_matrix target/goodput_matrix.json
diff -u BENCH_goodput.json target/goodput_matrix.json \
  || { echo "goodput drifted: re-bless BENCH_goodput.json if intended"; exit 1; }

echo "==> storage matrix vs checked-in BENCH_storage.json"
run_bench_json storage_matrix target/storage_matrix.json
diff -u BENCH_storage.json target/storage_matrix.json \
  || { echo "storage drifted: re-bless BENCH_storage.json if intended"; exit 1; }

echo "==> parallel matrix vs checked-in BENCH_parallel.json"
run_bench_json parallel_matrix target/parallel_matrix.json
diff -u BENCH_parallel.json target/parallel_matrix.json \
  || { echo "parallel drifted: re-bless BENCH_parallel.json if intended"; exit 1; }

echo "==> parallel matrix determinism gate (same seed, second run must be byte-identical)"
run_bench_json parallel_matrix target/parallel_matrix.run2.json
diff -u target/parallel_matrix.json target/parallel_matrix.run2.json \
  || { echo "parallel_matrix is nondeterministic across same-seed runs"; exit 1; }

echo "==> fleet_top smoke (telemetry invariance + reconciliation + SLO health)"
cargo run -q --release -p btd-bench --bin fleet_top -- 16 > target/fleet_top.txt \
  || { echo "fleet_top failed: telemetry contract or SLO health broke"; cat target/fleet_top.txt; exit 1; }

echo "All checks passed."
