#!/usr/bin/env bash
# The full offline CI gate: formatting, lints, build, tier-1 tests, and
# (unless skipped) the exploration smokes plus the perf-regression bench
# gate.
#
# Everything runs with `--offline` — the workspace has no crates.io
# dependencies, so a cold container with only the Rust toolchain must be
# able to run this end to end.
#
# Usage: scripts/ci.sh [--skip-smokes]
#   --skip-smokes  stop after the tier-1 tests; used by the Actions gate
#                  job, which runs the benchmark package, the smokes and
#                  the bench gate as their own jobs so each runs exactly
#                  once per workflow (locally, plain `scripts/ci.sh`
#                  runs it all)
set -euo pipefail
cd "$(dirname "$0")/.."

skip_smokes=0
for arg in "$@"; do
  case "$arg" in
    --skip-smokes) skip_smokes=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
# --workspace so the bench bins (used below) are built too; the plain
# root-package build is what the tier-1 gate itself uses.
cargo build --offline --release --workspace

echo "==> cargo test (tier-1)"
cargo test --offline --release --workspace -q

if [[ "$skip_smokes" -eq 1 ]]; then
  echo "CI gate passed (smokes skipped)."
  exit 0
fi

echo "==> benchmark package: build + unit tests"
# benchmark/ is a package of its own outside the workspace, so the
# workspace build above never compiles it. It builds in its own target
# dir, benchmark/target.
cargo build --offline --locked --release --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml -q

echo "==> parallel exploration determinism + cache smoke"
./target/release/parallel_speedup 32 4

echo "==> differential fuzzing smoke (IF presets must die)"
scripts/kill_smoke.sh fuzz

echo "==> firmware-in-the-loop smoke (stuck_enable_1 must die)"
scripts/kill_smoke.sh firmware

echo "==> cross-level equivalence smoke (stuck_enable_1 must die to X3)"
scripts/kill_smoke.sh cross

echo "==> COW fork-engine differential smoke"
scripts/cow_smoke.sh

echo "==> state-merging / path-scheduling differential smoke"
scripts/merge_smoke.sh

echo "==> campaign orchestrator smoke (kill at checkpoint + resume)"
scripts/campaign_smoke.sh

echo "==> bench gate (ablation harnesses + baseline comparison)"
# Runs the ablation harnesses and the full firmware and cross-level kill
# matrices at the committed baselines' scales plus the TLM kill-matrix
# smoke (scripts/kill_smoke.sh tlm), and compares all counters against
# BENCH_*.json. Each harness also enforces its own
# internal invariants (byte-identical reports, kill-rate floor, >=25%
# incremental core reduction), so this subsumes the old per-harness
# smoke steps.
scripts/bench_gate.sh

echo "CI gate passed."
