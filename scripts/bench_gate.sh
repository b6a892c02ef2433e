#!/usr/bin/env bash
# The perf-regression gate: regenerates the bench-harness emissions at
# the committed baselines' scales and compares them (with the tolerance
# policy in crates/bench/src/gate.rs) against the BENCH_*.json files at
# the repo root. Exits nonzero if any harness fails its own internal
# checks or any counter regressed past tolerance.
#
# Everything runs offline; the release binaries are built if missing.
#
# Usage: scripts/bench_gate.sh [--skip-mutation] [--skip-campaign]
#   --skip-mutation  don't rerun the TLM kill-matrix smoke
#                    (scripts/kill_smoke.sh tlm; used by the Actions
#                    smoke matrix, where the mutation arm runs and gates
#                    that emission itself)
#   --skip-campaign  don't rerun the campaign orchestrator bench (used
#                    by the Actions smoke matrix, where the campaign arm
#                    runs and gates that emission itself)
set -euo pipefail
cd "$(dirname "$0")/.."

skip_mutation=0
skip_campaign=0
for arg in "$@"; do
  case "$arg" in
    --skip-mutation) skip_mutation=1 ;;
    --skip-campaign) skip_campaign=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cargo build --offline --release -p symsc-bench \
  --bin solver_stack --bin incremental_speedup --bin mutation_kill \
  --bin fuzz_diff --bin cow_fork --bin path_merge --bin bench_gate
cargo build --offline --release -p symsc-campaign --bin campaign_bench

out=target/bench_gate
mkdir -p "$out"

# Scales must match the committed baselines: both ablation harnesses are
# recorded at sources=32, the TLM kill matrix at its --smoke matrix.
echo "==> solver-stack ablation (sources=32)"
./target/release/solver_stack 32 --emit "$out/solver_stack.json"

echo "==> incremental-core ablation (sources=32)"
./target/release/incremental_speedup 32 --emit "$out/incremental_solve.json"

echo "==> fuzz-vs-symbolic coverage diff + seed exchange"
./target/release/fuzz_diff --emit "$out/fuzz_diff.json"

echo "==> COW fork-engine ablation (sources=8/16/32, workers=1/2/8)"
./target/release/cow_fork --emit "$out/cow_fork.json"

echo "==> path-merging ablation (full FE310, 51 sources + 2-HART variant)"
./target/release/path_merge --emit "$out/path_merge.json"

echo "==> firmware-in-the-loop kill matrix (F1-F5, all 33 mutants)"
./target/release/mutation_kill --suite firmware --emit "$out/firmware_kill.json"

echo "==> cross-level equivalence matrix (X1-X3, all 33 mutants, both directions)"
./target/release/mutation_kill --suite cross --workers 2 --emit "$out/cross_check.json"

pairs=(
  BENCH_solver_stack.json "$out/solver_stack.json"
  BENCH_incremental_solve.json "$out/incremental_solve.json"
  BENCH_fuzz_diff.json "$out/fuzz_diff.json"
  BENCH_cow_fork.json "$out/cow_fork.json"
  BENCH_path_merge.json "$out/path_merge.json"
  BENCH_firmware_kill.json "$out/firmware_kill.json"
  BENCH_cross_check.json "$out/cross_check.json"
)

if [[ "$skip_mutation" -eq 0 ]]; then
  echo "==> TLM kill-matrix smoke (runs and gates its own emission)"
  scripts/kill_smoke.sh tlm
fi

if [[ "$skip_campaign" -eq 0 ]]; then
  echo "==> campaign orchestrator bench (1/2/8 workers + kill/resume)"
  ./target/release/campaign_bench --emit "$out/campaign.json"
  pairs+=(BENCH_campaign.json "$out/campaign.json")
fi

echo "==> comparing against committed baselines"
./target/release/bench_gate "${pairs[@]}"

echo "Bench gate passed."
