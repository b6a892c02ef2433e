#!/usr/bin/env bash
# The perf-regression gate: regenerates the bench-harness emissions at
# the committed baselines' scales and compares them (with the one
# comparator in crates/bench/src/gate.rs: checks must hold, counters
# match exactly, floors are met, wall-clock stays within head-room)
# against the BENCH_*.json files at the repo root. Exits nonzero if any
# harness fails its own internal checks or the gate finds a violation. This is the only place
# the ablation harness runs: its full table is a superset of every
# smaller ablation run.
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
  --bin ablation --bin mutation_kill --bin fuzz_diff --bin bench_gate
cargo build --offline --release -p symsc-campaign --bin campaign_bench

out=target/bench_gate
mkdir -p "$out"

echo "==> ablations: parallel, solver stack, incremental, COW (workers=1/2/8)"
./target/release/ablation --emit "$out/ablation.json"

echo "==> fuzz-vs-symbolic coverage diff + seed exchange"
./target/release/fuzz_diff --emit "$out/fuzz_diff.json"

echo "==> firmware-in-the-loop kill matrix (F1-F5, all 33 mutants)"
./target/release/mutation_kill --suite firmware --emit "$out/firmware_kill.json"

echo "==> cross-level equivalence matrix (X1-X3, all 33 mutants, both directions)"
./target/release/mutation_kill --suite cross --workers 2 --emit "$out/cross_check.json"

pairs=(
  BENCH_ablation.json "$out/ablation.json"
  BENCH_fuzz_diff.json "$out/fuzz_diff.json"
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
