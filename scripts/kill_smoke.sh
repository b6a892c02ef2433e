#!/usr/bin/env bash
# The kill-matrix smoke for one suite: the reduced kill matrix of the
# register-level TLM suite (tlm), the firmware drivers (firmware), the
# cross-level equivalence suite (cross) or the differential fuzzer
# (fuzz). The harness itself fails unless the suite's own checks hold:
#   tlm       every IF1-IF6 preset dies, >= 4 generated mutants die and
#             the kill rate stays >= 80% (--floor 80)
#   firmware  stuck_enable_1 (a survivor of the TLM-only matrix) dies
#             to F5's racy driver
#   cross     the fixed TLM and cycle-level models are solver-proven
#             equivalent, stuck_enable_1 dies to X3's symbolic enable
#             word, and the reduced matrix renders byte-identically
#             across 1/2/8 workers x fork strategies x exploration orders
#             and with the solver cache layers off
#   fuzz      every IF1-IF6 preset dies to fuzzing alone (--floor 100)
#
# On top of the harness's own checks, the smoke runs the whole emission
# at 1, 2 and 8 workers and byte-compares the JSON (minus the wall-clock
# line); the 8-worker emission is then gated against the suite's
# committed BENCH_*_smoke.json baseline. A symbolic matrix runs
# --workers cells at a time, so this checks that running cells side by
# side changes nothing; 2 is the core count of the benchmark host.
#
# Everything runs offline; the release binaries are built if missing.
#
# Usage: scripts/kill_smoke.sh <tlm|firmware|cross|fuzz> [--skip-gate]
#   --skip-gate  only run the harness, don't compare against the
#                committed baseline (used when the baseline is being
#                regenerated)
set -euo pipefail
cd "$(dirname "$0")/.."

suite="${1:-}"
if [[ $# -gt 0 ]]; then
  shift
fi
skip_gate=0
for arg in "$@"; do
  case "$arg" in
    --skip-gate) skip_gate=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# The harness command line and the baseline name of each suite.
case "$suite" in
  tlm) harness=(mutation_kill --smoke --floor 80); name=mutation ;;
  firmware) harness=(mutation_kill --suite firmware --smoke); name=firmware ;;
  cross) harness=(mutation_kill --suite cross --smoke); name=cross ;;
  fuzz) harness=(fuzz_kill --smoke --floor 100); name=fuzz ;;
  *)
    echo "usage: scripts/kill_smoke.sh <tlm|firmware|cross|fuzz> [--skip-gate]" >&2
    exit 2
    ;;
esac
bin="./target/release/${harness[0]}"

cargo build --offline --release -p symsc-bench --bin "${harness[0]}" --bin bench_gate

out=target/bench_gate
mkdir -p "$out"
emission="$out/${name}_smoke.json"

echo "==> $suite smoke matrix, workers=1"
"$bin" "${harness[@]:1}" --workers 1 --emit "$out/${name}_smoke_w1.json"

echo "==> $suite smoke matrix again, workers=2"
"$bin" "${harness[@]:1}" --workers 2 --emit "$out/${name}_smoke_w2.json"

echo "==> $suite smoke matrix again, workers=8"
"$bin" "${harness[@]:1}" --workers 8 --emit "$emission"

echo "==> worker-count byte-identity of the emission"
for other in "$out/${name}_smoke_w2.json" "$emission"; do
  if ! diff <(grep -v '"seconds"' "$out/${name}_smoke_w1.json") \
            <(grep -v '"seconds"' "$other"); then
    echo "MISMATCH: $suite emission $other differs from the 1-worker one" >&2
    exit 1
  fi
done

if [[ "$skip_gate" -eq 0 ]]; then
  echo "==> comparing against the committed baseline"
  ./target/release/bench_gate "BENCH_${name}_smoke.json" "$emission"
fi

echo "Kill smoke ($suite) passed."
