#!/usr/bin/env bash
# The campaign-orchestrator smoke: a short smoke campaign, killed at a
# mid-plan checkpoint and resumed, at 1/2/8 workers. The final
# report.json/report.txt of every kill+resume pair must be byte-identical
# to an uninterrupted single-worker reference run — the orchestrator's
# acceptance property (worker-count invariance and crash/resume
# invariance in one comparison). A resumed campaign that re-executes
# journaled jobs, loses store records, or lets scheduling leak into the
# report fails the cmp. The 2-worker pass also appends a torn record (a
# fragment without its newline) to store.log and journal.log before it
# resumes, as a kill mid-append leaves them, and `campaign status` must
# read every resumed directory.
#
# Everything runs offline; the release binary is built if missing.
#
# Usage: scripts/campaign_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --offline --release -p symsc-campaign --bin campaign

seed=51966  # 0xCAFE
out=target/campaign_smoke
rm -rf "$out"
mkdir -p "$out"

echo "==> uninterrupted reference campaign (1 worker, seed $seed)"
./target/release/campaign run --dir "$out/reference" --smoke --seed "$seed" \
  --workers 1 --jsonl | tee "$out/reference.jsonl"

total=$(sed -n 's/.*"event": "finished", "jobs": \([0-9]*\).*/\1/p' \
  "$out/reference.jsonl")
if [[ -z "$total" ]]; then
  echo "could not parse the job total from the reference run" >&2
  exit 1
fi
halt=$((total / 2))

for workers in 1 2 8; do
  dir="$out/resume_w$workers"
  echo "==> kill at checkpoint $halt/$total + resume (workers=$workers)"
  # Exit code 3 means "halted at the checkpoint" — anything else (0
  # included: the budget must actually bite) is a failure.
  rc=0
  ./target/release/campaign run --dir "$dir" --smoke --seed "$seed" \
    --workers "$workers" --halt-after "$halt" --jsonl > /dev/null || rc=$?
  if [[ "$rc" -ne 3 ]]; then
    echo "expected the halted campaign to exit 3, got $rc" >&2
    exit 1
  fi
  ./target/release/campaign status --dir "$dir"
  if [[ "$workers" -eq 2 ]]; then
    echo "    appending a torn record to store.log and journal.log"
    printf 'corpus fuzz/IF1 0a0' >> "$dir/store.log"
    printf 'done 1 0a' >> "$dir/journal.log"
    ./target/release/campaign status --dir "$dir"
  fi
  ./target/release/campaign resume --dir "$dir" --workers "$workers" \
    --jsonl > /dev/null
  ./target/release/campaign status --dir "$dir"
  cmp "$out/reference/report.json" "$dir/report.json"
  cmp "$out/reference/report.txt" "$dir/report.txt"
  echo "    byte-identical to the reference report"
done

echo "Campaign smoke passed."
