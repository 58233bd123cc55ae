#!/usr/bin/env bash
# Elastic-membership matrix: seeded churn scenarios through
# sketchml_train, asserting the reconfiguration + checkpoint protocol
# holds up end to end:
#
#   * the churn-off control prints no membership summary at all;
#   * a seeded join/leave schedule replays bit-identically across
#     --threads (only the measured sim-seconds column may differ);
#   * permanent departures shrink the fleet and re-partition the server
#     shards (reconfigs >= 1 with non-zero handoff bytes);
#   * the below-quorum crash scenario fails without checkpoints and
#     completes with rollbacks once --membership-checkpoint-every is on;
#   * an unreachable quorum/scale-down combination is rejected up front
#     with an actionable error.
#
# Every cell is seeded, so the schedule replays identically on every
# machine.
#
# Usage: scripts/run_churn_matrix.sh [TRAIN_BIN]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
train_bin="${1:-$repo_root/build/tools/sketchml_train}"

if [[ ! -x "$train_bin" ]]; then
  echo "error: $train_bin not built" >&2
  exit 2
fi

base_flags=(--dataset=synthetic --model=lr --codec=sketchml
  --epochs=2 --workers=4 --seed=1)

# field <summary-line> <field-name> -> value
field() {
  sed -n "s/.*$2=\([0-9]*\).*/\1/p" <<<"$1"
}

failures=0
expect_nonzero() {
  local label="$1" value="$2"
  [[ -n "$value" && "$value" -gt 0 ]] ||
    { echo "FAIL [$label]: expected nonzero, got '${value:-}'" >&2; failures=1; }
}

echo "== churn off (control) =="
control="$("$train_bin" "${base_flags[@]}" --threads=2 2>&1)"
if grep -q '^membership:' <<<"$control"; then
  echo "FAIL [off]: membership summary printed without an active plan" >&2
  failures=1
fi

echo "== join/leave churn: replay determinism across --threads =="
churn_flags=(--membership-seed=7 --membership-join=0.05
  --membership-leave=0.05 --membership-min-workers=2)
# --obs=off: under SKETCHML_OBS=trace the run also prints measured
# latency and timing lines (codec/*_ns, threadpool/task_*_ns,
# trainer/*_latency_seconds) that no two runs share; pinning obs off keeps
# every remaining line comparable exactly.
replay_flags=(--obs=off "${churn_flags[@]}")
serial="$("$train_bin" "${base_flags[@]}" --threads=1 "${replay_flags[@]}" 2>&1)"
threaded="$("$train_bin" "${base_flags[@]}" --threads=3 "${replay_flags[@]}" 2>&1)"
# Column 2 of the epoch table is measured sim-seconds and the dataset
# banner names the thread count; every other field (bytes, losses, and
# the membership summary) must replay exactly.
strip_times() { grep -v '^dataset=' <<<"$1" | awk '{$2=""; print}'; }
if ! diff <(strip_times "$serial") <(strip_times "$threaded") >/dev/null; then
  echo "FAIL [replay]: --threads=1 and --threads=3 runs diverged" >&2
  diff <(strip_times "$serial") <(strip_times "$threaded") >&2 || true
  failures=1
fi
summary="$(grep '^membership:' <<<"$serial")"
echo "$summary"
expect_nonzero "replay: churn events" \
  "$(( $(field "$summary" joins) + $(field "$summary" leaves) ))"

echo "== departures: shard re-partitioning =="
summary="$("$train_bin" "${base_flags[@]}" --threads=2 --epochs=4 \
  --servers=4 --membership-seed=1 --membership-depart=0.03 \
  --membership-min-workers=1 2>&1 | grep '^membership:')"
echo "$summary"
expect_nonzero "departs" "$(field "$summary" departs)"
expect_nonzero "reconfigs" "$(field "$summary" reconfigs)"
expect_nonzero "handoff_bytes" "$(field "$summary" handoff_bytes)"

echo "== below-quorum crash: terminal without checkpoints =="
crash_flags=(--epochs=5 --threads=1 --fault-seed=1 --fault-crash=0.06
  --min-quorum=3)
if out="$("$train_bin" "${base_flags[@]}" --epochs=5 --threads=1 \
    --fault-seed=1 --fault-crash=0.06 --min-quorum=3 2>&1)"; then
  echo "FAIL [terminal]: run completed without checkpoints" >&2
  failures=1
elif ! grep -qi 'unavailable' <<<"$out"; then
  echo "FAIL [terminal]: failure was not a quorum Unavailable" >&2
  echo "$out" >&2
  failures=1
fi

echo "== below-quorum crash: rollback-and-retry with checkpoints =="
if ! out="$("$train_bin" "${base_flags[@]}" "${crash_flags[@]}" \
    --membership-checkpoint-every=1 --membership-max-rollbacks=5 2>&1)"; then
  echo "FAIL [rollback]: checkpointed run did not complete" >&2
  echo "$out" >&2
  failures=1
else
  summary="$(grep '^membership:' <<<"$out")"
  echo "$summary"
  expect_nonzero "rollbacks" "$(field "$summary" rollbacks)"
fi

echo "== validation: quorum unreachable after scale-down is rejected =="
if out="$("$train_bin" "${base_flags[@]}" --membership-depart=0.1 \
    --membership-min-workers=1 --min-quorum=3 2>&1)"; then
  echo "FAIL [validate]: unreachable quorum config was accepted" >&2
  failures=1
elif ! grep -q 'can never be met' <<<"$out"; then
  echo "FAIL [validate]: missing the scale-down quorum diagnostic" >&2
  echo "$out" >&2
  failures=1
fi

if [[ "$failures" -ne 0 ]]; then
  echo "churn matrix: FAIL" >&2
  exit 1
fi
echo "churn matrix: PASS"
