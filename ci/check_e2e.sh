#!/usr/bin/env bash
# Whole-run allocation gate: compare each benchmark workload's end-to-end
# driver line against the committed baseline (BENCH_e2e.json).
#
#   usage: check_e2e.sh record OUT.json       run every workload once, write OUT
#          check_e2e.sh BASELINE.json NEW.json
#
# `record` runs, for each workload named in BENCHMARK.json,
#   bash benchmark/run.sh --workload W --seed 1 --seconds 2 --trace 0
# and keeps the last line of its stdout (the driver line: one JSON object
# with the end-to-end metrics) under .workloads[W].
#
# Gates, per workload in the baseline:
#   - correct            : must be true.
#   - alloc_words_per_op : must be <= baseline + 0.5. Whole-run minor
#                          words repeat exactly for a given seed and
#                          compiler, so any real regression fails; the
#                          0.5 slack only absorbs float rounding.
#   - virtual metrics    : throughput_ops_s, latency_p50_us,
#                          latency_p999_us, success_share, commit_share
#                          and completion_wait_ms must equal the
#                          baseline exactly. They are pure functions of
#                          (workload, seed, seconds), so any move is a
#                          behaviour change.
# A workload in NEW with no baseline entry fails too.
#
# Updating the baseline (after an intentional change of allocation or
# behaviour): run `ci/check_e2e.sh record BENCH_e2e.json` and commit the
# file with the change that moved it; its diff is the review artifact.
set -euo pipefail

virtual_metrics="throughput_ops_s latency_p50_us latency_p999_us success_share commit_share completion_wait_ms"

if [ "${1:-}" = "record" ]; then
  if [ $# -ne 2 ]; then
    echo "usage: $0 record OUT.json" >&2
    exit 2
  fi
  args="--seed 1 --seconds 2 --trace 0"
  root="$(dirname "$0")/.."
  for w in $(jq -r '.workloads[].name' "$root/BENCHMARK.json"); do
    # shellcheck disable=SC2086
    bash "$root/benchmark/run.sh" --workload "$w" $args | tail -n 1 | jq -c --arg w "$w" '{($w): .}'
  done |
    jq -s --arg cmd "bash benchmark/run.sh --workload W $args" \
      '{command: $cmd, workloads: add}' >"$2"
  exit 0
fi

if [ $# -ne 2 ]; then
  echo "usage: $0 BASELINE.json NEW.json | $0 record OUT.json" >&2
  exit 2
fi

baseline=$1
new=$2
fail=0

# metric FILE WORKLOAD NAME: one end-to-end metric's value.
metric() { jq --arg w "$2" --arg m "$3" '.workloads[$w].metrics[$m].value' "$1"; }

for w in $(jq -r '.workloads | keys[]' "$new"); do
  if [ "$(jq --arg w "$w" '.workloads | has($w)' "$baseline")" != "true" ]; then
    echo "FAIL $w: workload has no baseline entry in $baseline" >&2
    fail=1
  fi
done

for w in $(jq -r '.workloads | keys[]' "$baseline"); do
  if [ "$(jq --arg w "$w" '.workloads | has($w)' "$new")" != "true" ]; then
    echo "FAIL $w: workload missing from new report" >&2
    fail=1
    continue
  fi
  ok=1
  if [ "$(jq --arg w "$w" '.workloads[$w].correct' "$new")" != "true" ]; then
    echo "FAIL $w: the run reported a correctness violation" >&2
    fail=1
    ok=0
  fi
  b_w=$(metric "$baseline" "$w" alloc_words_per_op)
  n_w=$(metric "$new" "$w" alloc_words_per_op)
  if ! jq -ne --argjson new "$n_w" --argjson base "$b_w" '$new != null and $new <= $base + 0.5' >/dev/null; then
    echo "FAIL $w: alloc_words_per_op $n_w regressed past baseline $b_w" >&2
    fail=1
    ok=0
  fi
  for m in $virtual_metrics; do
    b=$(metric "$baseline" "$w" "$m")
    n=$(metric "$new" "$w" "$m")
    if ! jq -ne --argjson new "$n" --argjson base "$b" '$new == $base' >/dev/null; then
      echo "FAIL $w: virtual metric $m moved: $n, baseline $b" >&2
      fail=1
      ok=0
    fi
  done
  if [ "$ok" = 1 ]; then
    printf 'ok   %-12s %12s words/op (baseline %s), virtual metrics identical\n' "$w" "$n_w" "$b_w"
  fi
done

exit $fail
