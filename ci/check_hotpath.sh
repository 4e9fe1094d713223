#!/usr/bin/env bash
# Hot-path regression gate: compare a fresh `bench/main.exe micro --json`
# report against the committed baseline (BENCH_hotpath.json).
#
#   usage: check_hotpath.sh BASELINE.json NEW.json [NEW2.json ...]
#
# Gates, per micro/* kernel present in the baseline:
#   - ns_per_op        : best (minimum) across the NEW reports must be
#                        <= 1.15 x baseline — >15% wall-clock regression
#                        fails. Pass two fresh runs to absorb machine
#                        noise; the minimum is the machine's real speed.
#   - minor_words_per_op: every NEW report must be within 0.5 words of
#                        the baseline, in either direction. Allocation
#                        counts are deterministic, so ANY regression
#                        fails, and so does any saving: a pin left above
#                        the code's real count would let that kernel
#                        regress back up to it unnoticed. The 0.5 slack
#                        only covers amortised-growth rounding.
# And for the whole-run scenario:
#   - events-wall      : best events_per_wall_s must be >= baseline / 1.15.
# A micro/* scenario in a NEW report with no baseline entry fails too:
# a kernel added without a baseline would otherwise go ungated.
#
# Updating the baseline (after an intentional hot-path change): run
#   dune build && ./_build/default/bench/main.exe micro --json BENCH_hotpath.json
# three times on a quiet machine, keep the report whose ns/op numbers
# are the SLOWEST of the three (the noise envelope — it is what fresh
# best-of-N runs are compared against), eyeball them against the
# previous baseline, and commit the new file together with the change
# that shifted it — the diff of minor_words_per_op is the review
# artifact. A change that only moves allocation re-pins only the
# minor_words_per_op fields it moved and leaves the ns/op fields alone. The minor-word counts are deterministic and must be
# identical across the three runs; if they differ, the kernel under
# measurement is not allocation-stable and needs fixing first.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 BASELINE.json NEW.json [NEW2.json ...]" >&2
  exit 2
fi

baseline=$1
shift

fail=0

unbaselined=$(jq -rn --slurpfile base "$baseline" '
  ($base[0].scenarios | map(.name)) as $known
  | [inputs | .scenarios[].name | select(startswith("micro/"))] | unique
  | map(select(. as $n | $known | index($n) | not)) | .[]' "$@")
for k in $unbaselined; do
  echo "FAIL $k: kernel has no baseline entry in $baseline" >&2
  fail=1
done

kernels=$(jq -r '.scenarios[] | select(.summary.ns_per_op != null) | .name' "$baseline")
for k in $kernels; do
  b_ns=$(jq -r --arg n "$k" '.scenarios[] | select(.name == $n) | .summary.ns_per_op' "$baseline")
  b_w=$(jq -r --arg n "$k" '.scenarios[] | select(.name == $n) | .summary.minor_words_per_op' "$baseline")
  n_ns=$(jq -rs --arg n "$k" '[.[].scenarios[] | select(.name == $n) | .summary.ns_per_op] | min' "$@")
  n_w=$(jq -rs --arg n "$k" '[.[].scenarios[] | select(.name == $n) | .summary.minor_words_per_op] | max' "$@")
  n_wmin=$(jq -rs --arg n "$k" '[.[].scenarios[] | select(.name == $n) | .summary.minor_words_per_op] | min' "$@")
  if [ "$n_ns" = "null" ] || [ "$n_w" = "null" ]; then
    echo "FAIL $k: kernel missing from new report" >&2
    fail=1
    continue
  fi
  ok=1
  if ! jq -ne --argjson new "$n_ns" --argjson base "$b_ns" '$new <= 1.15 * $base' >/dev/null; then
    echo "FAIL $k: ns/op $n_ns > 1.15 x baseline $b_ns" >&2
    fail=1
    ok=0
  fi
  if ! jq -ne --argjson new "$n_w" --argjson base "$b_w" '$new <= $base + 0.5' >/dev/null; then
    echo "FAIL $k: minor-words/op $n_w regressed past baseline $b_w" >&2
    fail=1
    ok=0
  fi
  if ! jq -ne --argjson new "$n_wmin" --argjson base "$b_w" '$new >= $base - 0.5' >/dev/null; then
    echo "FAIL $k: minor-words/op $n_wmin fell below baseline $b_w: re-pin its minor_words_per_op in $baseline" >&2
    fail=1
    ok=0
  fi
  if [ "$ok" = 1 ]; then
    printf 'ok   %-24s %10s ns/op (baseline %s)  %8s w/op (baseline %s)\n' \
      "$k" "$n_ns" "$b_ns" "$n_w" "$b_w"
  fi
done

b_ev=$(jq -r '.scenarios[] | select(.name == "micro/events-wall") | .summary.events_per_wall_s' "$baseline")
if [ -n "$b_ev" ] && [ "$b_ev" != "null" ]; then
  n_ev=$(jq -rs '[.[].scenarios[] | select(.name == "micro/events-wall") | .summary.events_per_wall_s] | max' "$@")
  if [ "$n_ev" = "null" ]; then
    echo "FAIL events-wall: scenario missing from new report" >&2
    fail=1
  elif ! jq -ne --argjson new "$n_ev" --argjson base "$b_ev" '$new >= $base / 1.15' >/dev/null; then
    echo "FAIL events-wall: $n_ev events/wall-s < baseline $b_ev / 1.15" >&2
    fail=1
  else
    printf 'ok   %-24s %10s events/wall-s (baseline %s)\n' "micro/events-wall" "$n_ev" "$b_ev"
  fi
fi

exit $fail
