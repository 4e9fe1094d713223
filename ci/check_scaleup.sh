#!/usr/bin/env bash
# Scale-up regression gate: compare a fresh `bench/main.exe scale-up
# --json` report against the committed baseline (BENCH_scaleup.json).
#
#   usage: check_scaleup.sh BASELINE.json NEW.json [NEW2.json ...]
#
# Gates, from the aggregate "scale-up" scenario of the NEW reports:
#   - determinism_ok   : must be 1 in every new report — the bench's
#                        own two-run same-seed digest gate passed.
#   - clients          : must stay >= 100000 (the 10^5-client floor).
#   - pop_speedup      : best across NEW must be >= 1.2 — the
#                        aggregate population model must beat the
#                        fiber-per-client build by a clear margin.
# And from the baseline's one scale-up/clients-* scenario:
#   - completed        : within 10% of baseline (virtual-time results
#                        are load-bearing; wall-clock ones are not).
#
# Updating the baseline (after an intentional engine/model change): run
#   dune build && ./_build/default/bench/main.exe scale-up --json BENCH_scaleup.json
# on a quiet machine, eyeball the summary diff against the previous
# baseline (completed/throughput/p99 are deterministic per seed; only
# wall-clock fields move between machines), and commit it with the
# change that shifted it.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 BASELINE.json NEW.json [NEW2.json ...]" >&2
  exit 2
fi

baseline=$1
shift

fail=0

det=$(jq -rs '[.[].scenarios[] | select(.name == "scale-up") | .summary.determinism_ok] | min' "$@")
if [ "$det" != "1" ]; then
  echo "FAIL determinism_ok: expected 1 in every report, got $det" >&2
  fail=1
else
  echo "ok   determinism_ok          1 (same-seed two-run digest)"
fi

clients=$(jq -rs '[.[].scenarios[] | select(.name == "scale-up") | .summary.clients] | min' "$@")
if ! jq -ne --argjson c "$clients" '$c >= 100000' >/dev/null; then
  echo "FAIL clients: $clients < 100000" >&2
  fail=1
else
  echo "ok   clients                 $clients"
fi

speedup=$(jq -rs '[.[].scenarios[] | select(.name == "scale-up") | .summary.pop_speedup] | max' "$@")
if ! jq -ne --argjson s "$speedup" '$s >= 1.2' >/dev/null; then
  echo "FAIL pop_speedup: $speedup < 1.2 over fiber-per-client" >&2
  fail=1
else
  echo "ok   pop_speedup             ${speedup}x over fiber-per-client"
fi

s=$(jq -r '.scenarios[] | select(.name | startswith("scale-up/clients-")) | .name' "$baseline")
b_done=$(jq -r --arg n "$s" '.scenarios[] | select(.name == $n) | .summary.completed' "$baseline")
n_done=$(jq -rs --arg n "$s" '[.[].scenarios[] | select(.name == $n) | .summary.completed] | min' "$@")
if [ -z "$s" ] || [ "$n_done" = "null" ]; then
  echo "FAIL ${s:-scale-up/clients-*}: scenario missing from baseline or new report" >&2
  fail=1
elif ! jq -ne --argjson new "$n_done" --argjson base "$b_done" \
    '$new >= $base * 0.9 and $new <= $base * 1.1' >/dev/null; then
  echo "FAIL $s: completed $n_done outside 10% of baseline $b_done" >&2
  fail=1
else
  printf 'ok   %-24s %8s completed (baseline %s)\n' "$s" "$n_done" "$b_done"
fi

exit $fail
