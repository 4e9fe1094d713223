#!/usr/bin/env bash
# Optional-argument gate: count the `?name:` optional arguments declared
# in the interfaces of the simulator and protocol libraries and compare
# the count with the pin below.
#
#   usage: check_options.sh [ROOT]     ROOT defaults to the repo root
#
# Counted: every `?name:` in ROOT/lib/{sim,corfu,core,harness,workloads,
# baselines}/*.mli. An option whose default every caller takes is a
# constant in disguise; the pin keeps new ones visible in review.
#
# The gate is two-sided, like the hot-path words gate: a count above the
# pin fails, and so does one below it, so the change that removes an
# option re-pins the count and a later one cannot quietly add it back.
#
# Updating the pin: set `pinned` to the count this script prints and
# say in the change why the interface grew or shrank.
set -euo pipefail

pinned=60

root=${1:-"$(dirname "$0")/.."}
dirs="sim corfu core harness workloads baselines"

files=()
for d in $dirs; do
  if [ ! -d "$root/lib/$d" ]; then
    echo "FAIL $root/lib/$d: no such directory" >&2
    exit 2
  fi
  for f in "$root/lib/$d"/*.mli; do
    [ -e "$f" ] && files+=("$f")
  done
done

count=$(cat "${files[@]}" | grep -o "?[a-z_][A-Za-z0-9_']*:" | wc -l)
count=$((count + 0))

if [ "$count" -ne "$pinned" ]; then
  echo "FAIL optional arguments: $count counted in lib/{${dirs// /,}}/*.mli, $pinned pinned" >&2
  exit 1
fi
echo "ok optional arguments: $count (pinned $pinned)"
