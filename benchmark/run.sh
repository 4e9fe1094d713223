#!/usr/bin/env bash
# Builds tango_bench from source (release profile, into .bench_build at
# the repo root) and runs it with the given arguments. See README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --build-dir .bench_build --profile release --cache=disabled ./benchmark/tango_bench.exe >&2
exec ./.bench_build/default/benchmark/tango_bench.exe "$@"
