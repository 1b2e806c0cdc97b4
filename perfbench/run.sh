#!/usr/bin/env bash
# Build the benchmark and the libraries it drives from the source in
# this checkout, then run it with the given arguments:
#
#   bash perfbench/run.sh --workload pipeline|serve|sessions --seed N --seconds S --trace 0|1
#
# Build output goes to standard error, so the last line of standard
# output is the benchmark's JSON result.
set -euo pipefail
dune build --root . perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
