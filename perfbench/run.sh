#!/usr/bin/env bash
# Build the benchmark and the fatnet daemon from source, then run one
# workload.  Usage (from the repository root):
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/perfbench.exe ./bin/fatnet.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
