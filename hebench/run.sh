#!/usr/bin/env bash
# Build the benchmark from source and run one workload.  From the root of
# a repository checkout:
#
#   bash hebench/run.sh --workload echo_fanin --seed 1 --seconds 10 --trace 0
#
# Build output goes to .bench_build/ (dune's shared cache is disabled, so
# nothing is written outside the checkout); traced runs write their Chrome
# trace to .hebench_out/.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f hebench/dune ]; then
  echo "hebench: run from the root of a repository checkout" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build ./hebench/main.exe 1>&2
exec ./.bench_build/default/hebench/main.exe "$@"
