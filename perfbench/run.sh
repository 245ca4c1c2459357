#!/usr/bin/env bash
# Builds the server and the benchmark from source, then runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the repository.
set -euo pipefail
# Keep every build artefact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/rpq_cli.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
