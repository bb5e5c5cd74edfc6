#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run one workload:
#   bash perfbench/run.sh --workload sweep|verify|serve --seed N --seconds S --trace 0|1
# Run from the root of a full checkout (it needs dune-project and lib/).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a full checkout (dune-project and lib/ are missing)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --profile release ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
