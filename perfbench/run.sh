#!/usr/bin/env bash
# Build the benchmark and the daemon it drives from this checkout, then run
# one workload. Usage, from the repository root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The benchmark is a dune project of its own in perfbench/_src (dune skips
# directories starting with "_", so the repository's build never sees it).
# It compiles the repository's lib/ and bin/ through two links made here.
set -eu
cd "$(dirname "$0")/.."
src=perfbench/_src
ln -sfn ../../lib "$src/lib"
ln -sfn ../../bin "$src/bin"
DUNE_CACHE=disabled dune build --root "$src" ./main.exe ./bin/ndp_run.exe 1>&2
exec "./$src/_build/default/main.exe" "$@"
