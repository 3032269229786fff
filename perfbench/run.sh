#!/usr/bin/env bash
# Builds the benchmark from the source in the current directory and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/main.go ]] || ! grep -qx 'module dsisim' go.mod; then
	echo "perfbench: run from the root of the dsisim module" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -buildvcs=false -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
