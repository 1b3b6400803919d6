#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory, which
# must be the repository root, and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload analyze --seed 7 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .perfbench/ in the
# repository: the Go build cache, the binary, scratch archives, traces.
set -euo pipefail

state="$(pwd)/.perfbench"
mkdir -p "$state"
export GOCACHE="$state/gocache" GOMODCACHE="$state/gomodcache" GOPATH="$state/gopath"
export XDG_CONFIG_HOME="$state/config" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$state/perfbench" .
exec "$state/perfbench" "$@"
