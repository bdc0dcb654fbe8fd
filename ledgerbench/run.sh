#!/usr/bin/env bash
# Builds the layer-ledger benchmark from the checkout it is run in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash ledgerbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary,
# stored digests and the daemon's data directories.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

(cd "$here" && go build -o "$out/bin/ledgerbench" .)
# Write back the freshly linked binary before anything is timed.
sync
exec "$out/bin/ledgerbench" -state "$out/state" "$@"
