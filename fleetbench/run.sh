#!/usr/bin/env bash
# Builds the tolerance-fleet CLI and the benchmark program from this checkout,
# then runs the benchmark. Run it from the repository root:
#
#   bash fleetbench/run.sh --workload emu-grid --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/fleetbench/run.sh" ]; then
	echo "fleetbench: run from the repository root" >&2
	exit 2
fi
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/tolerance-fleet" ]; then
	echo "fleetbench: no tolerance module in $root" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off CGO_ENABLED=0
go build -o "$out/tolerance-fleet" ./cmd/tolerance-fleet
(cd fleetbench && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" -bin "$out/tolerance-fleet" -work "$out/runs" "$@"
