#!/usr/bin/env bash
# Builds sbqad and the load generator from this checkout, then runs one
# benchmark invocation; arguments pass through (--workload, --seed,
# --seconds, --trace). Run from the repository root:
#
#   bash servebench/run.sh --workload edge-p200 --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
out=$out/servebench
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off
test -f "$root/go.mod" -a -d "$root/cmd/sbqad" || { echo "servebench: run from the repository root" >&2; exit 2; }
mkdir -p "$out/tmp"
go build -o "$out/sbqad" ./cmd/sbqad
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -sbqad "$out/sbqad" -workdir "$out/tmp" "$@"
