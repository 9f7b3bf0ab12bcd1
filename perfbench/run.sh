#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it,
# passing every argument through. Run it from the repository root:
#
#	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the run's data directories all
# live under $CARGO_TARGET_DIR (default .bench_build), inside the
# checkout. Outside a full checkout (no repository module at ..) the
# build fails and so does this script.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -data "$out/data" "$@"
