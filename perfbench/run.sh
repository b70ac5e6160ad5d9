#!/usr/bin/env bash
# Builds the windar benchmark from this checkout's sources and runs one
# workload. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload flood --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL
# directories, per-run result files) stays under the build directory,
# $CARGO_TARGET_DIR when set, .bench_build otherwise. Without the windar
# sources next to perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the checkout root (perfbench/go.mod not found)" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -o "$build/windar-perfbench" .) >&2
exec "$build/windar-perfbench" -root "$root" -build "$build" "$@"
