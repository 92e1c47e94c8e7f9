#!/usr/bin/env bash
# Builds the e2ebench binary from the source of the checkout it is run in,
# then runs it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload stream-feed --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, traces,
# the exact-count ledger) goes under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "e2ebench: $root holds no clocksync module source to build" >&2
	exit 1
fi

# Keep the toolchain's caches and config inside the checkout.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out" "$@"
