#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then runs
# it with every argument passed through. Run from the repository root:
#
#   bash perfbench/run.sh --workload structural --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) stays
# under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
