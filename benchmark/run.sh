#!/usr/bin/env bash
# Builds the fpint benchmark from source and runs it with the given flags,
# e.g. bash benchmark/run.sh --workload sweep-detailed --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, temporary files, Go's per-user config) stays under
# .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$root/benchmark" build -o "$out/fpintbench" .
exec "$out/fpintbench" "$@"
