#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build output (binary, Go build cache, Go's own config and telemetry
# files) stays under .bench_build/ in the checkout. Build messages go to
# stderr, so the last line of stdout is always the benchmark's result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
(
	cd perfbench
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOENV=off \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off \
		go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
