#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, binary, scratch job directories, traces, result lines) stays
# under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
# The Go toolchain's caches, temporary files and user configuration
# (telemetry counters included) all go under $out.
export GOPATH="$out/gopath" GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
# -buildvcs=false: the checkout need not be a repository of its own.
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
