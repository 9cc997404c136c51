#!/usr/bin/env bash
# Builds hqs, hqsd, hqsc and the benchmark driver from the checkout's sources
# into .bench_build (before and outside any timing), then runs the driver.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload pec-hard --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# Every build and run artefact stays under .bench_build.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/hqsd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root; go.mod, cmd/ and perfbench/ are needed" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its configuration and telemetry counters under the
# user configuration directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/hqs ./cmd/hqsd ./cmd/hqsc
(cd perfbench && go build -o "$out/bin/perfbench" .)

case "${1:-}" in
select | compare) exec "$out/bin/perfbench" "$@" ;;
*) exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@" ;;
esac
