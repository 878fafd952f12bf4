#!/usr/bin/env bash
# Builds the stationary SFC benchmark from this checkout and runs it.
#
#   bash perfbench/run.sh --workload newflow-64 --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, temporary files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not found in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
if [[ -d "$root/.git" ]]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi
exec "$out/perfbench" "$@"
