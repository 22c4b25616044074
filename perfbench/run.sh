#!/usr/bin/env bash
# Builds perfbench from source and runs it.  Run from the repository
# root:  bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build products, the Go build cache and run scratch stay in .bench_build.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" -commit "$commit" -workdir "$out/run" "$@"
