#!/usr/bin/env bash
# Builds the benchmark and hpfserve from this checkout's sources into
# .bench_build/perfbench, then runs the benchmark with the given flags:
#
#   bash perfbench/run.sh --workload predict --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Every file it writes stays
# under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= CGO_ENABLED=0

commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/hpfserve" hpfperf/cmd/hpfserve) >&2
exec "$out/bin/perfbench" --hpfserve "$out/bin/hpfserve" --out "$out" --commit "$commit" "$@"
