#!/usr/bin/env bash
# Builds the benchmark program from source and runs it from the repository
# root; every argument is passed through:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (binary, Go build cache, toolchain config)
# stays under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root holds no cedar module; run from a full checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
mkdir -p "$GOTMPDIR"
(cd "$here/_cmd" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
