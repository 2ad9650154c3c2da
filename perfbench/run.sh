#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments. Run from the repository root; everything the build and the
# run write goes under .bench_build/ there. See perfbench/README.md.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

# Keep the Go toolchain's caches and temporaries inside the checkout, and
# never let it reach for the network: the benchmark has no dependencies
# beyond the repository itself.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# Only a checkout that is itself a git work tree has a commit; a copy
# nested in some other repository must not report that repository's.
PERFBENCH_COMMIT=unknown
if [ -e "$root/.git" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT
exec "$out/perfbench" "$@"
