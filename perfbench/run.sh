#!/usr/bin/env bash
# Builds the result-delivery benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload handoff --seed 1 --seconds 25 --trace 0
#
# Run it from the root of a checkout. Everything the build writes (the
# binary, Go's build cache, span dumps) stays under the build directory
# inside the checkout: $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home"

# Fall back to the Go distribution's default install location.
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="$PATH:/usr/local/go/bin"
fi

# The Go tool caches and telemetry go under $out as well, so a run writes
# nothing outside the checkout, and it never reaches for the network.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
