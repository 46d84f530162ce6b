#!/bin/sh
# Builds the harness from source into .bench_build/ at the checkout root and
# runs it with the given arguments. Everything the toolchain writes (build
# cache included) stays inside the checkout. The build is incremental: after
# the first run it costs an up-to-date check.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= \
		GOTOOLCHAIN=local GOENV=off \
		go build -o "$out/e2e" .
)
cd "$root"
exec "$out/e2e" "$@"
