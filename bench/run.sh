#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the build writes (binary, Go build
# cache) goes under bench/.build/ — a dot directory, so ./... patterns
# skip it — and results go to bench/out/: a run reads and writes only
# inside bench/.
set -eu
build="$PWD/bench/.build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
