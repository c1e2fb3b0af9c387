#!/usr/bin/env bash
# Builds the divmaxd benchmark from this checkout and runs it with the
# given flags (see divmaxbench/README.md). Everything the build and the run
# write — the Go build cache, temporary files, binaries, WAL directories,
# server logs and traces — stays under .bench_build/ at the root of the
# checkout. Nothing is downloaded: the benchmark uses the standard
# library and this repository's own packages only.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/divmaxbench" build -o "$out/bin/divmaxbench" .
cd "$root"
exec "$out/bin/divmaxbench" "$@"
