#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash _e2ebench/run.sh --workload upload --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and every scratch file stay under
# .bench_build/ in the current directory.
set -euo pipefail
root="$PWD"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$here" build -o "$out/e2ebench" .
exec "$out/e2ebench" --root "$root" "$@"
