#!/usr/bin/env bash
# Builds pakdbench from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash pakdbench/run.sh --workload eval-warm --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch files all stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
# The go command's caches and per-user state (telemetry counters
# included) are kept inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" go -C pakdbench build -buildvcs=false -o "$out/pakdbench" .
exec "$out/pakdbench" -workdir "$out/work" "$@"
