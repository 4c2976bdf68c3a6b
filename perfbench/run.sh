#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload warm-hit --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout. Build outputs, the Go build cache
# and the span files stay under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local

# The benchmark is a module of its own that builds against the checkout's
# module through a replace directive; without the checkout the build fails.
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
