#!/usr/bin/env bash
# Builds anonnetd from this checkout and the perfbench driver, then runs the
# driver with the given flags, e.g.
#
#   bash perfbench/run.sh --workload warm --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. The Go build cache, both binaries and the
# daemons' data directories all stay under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/anonnetd || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the root of an anonnet checkout" >&2
  exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/anonnetd" ./cmd/anonnetd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/anonnetd" -workdir "$out" "$@"
