#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the checkout it is run
# from and runs it. Run it from the repository root:
#
#   bash perfbench/run.sh --workload figures|sweep|functional \
#       --seed N --seconds S --trace 0|1
#
# The Go build cache, module cache and binary all live under .bench_build/
# in the checkout, so nothing is read from or written to the user's home.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
