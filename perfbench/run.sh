#!/usr/bin/env bash
# Builds the benchmark and the slicerd daemon from the checkout's own
# source, then runs one benchmark workload. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload table1|fig6|slicerd --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache and temporary files, the
# two binaries, and the traced run's span files.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd perfbench
go build -o "$out/perfbench" .
go build -o "$out/slicerd" pathslice/cmd/slicerd
cd ..
exec "$out/perfbench" -slicerd "$out/slicerd" -spans-dir "$out/spans" "$@"
