#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the
# build and the run write inside the checkout: the Go build cache, the
# build's and the run's temporary files and the binary all live under
# .bench_build/. Arguments go to the program unchanged:
#
#   bash benchmark/run.sh --workload evolve --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. `go run ./benchmark` is the same
# program without the sandboxing.
set -euo pipefail
root=$PWD/.bench_build
# The commit the run records. VCS stamping is off below (git may refuse a
# checkout it does not own, and that would fail the build), so the commit
# is handed to the linker; a checkout that is no git repository records
# "unknown".
commit=unknown
if c=$(git rev-parse HEAD 2>/dev/null); then
  commit=$c
  [ -z "$(git status --porcelain 2>/dev/null)" ] || commit=$c+dirty
fi
mkdir -p "$root/gocache" "$root/tmp" "$root/home"
# HOME too: the go command keeps its env file and telemetry counters there.
export HOME=$root/home GOCACHE=$root/gocache GOPATH=$root/gopath GOENV=off GOTOOLCHAIN=local
export GOTMPDIR=$root/tmp TMPDIR=$root/tmp
go build -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$root/benchmark" ./benchmark
exec "$root/benchmark" "$@"
