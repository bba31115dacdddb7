#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout, then runs it
# with the given arguments. Run from the repository root:
#
#   bash sdiqbench/run.sh --workload figure_suite --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

# The record names the commit it measured when the checkout is a git
# work tree; VCS stamping is off so a build never depends on git.
commit=unknown dirty=false
if [ -e .git ] && rev=$(git rev-parse HEAD 2>/dev/null); then
	commit=$rev
	if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
		dirty=true
	fi
fi

go -C sdiqbench build -buildvcs=false -o "$build/sdiqbench" .
exec "$build/sdiqbench" -work "$build" -commit "$commit" -dirty="$dirty" "$@"
