#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# repository root) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload swap-churn --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, span dumps) goes
# under $CARGO_TARGET_DIR, default .bench_build, inside the current
# directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off

go -C perfbench build -buildvcs=false -o "$out/perfbench" .

if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -d .git ] && command -v git >/dev/null; then
	PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || true)"
	export PERFBENCH_COMMIT
fi
exec "$out/perfbench" "$@"
