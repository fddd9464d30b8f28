#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#	bash perfbench/run.sh --workload track --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and trace files stay inside the checkout,
# under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/go-cache" GOPATH="$out/go-path" \
	GOMODCACHE="$out/go-path/pkg/mod" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
