#!/usr/bin/env bash
# Builds the benchmark (and the paper_all harness the traced run times) from
# source, then measures one workload. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything is built offline from path dependencies into $CARGO_TARGET_DIR
# (default: benchmark/target). The build's wall time reaches the program as
# bench.build_s; it is not part of setup_s.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

build_started="$(date +%s%N)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
# paper_all starts its sibling experiment binaries, so all of them are built.
cargo build --release --offline --quiet --manifest-path "$root/crates/bench/Cargo.toml" --bins
build_ns=$(($(date +%s%N) - build_started))

LFRT_BENCH_BUILD_S="$(printf '%d.%09d' $((build_ns / 1000000000)) $((build_ns % 1000000000)))" \
LFRT_BENCH_GIT_REV="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)" \
LFRT_BENCH_PAPER_ALL="$target/release/paper_all" \
    exec "$target/release/lfrt-benchmark" "$@"
