#!/usr/bin/env bash
# The benchmark of record (see benchmark/README.md).
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
#                    [--quick] [--check-repeat]
#
# Builds the release `hdsd-serve` from the root workspace (never under the
# benchmark's own profile), builds the benchmark package next to it, and
# runs the workloads. The last line of stdout is the result object of the
# (last) workload run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One build directory for both builds: the caller's CARGO_TARGET_DIR
# (relative to where it was set, i.e. the current directory) or the root
# workspace's `target/`. The benchmark package builds under `benchmark/`
# inside it, which is also where `.cargo/config.toml` points a bare
# `cargo test` run from this directory.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
unset CARGO_TARGET_DIR

cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" --target-dir "$target" \
    -p hdsd-service --bin hdsd-serve >&2
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target/benchmark" >&2

HDSD_BENCH_GIT_SHA="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
HDSD_BENCH_RUSTC="$(rustc --version)"
export HDSD_BENCH_GIT_SHA HDSD_BENCH_RUSTC

exec "$target/benchmark/release/hdsd-benchmark" \
    --server-bin "$target/release/hdsd-serve" \
    --out-dir "$target/benchmark" \
    --repo-root "$root" \
    "$@"
