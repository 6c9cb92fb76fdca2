#!/usr/bin/env bash
# Regenerates the captured outputs in results/ from release builds.
#
# Usage: scripts/results.sh [DIR]
#
# Builds `htlc` and the `logrel-bench` binaries (release), then writes
# the stdout of every experiment binary (`exp_*`, `fig1_timeline`,
# `table_3ts`) to DIR/<binary>.txt, the stdout of the `steer_by_wire`
# example (EXPERIMENTS X5) to DIR/steer_by_wire.txt and the `htlc check`
# + `htlc latency` report of the three-tank asset to
# DIR/htlc_check_three_tank.txt. DIR
# defaults to results/. A binary whose own paper-shape asserts fail
# exits non-zero, and so does this script.
#
# Every file is a pure function of the source tree, and `verify.sh`
# diffs them all: exp_refinement prints only its system sizes to stdout
# and its wall-clock timing columns to stderr, which this script passes
# through.

set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-results}
mkdir -p "$out"

cargo build --release -q
cargo build --release -q -p logrel-bench --bins
cargo build --release -q --example steer_by_wire

for src in crates/bench/src/bin/exp_*.rs crates/bench/src/bin/fig1_timeline.rs \
           crates/bench/src/bin/table_3ts.rs; do
    bin=$(basename "$src" .rs)
    "target/release/$bin" > "$out/$bin.txt"
done

target/release/examples/steer_by_wire > "$out/steer_by_wire.txt"

{
    target/release/htlc check assets/three_tank.htl
    target/release/htlc latency assets/three_tank.htl
} > "$out/htlc_check_three_tank.txt"
