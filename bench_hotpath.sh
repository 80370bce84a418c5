#!/usr/bin/env bash
# Measures hot-path throughput (events/sec) and peak event-queue population
# for the representative 64-core, 20k-request configuration (ACint 4x16 and
# Nebula) plus the paper-scale 256-core (16x16) mesh — the latter under
# both control planes (Elided vs
# EventDriven) so the manager-plane event-elision win is recorded
# head-to-head, and once more on Exponential service over 4096 connections
# (the benchmark's traffic shape) — plus a 1024-core (32x32) mesh, the
# two-level rack tier and, for the sparse regime, the Fig. 10 line-up on
# 16 cores at loads 0.1/0.5/0.8. Every row is one run on one thread, best
# of 7, and records the host's hw_threads. Writes the result to
# BENCH_hotpath.json.
# Run from the repository root:
#
#   ./bench_hotpath.sh
#
# The JSON includes a "prior" block with the pre-streaming numbers measured
# on the same configuration, so regressions are visible without digging
# through git history.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release -p bench --bin hotpath
./target/release/hotpath | tee BENCH_hotpath.json
