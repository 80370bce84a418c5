#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# The GitHub workflow runs fmt+clippy in a dedicated lint job; its
# test+golden job sets CI_SKIP_LINT=1 so the lint pass isn't duplicated.
# Local runs (no env) always lint.
if [ -n "${CI_SKIP_LINT:-}" ]; then
  echo "==> lint skipped (CI_SKIP_LINT set; the lint job covers fmt+clippy)"
else
  echo "==> cargo fmt --check"
  cargo fmt --all -- --check

  echo "==> cargo clippy (deny warnings)"
  cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (whole workspace via default-members)"
# Root package plus every crate under crates/: unit tests, the differential
# and property suites (prop_*), the allocation-budget gates (single-test
# harness-free binaries, so the global counting allocator sees no
# cross-thread noise) and doc tests.
cargo test -q

echo "==> altobench build + unit tests (against the workspace crates)"
# The benchmark is a package of its own that calls the workspace crates'
# public API by path. Building and unit-testing it here makes a change
# that removes or renames an item it calls fail locally, not only when the
# benchmark next runs.
cargo build --release --offline --manifest-path altobench/Cargo.toml
cargo test --offline --manifest-path altobench/Cargo.toml

echo "==> golden figure gate (every figure and table binary)"
# The stdout of every figure and table binary, full configs and the
# --quick smokes alike, is pinned by a sha256 fixture: any determinism
# break (event ordering, RNG stream leakage, fault-layer perturbation of
# healthy runs) fails here before a reviewer ever diffs numbers. The pins
# are listed in ci/stdout_pins.txt (about a minute of runs on two hardware
# threads); bless an intentional change with scripts/regen_golden.sh.
while read -r name bin args <&3; do
  # shellcheck disable=SC2086 # `args` is a word list by design
  cargo run -q -p bench --release --bin "$bin" -- $args > "target/$name.txt"
  got=$(sha256sum < "target/$name.txt" | awk '{print $1}')
  want=$(cat "ci/golden/$name.sha256")
  if [ "$got" != "$want" ]; then
    echo "GOLDEN MISMATCH: $bin${args:+ $args} stdout digest $got != pinned $want" >&2
    echo "(see target/$name.txt; regenerate via scripts/regen_golden.sh if intentional)" >&2
    # Turn "the digest changed" into "which event changed": replay the
    # golden run trace for this figure (if one exists) so the first
    # divergent (time, seq) event and its surrounding window land in the
    # log and in target/replay-diff/ for the CI artifact upload.
    if [ -f "ci/golden/$name.trace.jsonl" ]; then
      mkdir -p target/replay-diff
      echo "==> replaying ci/golden/$name.trace.jsonl to locate the divergence" >&2
      cargo run -q -p bench --release --bin replay -- "ci/golden/$name.trace.jsonl" \
        > "target/replay-diff/$name.diff.txt" || true
      cat "target/replay-diff/$name.diff.txt" >&2
    fi
    exit 1
  fi
done 3< <(grep -v '^#' ci/stdout_pins.txt)

echo "==> golden run-trace gate (record/replay contract)"
# The TRACE/1.0 run artifacts pin the simulation at the event level, not
# just the formatted stdout: provenance (seed, config and workload
# fingerprints, per-stream RNG draw counts) plus a rolling digest of every
# (time, seq, kind, group, payload) event record. First prove the blessed
# goldens are intact (hash pin + schema version), then that a fresh
# recording is byte-identical, then that the golden replays divergence-free
# against a full-granularity re-execution.
./scripts/check_golden_traces.sh
for pair in fig10_comparison:fig10_quick fault_sweep:fault_sweep_quick \
            rack_sweep:rack_sweep_quick; do
  bin=${pair%%:*} name=${pair##*:}
  cargo run -q -p bench --release --bin "$bin" -- --quick \
    --record-out="target/$name.trace.jsonl" > /dev/null 2> /dev/null
  if ! cmp "ci/golden/$name.trace.jsonl" "target/$name.trace.jsonl"; then
    echo "GOLDEN TRACE MISMATCH: fresh $bin --quick recording differs from blessed" >&2
    mkdir -p target/replay-diff
    cargo run -q -p bench --release --bin replay -- "ci/golden/$name.trace.jsonl" \
      > "target/replay-diff/$name.diff.txt" || true
    cat "target/replay-diff/$name.diff.txt" >&2
    exit 1
  fi
done
cargo run -q -p bench --release --bin replay -- ci/golden/fig10_quick.trace.jsonl
cargo run -q -p bench --release --bin replay -- ci/golden/fault_sweep_quick.trace.jsonl
cargo run -q -p bench --release --bin replay -- ci/golden/rack_sweep_quick.trace.jsonl

echo "==> fault-injection smoke (determinism)"
# A faulted sweep must be byte-identical across invocations *and* across
# sweep-executor thread counts — faults are part of the deterministic
# simulation, not noise. target/fault_sweep_quick.txt is the output the
# golden gate pinned above (which also runs the full shape to the end).
cargo run -q -p bench --release --bin fault_sweep -- --quick > target/fault_sweep_b.txt
SWEEP_THREADS=4 cargo run -q -p bench --release --bin fault_sweep -- --quick > target/fault_sweep_c.txt
cmp target/fault_sweep_quick.txt target/fault_sweep_b.txt
cmp target/fault_sweep_quick.txt target/fault_sweep_c.txt
rm -f target/fault_sweep_b.txt target/fault_sweep_c.txt

echo "==> rack determinism smoke (repeats + SWEEP_THREADS)"
# The rack tier's contract: byte-identical across repeated runs and across
# sweep-executor thread counts. target/rack_sweep_quick.txt is the output
# the golden gate pinned above; the quick sweep's death cell runs every
# server under a non-empty per-server fault plan, so faulted-rack routing
# and whole-server takeover are inside the byte-identity check too.
cargo run -q -p bench --release --bin rack_sweep -- --quick > target/rack_sweep_b.txt
SWEEP_THREADS=4 cargo run -q -p bench --release --bin rack_sweep -- --quick \
  > target/rack_sweep_c.txt
cmp target/rack_sweep_quick.txt target/rack_sweep_b.txt
cmp target/rack_sweep_quick.txt target/rack_sweep_c.txt
rm -f target/rack_sweep_b.txt target/rack_sweep_c.txt

echo "==> replay gate negative control (AC_TRACE_PERTURB)"
# A gate that cannot fail proves nothing. Record fig10 --quick with event
# 18342 of every run bumped by +1 ps; replay must exit non-zero and locate
# the divergence in the checkpoint block holding that event, in all 4 runs.
AC_TRACE_PERTURB=18342 cargo run -q -p bench --release --bin fig10_comparison -- --quick \
  --record-out=target/perturbed.trace.jsonl > /dev/null 2> /dev/null
if cargo run -q -p bench --release --bin replay -- target/perturbed.trace.jsonl \
  > target/perturbed.replay.txt 2>&1; then
  echo "REPLAY GATE BROKEN: a perturbed recording replayed clean" >&2
  exit 1
fi
located=$(grep -c 'event block \[17920\.\.18432)' target/perturbed.replay.txt || true)
if [ "$located" != 4 ]; then
  echo "REPLAY GATE BROKEN: expected 4 runs diverging in event block [17920..18432)," \
    "found $located" >&2
  cat target/perturbed.replay.txt >&2
  exit 1
fi
rm -f target/perturbed.trace.jsonl target/perturbed.replay.txt

echo "==> telemetry-export smoke"
# Export a real trace from the hotpath harness and lint it: the Chrome-trace
# JSON must parse with well-nested per-request spans, and every probe JSONL
# line must match the schema. The third argument is the fresh TRACE/1.0 run
# artifact from the golden gate above, schema-validated by the same linter.
# Guards the exporters end-to-end, not just the in-process recorders.
SMOKE=target/telemetry-smoke
mkdir -p "$SMOKE"
cargo run -q -p bench --release --bin hotpath -- --trace-out "$SMOKE/trace.json" \
  > /dev/null 2> /dev/null
cp target/fig10_quick.trace.jsonl "$SMOKE/run.trace.jsonl"
cargo run -q -p bench --release --bin trace_lint -- \
  "$SMOKE/trace.json" "$SMOKE/trace.probes.jsonl" "$SMOKE/run.trace.jsonl"

echo "CI OK"
