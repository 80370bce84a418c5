//! The measured run of one workload: a warm-up cell, then rounds of cells
//! under a time budget, folded into end-to-end and per-layer metrics.
//!
//! The harness is a closed loop over cells: the next cell starts when the
//! previous one ends. Inside a cell the simulated arrivals are open loop.
//! Every timing metric is the median over rounds of that round's value, so
//! a burst of host noise that hits one or two rounds moves the median
//! little; the spread across rounds is reported beside it. Host times are
//! scaled by the reference kernel timed in the same round (see `calib`).

use crate::calib::{self, Kernel};
use crate::spans::Spans;
use crate::stats::{iqr, median, nearest_rank};
use crate::workloads::{self, Cell, Diag, RackSplit, Workload};
use altocumulus::event_kind_names;
use schedulers::common::SystemResult;
use simcore::trace::fnv1a64_fold;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Rounds per run.
pub const ROUNDS: usize = 5;
/// Cells `0..SIM_CELLS` make the simulated metrics and the output digest,
/// so those stay exact for a seed however fast the host runs. A whole
/// number of every workload's cycle.
pub const SIM_CELLS: u64 = 420;
/// Traced cells per round that also get the diagnostic calls.
const SAMPLES_PER_ROUND: usize = 2;

pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub rounds: usize,
    pub sim_cells: u64,
    pub trace: bool,
    /// Pinned `(cells, digest)` of the simulated cells, checked when
    /// present.
    pub pin: Option<(u64, u64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    E2e,
    Layer,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::E2e => "e2e",
            Kind::Layer => "layer",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
    /// Spread across rounds, for metrics measured once per round.
    pub iqr: Option<f64>,
}

pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of cells `0..sim_cells`.
    pub digest: u64,
    /// Digest of the warm-up cell (cell 0 run once more).
    pub warm_digest: u64,
    pub deterministic: bool,
    pub pin_ok: bool,
    /// Median reference kernel time over the whole run.
    pub ref_ms: f64,
    pub spans: Spans,
}

/// Everything one round measures.
#[derive(Default)]
struct Round {
    cell_ms: Vec<f64>,
    /// Mean cell time and completions per host second of each whole cycle
    /// of the mix. On `baselines_16c` a median over single cells would fall
    /// between (system, load) pairs of different cost and jump with noise.
    cycle_ms: Vec<f64>,
    cycle_rate: Vec<f64>,
    /// The cycle being filled: summed cell ms, completions, cells.
    open: (f64, f64, u32),
    // Traced cells only.
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    stage_ms: BTreeMap<&'static str, Vec<f64>>,
    cell_us: f64,
    cell_self_us: f64,
    engine_s: f64,
    engine_events: f64,
    sched: BTreeMap<&'static str, (f64, f64)>,
    kernel_ms: Vec<f64>,
}

impl Round {
    /// Nominal-speed factor of this round's host times.
    fn scale(&self) -> f64 {
        calib::scale(median(&self.kernel_ms))
    }
}

/// Per-cell sums of named counters and the number of cells summed.
#[derive(Default)]
struct Tally {
    cells: u64,
    sums: BTreeMap<String, f64>,
}

impl Tally {
    fn add(&mut self, counters: Vec<(String, f64)>) {
        if counters.is_empty() {
            return;
        }
        self.cells += 1;
        for (k, v) in counters {
            *self.sums.entry(k).or_default() += v;
        }
    }

    fn mean(&self, name: &str) -> Option<f64> {
        self.sums.get(name).map(|s| s / self.cells as f64)
    }
}

/// Diagnostic calls summed over the sample cells.
#[derive(Default)]
struct Samples {
    kinds: Vec<u64>,
    logical: u64,
    executed: u64,
    plain_s: f64,
    traced_s: f64,
    summary_s: f64,
    counters: Tally,
    rack: RackSplit,
}

impl Samples {
    fn add(&mut self, d: Diag) {
        self.kinds.resize(d.kinds.len().max(self.kinds.len()), 0);
        for (k, v) in d.kinds.iter().enumerate() {
            self.kinds[k] += v;
        }
        self.logical += d.logical_events;
        self.executed += d.executed_events;
        self.plain_s += d.plain_s;
        self.traced_s += d.traced_s;
        self.summary_s += d.summary_s;
        self.counters.add(d.counters);
        if let Some(r) = d.rack {
            self.rack.route_s += r.route_s;
            self.rack.dead_s += r.dead_s;
            self.rack.live_s += r.live_s;
            self.rack.serial_s += r.serial_s;
            self.rack.fanout_s += r.fanout_s;
        }
    }
}

/// Runs a cell and catches a panic, which fails the cell and nothing more.
fn attempt(w: &Workload, seed: u64) -> Option<Cell> {
    catch_unwind(AssertUnwindSafe(|| workloads::run_cell(w, seed))).ok()
}

/// Nearest-rank p99 of latencies in picoseconds, in microseconds.
fn exact_p99_us(ps: &mut [u64]) -> f64 {
    if ps.is_empty() {
        return 0.0;
    }
    let rank = ((0.99 * ps.len() as f64).ceil() as usize).max(1);
    let (_, p99, _) = ps.select_nth_unstable(rank - 1);
    *p99 as f64 / 1e6
}

/// One cycle of the workload's mix, pooled: its exact p99 and the share of
/// offered requests that were late or never completed. A pooled tail over
/// many cells is set by the few burstiest cells, so the simulated metrics
/// are medians over cycles instead.
#[derive(Default)]
struct Cycle {
    latencies_ps: Vec<u64>,
    violations: u64,
    offered: u64,
}

impl Cycle {
    fn add(&mut self, r: &SystemResult, offered: usize, late: u64) {
        self.latencies_ps
            .extend(r.completions.iter().map(|c| c.latency().as_ps()));
        self.violations += late + offered.saturating_sub(r.completions.len()) as u64;
        self.offered += offered as u64;
    }

    /// Closes the cycle into `(p99_us, violation_pct)` and starts anew.
    fn close(&mut self) -> (f64, f64) {
        let p99 = exact_p99_us(&mut self.latencies_ps);
        let pct = 100.0 * self.violations as f64 / self.offered.max(1) as f64;
        *self = Cycle::default();
        (p99, pct)
    }
}

pub fn measure(w: &Workload, plan: &Plan) -> Report {
    let cycle_len = w.cycle();
    let min_cells = plan
        .sim_cells
        .div_ceil(plan.rounds as u64)
        .div_ceil(cycle_len)
        * cycle_len;
    let budget = Duration::from_secs_f64(plan.seconds / plan.rounds as f64);
    let mut spans = Spans::new();
    let mut kernel = Kernel::new();
    let mut attempted = 1;
    let mut failed = 0;

    // The warm-up is cell 0 once more; its output must match cell 0's.
    let warm_digest = match attempt(w, plan.seed) {
        Some(c) => {
            let (d, ok) = workloads::check(c.offered, c.outcome.lost(), c.outcome.system());
            failed += u64::from(!ok);
            d
        }
        None => {
            failed += 1;
            0
        }
    };
    let mut deterministic = true;

    let mut digest = 0u64;
    let mut cycle = Cycle::default();
    let (mut sim_p99_us, mut sim_viol_pct) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let mut rounds = Vec::with_capacity(plan.rounds);
    let mut idx = 0u64;
    for _ in 0..plan.rounds {
        let mut round = Round::default();
        let mut samples_left = if plan.trace { SAMPLES_PER_ROUND } else { 0 };
        let start = Instant::now();
        let mut n = 0u64;
        while n < min_cells || !n.is_multiple_of(cycle_len) || start.elapsed() < budget {
            let i = idx;
            let seed = plan.seed.wrapping_add(i);
            let in_sim = i < plan.sim_cells;
            let traced = plan.trace && i.is_multiple_of(2);
            attempted += 1;
            n += 1;
            idx += 1;
            let Some(cell) = attempt(w, seed) else {
                failed += 1;
                continue;
            };
            let r = cell.outcome.system();
            let (cell_digest, mut ok) = workloads::check(cell.offered, cell.outcome.lost(), r);
            if i == 0 && cell_digest != warm_digest {
                deterministic = false;
            }
            if in_sim {
                digest = fnv1a64_fold(digest, cell_digest);
                cycle.add(r, cell.offered, cell.late);
                if (i + 1).is_multiple_of(cycle_len) {
                    let (p99, pct) = cycle.close();
                    sim_p99_us.push(p99);
                    sim_viol_pct.push(pct);
                }
            }
            let ms = cell.secs() * 1e3;
            round.cell_ms.push(ms);
            let (cycle_ms, done, cells) = &mut round.open;
            *cycle_ms += ms;
            *done += r.completions.len() as f64;
            *cells += 1;
            if (i + 1).is_multiple_of(cycle_len) {
                round.cycle_ms.push(*cycle_ms / f64::from(*cells));
                round.cycle_rate.push(*done / (*cycle_ms / 1e3));
                round.open = (0.0, 0.0, 0);
            }
            tally.add(cell.outcome.counters());
            if traced {
                round.traced_ms.push(ms);
                record_traced(&mut round, &mut spans, w, &cell, i, seed);
                if samples_left > 0 && w.runs_ac(seed) {
                    samples_left -= 1;
                    let t0 = Instant::now();
                    match catch_unwind(AssertUnwindSafe(|| {
                        workloads::diagnose(w, seed, cell_digest)
                    })) {
                        Ok(d) => {
                            ok &= !d.perturbed;
                            let root = spans.push("diag", t0, Instant::now(), None, i);
                            for s in &d.stages {
                                spans.push(s.name, s.start, s.end, Some(root), i);
                            }
                            samples.add(d);
                        }
                        Err(_) => ok = false,
                    }
                }
            } else if plan.trace {
                round.untraced_ms.push(ms);
            }
            if i % 2 == 1 {
                round.kernel_ms.push(kernel.time_ms());
            }
            failed += u64::from(!ok);
        }
        rounds.push(round);
    }

    let kernel_ms: Vec<f64> = rounds.iter().flat_map(|r| r.kernel_ms.clone()).collect();
    let pin_ok = plan
        .pin
        .is_none_or(|(cells, pinned)| cells == plan.sim_cells && pinned == digest);
    if !pin_ok {
        failed = attempted;
    }
    let mut m = Metrics::default();
    let p50s: Vec<f64> = rounds
        .iter()
        .map(|r| median(&r.cycle_ms) * r.scale())
        .collect();
    m.rounds("cell_ms_p50", p50s.clone(), "ms", Kind::E2e);
    m.rounds(
        "sim_kreq_per_s",
        rounds
            .iter()
            .map(|r| median(&r.cycle_rate) / r.scale() / 1e3)
            .collect(),
        "kreq/s",
        Kind::E2e,
    );
    m.put("sim_p99_us", median(&sim_p99_us), "sim_us", Kind::E2e);
    m.put("sim_slo_viol_pct", median(&sim_viol_pct), "%", Kind::E2e);
    m.put(
        "fail_frac",
        failed as f64 / attempted as f64,
        "ratio",
        Kind::E2e,
    );

    m.counts(&tally, &samples);
    if plan.trace {
        m.layers(&rounds, &p50s, &samples);
    }
    Report {
        metrics: m.0,
        attempted,
        failed,
        digest,
        warm_digest,
        deterministic,
        pin_ok,
        ref_ms: median(&kernel_ms),
        spans,
    }
}

/// Records a traced cell's spans and its per-layer host times.
fn record_traced(
    round: &mut Round,
    spans: &mut Spans,
    w: &Workload,
    cell: &Cell,
    idx: u64,
    seed: u64,
) {
    let root = spans.push("cell", cell.start, cell.end, None, idx);
    let mut staged_us = 0.0;
    for s in &cell.stages {
        spans.push(s.name, s.start, s.end, Some(root), idx);
        staged_us += s.secs() * 1e6;
        let layer = if s.name == "rack.run" {
            "system.run"
        } else {
            s.name
        };
        round
            .stage_ms
            .entry(layer)
            .or_default()
            .push(s.secs() * 1e3);
    }
    round.cell_us += cell.secs() * 1e6;
    round.cell_self_us += cell.secs() * 1e6 - staged_us;
    let run_s = cell.run_stage().secs();
    if let Some(events) = cell.outcome.events() {
        round.engine_s += run_s;
        round.engine_events += events as f64;
    }
    if let Some(sys) = w.baseline_of(seed) {
        let e = round.sched.entry(sys).or_default();
        e.0 += cell.outcome.system().completions.len() as f64;
        e.1 += run_s;
    }
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, kind: Kind) {
        self.0.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            kind,
            iqr: None,
        });
    }

    /// A metric measured once per round: its median, with the spread.
    fn rounds(&mut self, name: &str, per_round: Vec<f64>, unit: &'static str, kind: Kind) {
        self.put(name, median(&per_round), unit, kind);
        let spread = iqr(&per_round);
        self.0.last_mut().expect("just pushed").iqr =
            Some(if spread.is_finite() { spread } else { 0.0 });
    }

    /// Per-cell counter means, from every cell where the cell's own result
    /// carries them, else from the sample cells' diagnostic runs.
    fn counts(&mut self, tally: &Tally, samples: &Samples) {
        let mut names: Vec<&String> = tally.sums.keys().collect();
        names.extend(
            samples
                .counters
                .sums
                .keys()
                .filter(|k| !tally.sums.contains_key(*k)),
        );
        let mean = |k: &str| tally.mean(k).or_else(|| samples.counters.mean(k));
        for k in names {
            let unit = if k.ends_with("_ns") {
                "sim_ns"
            } else {
                "count"
            };
            self.put(k, mean(k).unwrap_or(0.0), unit, Kind::Layer);
        }
        if let (Some(nacked), Some(sent)) = (
            mean("runtime.nacked_messages"),
            mean("runtime.migrate_messages"),
        ) {
            self.put("runtime.nack_pct", 100.0 * nacked / sent, "%", Kind::Layer);
            let blocked = mean("runtime.guard_blocked").unwrap_or(0.0);
            self.put(
                "runtime.guard_block_pct",
                100.0 * blocked / (blocked + sent),
                "%",
                Kind::Layer,
            );
        }
    }

    fn layers(&mut self, rounds: &[Round], p50s: &[f64], samples: &Samples) {
        for (stage, name) in [
            ("workload.gen", "workload.gen_ms_p50"),
            ("system.build", "system.build_ms_p50"),
            ("system.run", "system.run_ms_p50"),
            ("stats", "stats.ms_p50"),
        ] {
            let per_round = rounds
                .iter()
                .filter_map(|r| r.stage_ms.get(stage).map(|v| median(v) * r.scale()))
                .collect();
            self.rounds(name, per_round, "ms", Kind::Layer);
        }
        let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
        self.rounds(
            "system.ns_per_event",
            per_round(&|r| r.engine_s * r.scale() * 1e9 / r.engine_events),
            "ns",
            Kind::Layer,
        );
        self.rounds(
            "host.cell_ms_p90",
            per_round(&|r| nearest_rank(&r.cell_ms, 90.0) * r.scale()),
            "ms",
            Kind::Layer,
        );
        self.rounds(
            "host.cell_ms_p50_raw",
            per_round(&|r| median(&r.cell_ms)),
            "ms",
            Kind::Layer,
        );
        self.rounds(
            "host.ref_ms_p50",
            per_round(&|r| median(&r.kernel_ms)),
            "ms",
            Kind::Layer,
        );
        self.rounds(
            "host.cells_per_round",
            per_round(&|r| r.cell_ms.len() as f64),
            "count",
            Kind::Layer,
        );
        self.put(
            "host.round_iqr_pct",
            100.0 * iqr(p50s) / median(p50s),
            "%",
            Kind::Layer,
        );
        self.rounds(
            "host.unattributed_pct",
            per_round(&|r| 100.0 * r.cell_self_us / r.cell_us),
            "%",
            Kind::Layer,
        );
        self.rounds(
            "host.trace_overhead_pct",
            per_round(&|r| 100.0 * (median(&r.traced_ms) / median(&r.untraced_ms) - 1.0)),
            "%",
            Kind::Layer,
        );
        for sys in workloads::BASELINES {
            let per_round = rounds
                .iter()
                .filter_map(|r| {
                    r.sched
                        .get(sys)
                        .map(|&(done, s)| done / (s * r.scale()) / 1e3)
                })
                .collect::<Vec<_>>();
            if !per_round.is_empty() {
                self.rounds(
                    &format!("sched.{sys}.kreq_per_s"),
                    per_round,
                    "kreq/s",
                    Kind::Layer,
                );
            }
        }

        let s = samples;
        if s.plain_s > 0.0 {
            let pct = |x: f64| 100.0 * (x / s.plain_s - 1.0);
            self.put("telemetry.overhead_pct", pct(s.traced_s), "%", Kind::Layer);
            self.put(
                "trace.summary_overhead_pct",
                pct(s.summary_s),
                "%",
                Kind::Layer,
            );
            let n = s.counters.cells as f64;
            self.put(
                "system.logical_events",
                s.logical as f64 / n,
                "count",
                Kind::Layer,
            );
            self.put(
                "system.elided_pct",
                100.0 * (1.0 - s.executed as f64 / s.logical as f64),
                "%",
                Kind::Layer,
            );
            for (k, name) in event_kind_names().iter().enumerate() {
                let count = s.kinds.get(k).copied().unwrap_or(0);
                self.put(
                    &format!("events.{name}"),
                    count as f64 / n,
                    "count",
                    Kind::Layer,
                );
            }
        }
        let r = &s.rack;
        if r.serial_s > 0.0 {
            let share = |x: f64| 100.0 * x / r.serial_s;
            self.put(
                "rack.route_pct",
                share(r.route_s - r.dead_s),
                "%",
                Kind::Layer,
            );
            self.put("rack.dead_sim_pct", share(r.dead_s), "%", Kind::Layer);
            self.put("rack.server_sim_pct", share(r.live_s), "%", Kind::Layer);
            self.put(
                "rack.merge_residual_pct",
                share(r.serial_s - r.route_s - r.live_s),
                "%",
                Kind::Layer,
            );
            self.put(
                "rack.fanout_speedup",
                r.serial_s / r.fanout_s,
                "x",
                Kind::Layer,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    #[test]
    fn p99_is_the_exact_nearest_rank() {
        let mut ps: Vec<u64> = (1..=1000u64).rev().map(|ns| ns * 1000).collect();
        assert_eq!(exact_p99_us(&mut ps), 0.99);
        assert_eq!(exact_p99_us(&mut []), 0.0);
    }

    #[test]
    fn small_runs_repeat_their_digest_and_emit_every_listed_metric() {
        let spec = Spec::embedded();
        let mut layer = BTreeSet::new();
        for w in WORKLOADS {
            let w = Workload {
                requests: w.requests / 20,
                ..w
            };
            let plan = Plan {
                seed: 7,
                seconds: 0.0,
                rounds: 1,
                sim_cells: 2 * w.cycle(),
                trace: true,
                pin: None,
            };
            let a = measure(&w, &plan);
            let b = measure(&w, &plan);
            assert_eq!(a.digest, b.digest, "{}", w.name);
            assert!(a.deterministic && a.failed == 0, "{}", w.name);
            let p = Plan {
                pin: Some((plan.sim_cells, a.digest ^ 1)),
                trace: false,
                ..plan
            };
            let wrong_pin = measure(&w, &p);
            assert!(!wrong_pin.pin_ok && wrong_pin.failed == wrong_pin.attempted);

            let names: BTreeSet<&str> = a.metrics.iter().map(|m| m.name.as_str()).collect();
            // The parent measures set-up time and memory in fresh processes.
            let parent = ["setup_s", "peak_heap_mb"];
            for g in spec
                .e2e
                .iter()
                .filter(|g| !parent.contains(&g.name.as_str()))
            {
                let m = a.metrics.iter().find(|m| m.name == g.name).expect(&g.name);
                assert_eq!(m.unit, g.unit, "{}", g.name);
                assert!(m.value > 0.0, "{} of {} reads 0", g.name, w.name);
            }
            assert!(names.contains("fail_frac"));
            for m in a.metrics.iter().filter(|m| m.kind == Kind::Layer) {
                layer.insert((m.name.clone(), m.unit.to_string()));
            }
        }
        let listed: BTreeSet<(String, String)> = spec.layer.iter().cloned().collect();
        assert_eq!(
            layer, listed,
            "BENCHMARK.json lists what the workloads emit"
        );
    }
}
