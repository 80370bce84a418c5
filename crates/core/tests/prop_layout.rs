//! Differential property tests for the compacted hot-state layout.
//!
//! The SoA hot/cold split, the slab request arena, the NetRX `stage_hint`
//! tail-run bound and the single-pass planner are pure layout/traversal
//! changes: every observable — completions, stats, fault counters,
//! telemetry span chains, probe JSONL — must come out the same however the
//! same simulation is driven. These tests check the layout two ways, each
//! stressing a different face of it:
//!
//! - against the **event-driven control-plane oracle**
//!   ([`ControlPlane::EventDriven`]) on the same case: the elided plane runs
//!   the compacted tick hot path (stage-hint staging, register-pass
//!   planner, update-log cursors), the oracle delivers every UPDATE and
//!   tick as its own event, and both route every delivery/completion
//!   through the calendar queue as a Copy event resolving in the slab
//!   arenas (generation checks fire on any aliasing bug);
//! - **traced against detailed**: a run with a recording sink must match
//!   the telemetry-free run byte for byte, its span chains must reconstruct
//!   the detailed run's completions, and a repeat traced run must reproduce
//!   the span log and probe JSONL exactly — spans are emitted from inside
//!   the hot handlers, so a layout bug that reorders or drops a point shows.
//!
//! The case strategy is biased toward migration-heavy meshes (few
//! connections → RSS imbalance → long migrated tails exercising
//! `stage_hint`) and includes the tie-heavy `fixed_service` dimension; the
//! period strategy avoids multiples of 3 ns for the tie-freedom reason
//! documented in `prop_control_plane.rs`.

use altocumulus::telemetry::span;
use altocumulus::{AcConfig, Altocumulus, Attachment, ControlPlane, Interface};
use proptest::prelude::*;
use simcore::telemetry::{SpanPoint, Telemetry};
use simcore::time::SimDuration;
use std::collections::HashMap;
use workload::{PoissonProcess, ServiceDistribution, Trace, TraceBuilder};

#[derive(Debug, Clone)]
struct LayoutCase {
    groups: usize,
    group_size: usize,
    attachment: Attachment,
    plane: ControlPlane,
    period_ns: u64,
    bulk: usize,
    concurrency: usize,
    local_bound: usize,
    load: f64,
    connections: u32,
    seed: u64,
    fixed_service: bool,
}

fn case_strategy() -> impl Strategy<Value = LayoutCase> {
    (
        2usize..8, // groups (≥2: migration is the point of these cases)
        2usize..8, // group_size
        prop_oneof![Just(Attachment::Integrated), Just(Attachment::RssPcie)],
        prop_oneof![Just(ControlPlane::Elided), Just(ControlPlane::EventDriven)],
        // Period: > 61 ns and never a multiple of 3 (see module docs).
        (62u64..999).prop_map(|p| if p.is_multiple_of(3) { p + 1 } else { p }),
        1usize..33, // bulk
        1usize..9,  // concurrency (clamped to bulk below)
        1usize..3,  // local bound
        // Overload matters: the planner's single-pass overloaded branch and
        // the stage-hint's long migrated tails only appear under pressure.
        0.3f64..0.95,
        // Few connections: RSS imbalance concentrates arrivals, maximizing
        // migration traffic (and therefore staged/landed tail churn).
        (1u32..12, 0u64..1000, prop_oneof![Just(false), Just(true)]),
    )
        .prop_map(
            |(
                groups,
                group_size,
                attachment,
                plane,
                period_ns,
                bulk,
                conc,
                lb,
                load,
                (conns, seed, fixed_service),
            )| {
                LayoutCase {
                    groups,
                    group_size,
                    attachment,
                    plane,
                    period_ns,
                    bulk,
                    concurrency: conc.min(bulk),
                    local_bound: lb,
                    load,
                    connections: conns,
                    seed,
                    fixed_service,
                }
            },
        )
}

fn build(case: &LayoutCase, mean: SimDuration, plane: ControlPlane) -> Altocumulus {
    let mut cfg = match case.attachment {
        Attachment::Integrated => AcConfig::ac_int(case.groups, case.group_size, mean),
        Attachment::RssPcie => AcConfig::ac_rss(case.groups, case.group_size, mean),
    };
    cfg.interface = Interface::Isa;
    cfg.period = SimDuration::from_ns(case.period_ns);
    cfg.bulk = case.bulk;
    cfg.concurrency = case.concurrency;
    cfg.local_bound = case.local_bound;
    cfg.control_plane = plane;
    cfg.seed = case.seed;
    Altocumulus::new(cfg)
}

fn trace_for(case: &LayoutCase, dist: &ServiceDistribution, requests: usize) -> Trace {
    let cores = case.groups * case.group_size;
    let rate = PoissonProcess::rate_for_load(case.load, cores, dist.mean());
    TraceBuilder::new(PoissonProcess::new(rate), *dist)
        .requests(requests)
        .connections(case.connections)
        .seed(case.seed)
        .build()
}

fn dist_for(case: &LayoutCase) -> ServiceDistribution {
    let mean = SimDuration::from_ns(850);
    if case.fixed_service {
        ServiceDistribution::Fixed(mean)
    } else {
        ServiceDistribution::Exponential { mean }
    }
}

/// Every simulated observable: completions, latencies, migration and fault
/// counters, end time. Event accounting is left out — the two control
/// planes legitimately execute different event counts.
macro_rules! assert_results_identical {
    ($a:expr, $b:expr) => {
        prop_assert_eq!(&$a.system.completions, &$b.system.completions);
        prop_assert_eq!($a.system.end_time, $b.system.end_time);
        prop_assert_eq!($a.system.p99(), $b.system.p99());
        prop_assert_eq!(&$a.stats, &$b.stats);
        prop_assert_eq!($a.faults, $b.faults);
        prop_assert_eq!($a.summary.end_time, $b.summary.end_time);
    };
}

/// [`assert_results_identical`] plus the event-loop accounting: for two
/// runs on the same control plane, every byte must match.
macro_rules! assert_observables_identical {
    ($a:expr, $b:expr) => {
        assert_results_identical!($a, $b);
        prop_assert_eq!($a.summary.stopped_early, $b.summary.stopped_early);
        prop_assert_eq!($a.summary.peak_queue, $b.summary.peak_queue);
        prop_assert_eq!($a.summary.events, $b.summary.events);
        prop_assert_eq!($a.rng, $b.rng);
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The compacted layout under the elided control plane agrees with the
    /// event-driven oracle on migration-heavy random configurations, and a
    /// repeat run reproduces it byte for byte.
    #[test]
    fn engines_agree_on_compacted_layout(case in case_strategy()) {
        let dist = dist_for(&case);
        let trace = trace_for(&case, &dist, 1200);
        let elided = build(&case, dist.mean(), ControlPlane::Elided).run_detailed(&trace);
        let oracle = build(&case, dist.mean(), ControlPlane::EventDriven).run_detailed(&trace);
        assert_results_identical!(elided, oracle);
        let again = build(&case, dist.mean(), ControlPlane::Elided).run_detailed(&trace);
        assert_observables_identical!(again, elided);
    }

    /// Traced runs: the recording sink perturbs nothing, every request's
    /// span chain ends at the detailed run's completion, and span log and
    /// probe JSONL reproduce exactly on a repeat traced run.
    #[test]
    fn telemetry_identical_on_compacted_layout(case in case_strategy()) {
        let dist = dist_for(&case);
        let trace = trace_for(&case, &dist, 800);
        let detailed = build(&case, dist.mean(), case.plane).run_detailed(&trace);
        let mut tel = Telemetry::new();
        let traced = build(&case, dist.mean(), case.plane).run_traced(&trace, &mut tel);
        assert_observables_identical!(traced, detailed);

        // Span chains: one ARRIVAL per request, one COMPLETE per completion,
        // and each chain closes on its completion's instant and core.
        let points = tel.spans.points();
        let count = |k: u16| points.iter().filter(|p| p.kind == k).count();
        prop_assert_eq!(count(span::ARRIVAL), trace.len());
        prop_assert_eq!(count(span::COMPLETE), detailed.system.completions.len());
        let completion_of: HashMap<_, _> =
            detailed.system.completions.iter().map(|c| (c.id, c)).collect();
        let mut last: HashMap<u32, SpanPoint> = HashMap::new();
        for p in tel.spans.sorted_by_track() {
            last.insert(p.track, p);
        }
        for (track, end) in &last {
            let c = completion_of[&trace.requests()[*track as usize].id];
            prop_assert_eq!(end.kind, span::COMPLETE);
            prop_assert_eq!(end.at, c.finish);
            prop_assert_eq!(end.loc as usize, c.core);
        }

        let mut tel_again = Telemetry::new();
        let again = build(&case, dist.mean(), case.plane).run_traced(&trace, &mut tel_again);
        assert_observables_identical!(again, traced);
        prop_assert_eq!(tel_again.spans.points(), tel.spans.points());
        prop_assert_eq!(tel_again.probes.to_jsonl(), tel.probes.to_jsonl());
    }
}

/// Deterministic pin: a mesh with heavy RSS imbalance really does exercise
/// the migrated-tail machinery (the `stage_hint` fast path is not allowed
/// to be dead code in this suite), and the event-driven oracle agrees on it.
#[test]
fn migration_heavy_mesh_exercises_stage_hint() {
    let mean = SimDuration::from_ns(850);
    let dist = ServiceDistribution::Exponential { mean };
    let rate = PoissonProcess::rate_for_load(0.85, 32, mean);
    let trace = TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(8000)
        .connections(3) // 3 connections over 4 groups: maximal imbalance
        .seed(11)
        .build();
    let cfg = AcConfig::ac_int(4, 8, mean);
    let elided = Altocumulus::new(cfg.clone()).run_detailed(&trace);
    assert!(
        elided.stats.migrated_requests > 100,
        "imbalanced mesh should migrate heavily, got {}",
        elided.stats.migrated_requests
    );
    let mut oracle_cfg = cfg;
    oracle_cfg.control_plane = ControlPlane::EventDriven;
    let oracle = Altocumulus::new(oracle_cfg).run_detailed(&trace);
    assert_eq!(elided.system.completions, oracle.system.completions);
    assert_eq!(elided.stats, oracle.stats);
    assert_eq!(elided.system.end_time, oracle.system.end_time);
}
