//! Differential property tests for the compacted hot-state layout.
//!
//! The SoA hot/cold split, the slab request arena, the NetRX `stage_hint`
//! tail-run bound and the single-pass planner are pure layout/traversal
//! changes: every observable — completions, stats, fault counters,
//! `peak_queue`, telemetry span chains, probe JSONL — must be byte-identical
//! however the same simulation is driven. These tests pit the two engines
//! against each other over random configurations, because each engine
//! stresses a different face of the layout:
//!
//! - the **serial** engine runs the compacted tick hot path (stage-hint
//!   staging, register-pass planner, update-log cursors) and routes every
//!   delivery/completion through the calendar queue as a Copy event
//!   resolving in the slab arenas (generation checks fire on any aliasing
//!   bug);
//! - the **parallel** engine lends the hot group plane out to shards while
//!   the cold plane stays serial — a split-brain layout bug (state that
//!   should be hot but stayed cold, or vice versa) desynchronizes it.
//!
//! The case strategy is biased toward migration-heavy meshes (few
//! connections → RSS imbalance → long migrated tails exercising
//! `stage_hint`) and includes the tie-heavy `fixed_service` dimension; the
//! period strategy avoids multiples of 3 ns for the tie-freedom reason
//! documented in `prop_control_plane.rs`.

use altocumulus::{AcConfig, Altocumulus, Attachment, ControlPlane, Interface};
use proptest::prelude::*;
use simcore::telemetry::Telemetry;
use simcore::time::SimDuration;
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

fn build(case: &LayoutCase, mean: SimDuration) -> Altocumulus {
    let mut cfg = match case.attachment {
        Attachment::Integrated => AcConfig::ac_int(case.groups, case.group_size, mean),
        Attachment::RssPcie => AcConfig::ac_rss(case.groups, case.group_size, mean),
    };
    cfg.interface = Interface::Isa;
    cfg.period = SimDuration::from_ns(case.period_ns);
    cfg.bulk = case.bulk;
    cfg.concurrency = case.concurrency;
    cfg.local_bound = case.local_bound;
    cfg.control_plane = case.plane;
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

/// Byte-level comparison of every observable, event count included.
macro_rules! assert_observables_identical {
    ($a:expr, $b:expr) => {
        prop_assert_eq!(&$a.system.completions, &$b.system.completions);
        prop_assert_eq!($a.system.end_time, $b.system.end_time);
        prop_assert_eq!($a.system.p99(), $b.system.p99());
        prop_assert_eq!(&$a.stats, &$b.stats);
        prop_assert_eq!($a.faults, $b.faults);
        prop_assert_eq!($a.summary.end_time, $b.summary.end_time);
        prop_assert_eq!($a.summary.stopped_early, $b.summary.stopped_early);
        prop_assert_eq!($a.summary.peak_queue, $b.summary.peak_queue);
        prop_assert_eq!($a.summary.events, $b.summary.events);
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Both engines over the compacted layout agree byte-for-byte on
    /// migration-heavy random configurations.
    #[test]
    fn engines_agree_on_compacted_layout(case in case_strategy()) {
        let dist = dist_for(&case);
        let trace = trace_for(&case, &dist, 1200);
        let serial = build(&case, dist.mean()).run_detailed(&trace);
        let par = build(&case, dist.mean()).run_detailed_par(&trace, 2);
        assert_observables_identical!(par, serial);
    }

    /// Traced runs: span chains and probe JSONL are part of the byte
    /// contract — the hot/cold split must not reorder or drop a single
    /// telemetry point (spans are emitted from inside the hot handlers).
    #[test]
    fn telemetry_identical_on_compacted_layout(case in case_strategy()) {
        let dist = dist_for(&case);
        let trace = trace_for(&case, &dist, 800);
        let mut tel_serial = Telemetry::new();
        let mut tel_par = Telemetry::new();
        let serial = build(&case, dist.mean()).run_traced(&trace, &mut tel_serial);
        let par = build(&case, dist.mean()).run_traced_par(&trace, &mut tel_par, 2);
        assert_observables_identical!(par, serial);
        prop_assert_eq!(tel_par.spans.points(), tel_serial.spans.points());
        prop_assert_eq!(tel_par.probes.to_jsonl(), tel_serial.probes.to_jsonl());
    }
}

/// Deterministic pin: a mesh with heavy RSS imbalance really does exercise
/// the migrated-tail machinery (the `stage_hint` fast path is not allowed
/// to be dead code in this suite), and the engines still agree on it.
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
    let serial = Altocumulus::new(cfg.clone()).run_detailed(&trace);
    assert!(
        serial.stats.migrated_requests > 100,
        "imbalanced mesh should migrate heavily, got {}",
        serial.stats.migrated_requests
    );
    let par = Altocumulus::new(cfg).run_detailed_par(&trace, 2);
    assert_eq!(serial.system.completions, par.system.completions);
    assert_eq!(serial.stats, par.stats);
    assert_eq!(serial.summary.peak_queue, par.summary.peak_queue);
    assert_eq!(serial.summary.events, par.summary.events);
}
