//! Differential property tests for the quiet-window parallel engine: on
//! any configuration, trace, thread count and (possibly permuted)
//! contiguous partitioning, `run_detailed_par` / `run_traced_par` must be
//! **byte-identical** to the serial engine — same completions in the same
//! order, same latency quantiles, same migration counters, same
//! `RunSummary` (including `peak_queue`, which the parallel engine tracks
//! through a virtual ledger of the serial queue occupancy), same telemetry
//! span log and probe-ring export.
//!
//! The period strategy avoids multiples of 3 ns for the same tie-freedom
//! reason documented in `prop_control_plane.rs`.

use altocumulus::{AcConfig, Altocumulus, Attachment, ControlPlane, Interface};
use proptest::prelude::*;
use simcore::faults::{FaultPlan, WorkerFailure};
use simcore::telemetry::Telemetry;
use simcore::time::{SimDuration, SimTime};
use simcore::Partitioning;
use workload::{PoissonProcess, ServiceDistribution, Trace, TraceBuilder};

#[derive(Debug, Clone)]
struct ParCase {
    groups: usize,
    group_size: usize,
    attachment: Attachment,
    interface: Interface,
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

fn case_strategy() -> impl Strategy<Value = ParCase> {
    (
        2usize..7, // groups (>= 2 so the parallel engine engages)
        2usize..9, // group_size
        prop_oneof![Just(Attachment::Integrated), Just(Attachment::RssPcie)],
        prop_oneof![Just(Interface::Isa), Just(Interface::Msr)],
        prop_oneof![Just(ControlPlane::Elided), Just(ControlPlane::EventDriven)],
        // Period: > 61 ns and never a multiple of 3 (see module docs).
        (62u64..999).prop_map(|p| if p.is_multiple_of(3) { p + 1 } else { p }),
        1usize..33, // bulk
        1usize..9,  // concurrency (clamped to bulk below)
        1usize..3,  // local bound
        0.05f64..0.9,
        // Connections, trace seed, and the service-time shape: Fixed packs
        // the schedule with exact time ties, the hardest case for the
        // (time, seq) merge; Exponential exercises the spread-out regime.
        (1u32..32, 0u64..1000, prop_oneof![Just(false), Just(true)]),
    )
        .prop_map(
            |(
                groups,
                group_size,
                attachment,
                interface,
                plane,
                period_ns,
                bulk,
                conc,
                lb,
                load,
                (conns, seed, fixed_service),
            )| {
                ParCase {
                    groups,
                    group_size,
                    attachment,
                    interface,
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

fn build(case: &ParCase, mean: SimDuration) -> Altocumulus {
    let mut cfg = match case.attachment {
        Attachment::Integrated => AcConfig::ac_int(case.groups, case.group_size, mean),
        Attachment::RssPcie => AcConfig::ac_rss(case.groups, case.group_size, mean),
    };
    cfg.interface = case.interface;
    cfg.period = SimDuration::from_ns(case.period_ns);
    cfg.bulk = case.bulk;
    cfg.concurrency = case.concurrency;
    cfg.local_bound = case.local_bound;
    cfg.control_plane = case.plane;
    cfg.seed = case.seed;
    Altocumulus::new(cfg)
}

fn dist_for(case: &ParCase) -> ServiceDistribution {
    let mean = SimDuration::from_ns(850);
    if case.fixed_service {
        ServiceDistribution::Fixed(mean)
    } else {
        ServiceDistribution::Exponential { mean }
    }
}

fn trace_for(case: &ParCase, dist: &ServiceDistribution, requests: usize) -> Trace {
    let cores = case.groups * case.group_size;
    let rate = PoissonProcess::rate_for_load(case.load, cores, dist.mean());
    TraceBuilder::new(PoissonProcess::new(rate), *dist)
        .requests(requests)
        .connections(case.connections)
        .seed(case.seed)
        .build()
}

/// Full byte-level comparison of two results.
macro_rules! assert_results_identical {
    ($a:expr, $b:expr) => {
        prop_assert_eq!(&$a.system.completions, &$b.system.completions);
        prop_assert_eq!($a.system.end_time, $b.system.end_time);
        prop_assert_eq!($a.system.p99(), $b.system.p99());
        prop_assert_eq!(&$a.stats, &$b.stats);
        prop_assert_eq!($a.faults, $b.faults);
        prop_assert_eq!($a.summary.events, $b.summary.events);
        prop_assert_eq!($a.summary.end_time, $b.summary.end_time);
        prop_assert_eq!($a.summary.stopped_early, $b.summary.stopped_early);
        prop_assert_eq!($a.summary.peak_queue, $b.summary.peak_queue);
        // Replay provenance: per-stream RNG draw counts are part of the
        // recorded run identity, so they must be engine-invariant too.
        prop_assert_eq!($a.rng, $b.rng);
    };
}

/// A random contiguous partitioning of `0..n` into `parts` ranges, with
/// the *order* of the ranges shuffled by `shuffle_seed` — partition index
/// need not correlate with group index, and the merge must not care.
fn random_partitioning(n: usize, parts: usize, cut_seed: u64, shuffle_seed: u64) -> Partitioning {
    let parts = parts.min(n).max(1);
    // Deterministic LCG; no external RNG needed in tests.
    let mut state = cut_seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    // Pick parts-1 distinct interior boundaries.
    let mut bounds: Vec<usize> = Vec::with_capacity(parts + 1);
    bounds.push(0);
    while bounds.len() < parts {
        let b = 1 + lcg() % (n - 1);
        if !bounds.contains(&b) {
            bounds.push(b);
        }
    }
    bounds.push(n);
    bounds.sort_unstable();
    let mut ranges: Vec<std::ops::Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
    // Fisher–Yates shuffle of the range order.
    let mut state = shuffle_seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(1);
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for i in (1..ranges.len()).rev() {
        ranges.swap(i, lcg() % (i + 1));
    }
    Partitioning::new(n, ranges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence: the even-split parallel engine at every
    /// practical thread count vs the serial engine, bit-identical output.
    #[test]
    fn parallel_engine_is_byte_identical(case in case_strategy(), threads in 1usize..=8) {
        let dist = dist_for(&case);
        let trace = trace_for(&case, &dist, 1200);
        let serial = build(&case, dist.mean()).run_detailed(&trace);
        let par = build(&case, dist.mean()).run_detailed_par(&trace, threads);
        assert_results_identical!(serial, par);
    }

    /// Random (permuted) contiguous partitionings, with telemetry: span
    /// logs and probe rings must merge into the exact serial byte stream
    /// regardless of how groups are split or which worker owns which part.
    #[test]
    fn permuted_partitionings_merge_identically(
        case in case_strategy(),
        parts in 2usize..6,
        cut_seed in 0u64..1 << 48,
        shuffle_seed in 0u64..1 << 48,
    ) {
        let dist = dist_for(&case);
        let trace = trace_for(&case, &dist, 800);
        let mut tel_serial = Telemetry::new();
        let mut tel_par = Telemetry::new();
        let serial = build(&case, dist.mean()).run_traced(&trace, &mut tel_serial);
        let p = random_partitioning(case.groups, parts, cut_seed, shuffle_seed);
        let par = build(&case, dist.mean()).run_traced_partitioned(&trace, &mut tel_par, p);
        assert_results_identical!(serial, par);
        prop_assert_eq!(tel_serial.spans.points(), tel_par.spans.points());
        prop_assert_eq!(tel_serial.probes.to_jsonl(), tel_par.probes.to_jsonl());
    }
}

/// Satellite 6 regression: the same split handed over in two different
/// partition orders (so partition ids, worker assignment and join order
/// all differ) must produce identical output — the commit walk merges on
/// `(time, seq)`, never on partition or arrival order.
#[test]
fn partition_join_order_is_irrelevant() {
    let mean = SimDuration::from_ns(850);
    let mut cfg = AcConfig::ac_int(6, 8, mean);
    cfg.period = SimDuration::from_ns(200);
    let dist = ServiceDistribution::Exponential { mean };
    let rate = PoissonProcess::rate_for_load(0.7, 48, mean);
    let trace = TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(4000)
        .connections(24)
        .seed(11)
        .build();

    let forward = Partitioning::new(6, vec![0..2, 2..4, 4..6]);
    let backward = Partitioning::new(6, vec![4..6, 0..2, 2..4]);
    let mut tel_a = Telemetry::new();
    let mut tel_b = Telemetry::new();
    let a = Altocumulus::new(cfg.clone()).run_traced_partitioned(&trace, &mut tel_a, forward);
    let b = Altocumulus::new(cfg.clone()).run_traced_partitioned(&trace, &mut tel_b, backward);
    let serial = Altocumulus::new(cfg).run_detailed(&trace);

    assert_eq!(a.system.completions, b.system.completions);
    assert_eq!(a.system.completions, serial.system.completions);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats, serial.stats);
    assert_eq!(a.summary.events, serial.summary.events);
    assert_eq!(a.summary.peak_queue, serial.summary.peak_queue);
    assert_eq!(b.summary.peak_queue, serial.summary.peak_queue);
    assert_eq!(tel_a.spans.points(), tel_b.spans.points());
    assert_eq!(tel_a.probes.to_jsonl(), tel_b.probes.to_jsonl());
}

/// Regression: a partition that executed a window and then sits one or
/// more windows out must not leak its old shard records into a later
/// commit walk. With one group per partition, windows routinely miss a
/// few partitions, which is exactly the shape that triggered stale-record
/// replay (extra un-elided ticks: same completions, more events). The
/// tie-heavy Fixed service distribution is load-bearing — it reproduces
/// the hotpath workload where the bug was found.
#[test]
fn idle_partitions_leave_no_stale_records() {
    let mean = SimDuration::from_ns(850);
    let cfg = AcConfig::ac_int(16, 16, mean);
    let dist = ServiceDistribution::Fixed(mean);
    let rate = PoissonProcess::rate_for_load(0.6, 256, mean);
    let trace = TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(1000)
        .connections(16)
        .seed(1)
        .build();
    let serial = Altocumulus::new(cfg.clone()).run_detailed(&trace);
    let par = Altocumulus::new(cfg).run_detailed_par(&trace, 16);
    assert_eq!(serial.system.completions, par.system.completions);
    assert_eq!(serial.stats, par.stats);
    assert_eq!(serial.summary.events, par.summary.events);
    assert_eq!(serial.summary.end_time, par.summary.end_time);
    assert_eq!(serial.summary.peak_queue, par.summary.peak_queue);
}

/// A non-empty fault plan must downgrade the parallel request to the
/// serial engine wholesale (fault events are cross-group and RNG-bearing);
/// the result is trivially identical, and `faults` counters still line up.
#[test]
fn faulted_runs_fall_back_to_serial() {
    let mean = SimDuration::from_ns(850);
    let mut cfg = AcConfig::ac_int(4, 8, mean);
    cfg.faults = FaultPlan {
        worker_failures: vec![WorkerFailure {
            core: 9,
            at: SimTime::from_us(5),
        }],
        ..FaultPlan::default()
    };
    let dist = ServiceDistribution::Exponential { mean };
    let rate = PoissonProcess::rate_for_load(0.6, 32, mean);
    let trace = TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(2000)
        .connections(16)
        .seed(3)
        .build();
    let serial = Altocumulus::new(cfg.clone()).run_detailed(&trace);
    let par = Altocumulus::new(cfg).run_detailed_par(&trace, 4);
    assert_eq!(serial.system.completions, par.system.completions);
    assert_eq!(serial.faults, par.faults);
    assert_eq!(serial.summary.events, par.summary.events);
    assert_eq!(serial.summary.peak_queue, par.summary.peak_queue);
}
