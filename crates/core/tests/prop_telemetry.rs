//! Consistency property tests for the telemetry layer: the recorded span
//! log must *reconstruct* exactly what the simulation reported through its
//! first-class outputs. Span counts must equal the [`MigrationStats`]
//! counters (completions, migrations per group, NACK bounces), and each
//! request's chain of lifecycle points must start at its trace arrival, end
//! at its completion instant, and stay chronological — so the summed phase
//! durations equal the recorded latency by telescoping, with no gaps and no
//! overlaps. The send/receive FIFO probes must stay within the engine's
//! 16-entry bounds.
//!
//! [`MigrationStats`]: altocumulus::MigrationStats

use altocumulus::hw::{RECV_FIFO_SLOTS, SEND_FIFO_SLOTS};
use altocumulus::telemetry::span;
use altocumulus::{AcConfig, Altocumulus, Attachment, Interface, Telemetry};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simcore::telemetry::SpanPoint;
use simcore::time::SimDuration;
use std::collections::HashMap;
use workload::{PoissonProcess, ServiceDistribution, TraceBuilder};

#[derive(Debug, Clone)]
struct TelCase {
    groups: usize,
    group_size: usize,
    attachment: Attachment,
    interface: Interface,
    period_ns: u64,
    bulk: usize,
    concurrency: usize,
    load: f64,
    connections: u32,
    seed: u64,
}

fn case_strategy() -> impl Strategy<Value = TelCase> {
    (
        // At least two groups so the migration machinery (and its spans)
        // can fire; few connections to provoke RSS imbalance.
        2usize..5,
        2usize..9,
        prop_oneof![Just(Attachment::Integrated), Just(Attachment::RssPcie)],
        prop_oneof![Just(Interface::Isa), Just(Interface::Msr)],
        62u64..500,
        1usize..33,
        1usize..9,
        0.3f64..0.9,
        1u32..8,
        0u64..1000,
    )
        .prop_map(
            |(
                groups,
                group_size,
                attachment,
                interface,
                period_ns,
                bulk,
                conc,
                load,
                conns,
                seed,
            )| {
                TelCase {
                    groups,
                    group_size,
                    attachment,
                    interface,
                    period_ns,
                    bulk,
                    concurrency: conc.min(bulk),
                    load,
                    connections: conns,
                    seed,
                }
            },
        )
}

fn build(case: &TelCase, mean: SimDuration) -> Altocumulus {
    let mut cfg = match case.attachment {
        Attachment::Integrated => AcConfig::ac_int(case.groups, case.group_size, mean),
        Attachment::RssPcie => AcConfig::ac_rss(case.groups, case.group_size, mean),
    };
    cfg.interface = case.interface;
    cfg.period = SimDuration::from_ns(case.period_ns);
    cfg.bulk = case.bulk;
    cfg.concurrency = case.concurrency;
    cfg.seed = case.seed;
    Altocumulus::new(cfg)
}

/// Runs `case` traced and checks every reconstruction and bound property;
/// returns the peak `send_fifo` probe sample.
fn check_traced(case: &TelCase) -> Result<f64, TestCaseError> {
    let dist = ServiceDistribution::Exponential {
        mean: SimDuration::from_ns(850),
    };
    let cores = case.groups * case.group_size;
    let rate = PoissonProcess::rate_for_load(case.load, cores, dist.mean());
    let trace = TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(3000)
        .connections(case.connections)
        .seed(case.seed)
        .build();

    let mut tel = Telemetry::new();
    let r = build(case, dist.mean()).run_traced(&trace, &mut tel);

    // --- Counter reconstruction against MigrationStats ---------------
    let count_kind = |k: u16| tel.spans.points().iter().filter(|p| p.kind == k).count() as u64;
    prop_assert_eq!(
        count_kind(span::COMPLETE) as usize,
        r.system.completions.len(),
        "one COMPLETE span per completion"
    );
    prop_assert_eq!(count_kind(span::ARRIVAL) as usize, trace.len());
    prop_assert_eq!(
        count_kind(span::MIGRATE_LAND),
        r.stats.migrated_requests,
        "one MIGRATE_LAND span per landed request"
    );
    prop_assert_eq!(
        count_kind(span::NACK_RETURN),
        r.stats.nacked_requests,
        "one NACK_RETURN span per bounced request"
    );

    // Landings broken down by destination group match the per-group
    // counters, and their sum matches the total.
    let mut lands_per_group = vec![0u64; case.groups];
    for p in tel.spans.points() {
        if p.kind == span::MIGRATE_LAND {
            lands_per_group[p.loc as usize] += 1;
        }
    }
    prop_assert_eq!(&lands_per_group, &r.stats.migrated_per_group);
    prop_assert_eq!(
        r.stats.migrated_per_group.iter().sum::<u64>(),
        r.stats.migrated_requests
    );

    // --- FIFO bounds: every probe sample within its slot count ---------
    let mut peak_send = 0.0f64;
    for series in tel.probes.series() {
        let bound = match series.name() {
            "send_fifo" => SEND_FIFO_SLOTS,
            "recv_fifo" => RECV_FIFO_SLOTS,
            _ => continue,
        };
        for s in series.iter() {
            if series.name() == "send_fifo" {
                peak_send = peak_send.max(s.value);
            }
            prop_assert!(
                s.value <= bound as f64,
                "{} of group {} read {} > {} slots",
                series.name(),
                series.key(),
                s.value,
                bound
            );
        }
    }

    // --- Per-request lifecycle reconstruction -------------------------
    let completion_of: HashMap<_, _> = r.system.completions.iter().map(|c| (c.id, c)).collect();
    let sorted = tel.spans.sorted_by_track();
    prop_assert!(!sorted.is_empty());
    let mut start = 0;
    while start < sorted.len() {
        let track = sorted[start].track;
        let mut end = start;
        while end < sorted.len() && sorted[end].track == track {
            end += 1;
        }
        let pts: &[SpanPoint] = &sorted[start..end];
        start = end;

        let req = &trace.requests()[track as usize];
        let c = completion_of[&req.id];

        // Endpoints: the chain opens at the trace arrival and closes at
        // the recorded completion instant.
        prop_assert_eq!(pts[0].kind, span::ARRIVAL);
        prop_assert_eq!(pts[0].at, req.arrival);
        prop_assert_eq!(pts[0].at, c.arrival);
        let last = pts[pts.len() - 1];
        prop_assert_eq!(last.kind, span::COMPLETE);
        prop_assert_eq!(last.at, c.finish);
        prop_assert_eq!(last.loc as usize, c.core);

        // Chronological and gap-free: every consecutive pair is a phase
        // segment, so summed durations telescope to the latency.
        let mut summed = SimDuration::ZERO;
        for w in pts.windows(2) {
            prop_assert!(w[0].at <= w[1].at, "span points out of order");
            summed += w[1].at - w[0].at;
        }
        prop_assert_eq!(
            summed,
            c.latency(),
            "phase durations must sum to the recorded latency"
        );

        // A request migrates at most once: at most one landing, and the
        // completion's migrated flag equals "this track landed".
        let lands = pts.iter().filter(|p| p.kind == span::MIGRATE_LAND).count();
        prop_assert!(lands <= 1, "at-most-once migration violated");
        prop_assert_eq!(lands == 1, c.migrated);
    }
    Ok(peak_send)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn span_log_reconstructs_stats_and_latencies(case in case_strategy()) {
        check_traced(&case)?;
    }
}

/// The random cases never come near the send-FIFO bound. This one (20
/// groups, a 20 ns period, concurrency 19) fills the send FIFO, so the
/// bound check sees a FIFO at capacity.
#[test]
fn send_fifo_fills_to_its_bound() {
    let case = TelCase {
        groups: 20,
        group_size: 2,
        attachment: Attachment::Integrated,
        interface: Interface::Isa,
        period_ns: 20,
        bulk: 32,
        concurrency: 19,
        load: 0.9,
        connections: 2,
        seed: 7,
    };
    let peak = check_traced(&case).expect("traced checks hold");
    assert_eq!(peak, SEND_FIFO_SLOTS as f64, "the send FIFO must fill");
}
