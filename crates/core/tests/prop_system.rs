//! Property-based tests over whole-system invariants: for arbitrary (small)
//! configurations and workloads, the Altocumulus simulation conserves
//! requests, respects at-most-once migration, and never reports impossible
//! latencies.

use altocumulus::{AcConfig, Altocumulus, Attachment, Interface};
use proptest::prelude::*;
use simcore::time::SimDuration;
use workload::{poisson_trace, ServiceDistribution};

#[derive(Debug, Clone)]
struct SysCase {
    groups: usize,
    group_size: usize,
    attachment: Attachment,
    interface: Interface,
    period_ns: u64,
    bulk: usize,
    concurrency: usize,
    local_bound: usize,
    load: f64,
    connections: u32,
    seed: u64,
}

fn case_strategy() -> impl Strategy<Value = SysCase> {
    (
        1usize..5, // groups
        2usize..9, // group_size
        prop_oneof![Just(Attachment::Integrated), Just(Attachment::RssPcie)],
        prop_oneof![Just(Interface::Isa), Just(Interface::Msr)],
        50u64..1000, // period ns
        1usize..33,  // bulk
        1usize..9,   // concurrency (clamped to bulk below)
        1usize..3,   // local bound
        0.1f64..0.9, // load
        1u32..32,    // connections
        0u64..1000,  // seed
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
                lb,
                load,
                conns,
                seed,
            )| {
                SysCase {
                    groups,
                    group_size,
                    attachment,
                    interface,
                    period_ns,
                    bulk,
                    concurrency: conc.min(bulk),
                    local_bound: lb,
                    load,
                    connections: conns,
                    seed,
                }
            },
        )
}

fn build(case: &SysCase, mean: SimDuration) -> Altocumulus {
    let mut cfg = match case.attachment {
        Attachment::Integrated => AcConfig::ac_int(case.groups, case.group_size, mean),
        Attachment::RssPcie => AcConfig::ac_rss(case.groups, case.group_size, mean),
    };
    cfg.interface = case.interface;
    cfg.period = SimDuration::from_ns(case.period_ns);
    cfg.bulk = case.bulk;
    cfg.concurrency = case.concurrency;
    cfg.local_bound = case.local_bound;
    cfg.seed = case.seed;
    Altocumulus::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation + sanity across arbitrary configurations.
    #[test]
    fn system_conserves_requests(case in case_strategy()) {
        let dist = ServiceDistribution::Exponential {
            mean: SimDuration::from_ns(850),
        };
        let cores = case.groups * case.group_size;
        let trace = poisson_trace(dist, case.load, cores, 1500, case.connections, case.seed);
        let r = build(&case, dist.mean()).run_detailed(&trace);

        // Every request completes exactly once.
        prop_assert_eq!(r.system.completions.len(), trace.len());
        let mut seen = vec![false; trace.len()];
        for c in &r.system.completions {
            let i = c.id.0 as usize;
            prop_assert!(!seen[i], "request {i} completed twice");
            seen[i] = true;
        }
        // Latency >= handler cost; cores in range.
        for c in &r.system.completions {
            let req = &trace.requests()[c.id.0 as usize];
            prop_assert!(c.latency() >= req.service);
            prop_assert!(c.core < cores);
        }
        // Migration accounting is internally consistent.
        let migrated = r.system.completions.iter().filter(|c| c.migrated).count() as u64;
        prop_assert_eq!(migrated, r.stats.migrated_requests);
        if case.groups == 1 {
            prop_assert_eq!(r.stats.migrate_messages, 0);
        }
        prop_assert!(r.stats.nacked_requests <= r.stats.migrate_messages * case.bulk as u64);
    }

    /// Determinism for arbitrary configurations.
    #[test]
    fn system_deterministic(case in case_strategy()) {
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let cores = case.groups * case.group_size;
        let trace = poisson_trace(dist, case.load, cores, 800, case.connections, case.seed);
        let a = build(&case, dist.mean()).run_detailed(&trace);
        let b = build(&case, dist.mean()).run_detailed(&trace);
        prop_assert_eq!(a.system.p99(), b.system.p99());
        prop_assert_eq!(a.system.end_time, b.system.end_time);
        prop_assert_eq!(a.stats.migrated_requests, b.stats.migrated_requests);
        prop_assert_eq!(a.stats.migrate_messages, b.stats.migrate_messages);
    }
}
