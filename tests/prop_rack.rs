//! Property tests of the rack tier's determinism contract.
//!
//! Over random rack shapes, routing policies, per-server stress plans and
//! optional whole-server deaths:
//!
//! - a rack run is byte-identical across repeated invocations and across
//!   `parallel_map` thread counts (the serial routing pass fixes every
//!   sub-trace before any server simulates);
//! - routing round-trips: `route()` and `run()` agree on per-server
//!   assignment, and every offered request either completes exactly once
//!   (unique global id, latency at least its drawn service time) or is
//!   counted `lost` — never both, never twice, even when death retries
//!   re-route a request through a second server.

use altocumulus::{RackConfig, RackResult, RackWorld, RoutePolicy, ServerDeath};
use proptest::prelude::*;
use simcore::faults::FaultPlan;
use simcore::time::SimTime;
use workload::{poisson_trace, ServiceDistribution, Trace};

#[derive(Debug, Clone)]
struct Case {
    servers: usize,
    groups: usize,
    group_size: usize,
    load: f64,
    connections: u32,
    seed: u64,
    affinity: bool,
    power_k: usize,
    stress: bool,
    death_frac: Option<f64>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (
            1usize..=4,  // servers
            1usize..=2,  // groups per server
            2usize..=6,  // group size
            0.1f64..0.8, // offered load
            1u32..32,    // connections
            0u64..1000,  // seed
        ),
        any::<bool>(),
        1usize..=4,
        any::<bool>(),
        prop_oneof![Just(None), (0.3f64..0.8).prop_map(Some)],
    )
        .prop_map(
            |(
                (servers, groups, group_size, load, connections, seed),
                affinity,
                power_k,
                stress,
                death_frac,
            )| {
                Case {
                    servers,
                    groups,
                    group_size,
                    load,
                    connections,
                    seed,
                    affinity,
                    power_k,
                    stress,
                    death_frac,
                }
            },
        )
}

fn build(case: &Case) -> (RackConfig, Trace) {
    let dist = ServiceDistribution::bimodal_paper();
    let cores = case.groups * case.group_size;
    let trace = poisson_trace(
        dist,
        case.load,
        case.servers * cores,
        400,
        case.connections,
        case.seed,
    );
    let horizon = trace.requests().last().unwrap().arrival;

    let mut rack = RackConfig::ac(case.servers, case.groups, case.group_size, dist.mean());
    rack.seed = case.seed ^ 0xACC;
    rack.policy = RoutePolicy {
        power_k: case.power_k,
        affinity: case.affinity,
        est_service: dist.mean(),
        ..Default::default()
    };
    if case.stress {
        // Intra-server faults on worker cores only (manager tiles are
        // excluded by AcConfig's fault validation).
        let workers: Vec<usize> = (0..cores).filter(|c| c % case.group_size != 0).collect();
        rack.server_faults = (0..case.servers)
            .map(|s| FaultPlan::stress(0xF00 + case.seed + s as u64, &workers, 0.2, horizon))
            .collect();
    }
    if let Some(f) = case.death_frac {
        rack.deaths = vec![ServerDeath {
            server: case.seed as usize % case.servers,
            at: SimTime::from_ps((horizon.as_ps() as f64 * f) as u64),
        }];
    }
    (rack, trace)
}

fn digest(r: &RackResult) -> String {
    format!(
        "{:?}|{:?}|{:?}|{}|{}|{}",
        r.system.completions, r.routing, r.per_server, r.offered, r.events, r.peak_queue
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rack_runs_are_deterministic_across_threads_and_repeats(case in case_strategy()) {
        let (rack, trace) = build(&case);
        let world = RackWorld::new(rack);
        let base = world.run(&trace, 1);
        let again = world.run(&trace, 1);
        prop_assert_eq!(digest(&base), digest(&again), "repeat run diverged");
        for threads in [2usize, 4] {
            let t = world.run(&trace, threads);
            prop_assert_eq!(digest(&base), digest(&t), "threads={} diverged", threads);
        }
    }

    #[test]
    fn rack_runs_conserve_requests(case in case_strategy()) {
        let (rack, trace) = build(&case);
        let world = RackWorld::new(rack);

        // route()/run() agree on what each server was asked to do.
        let routing = world.route(&trace);
        let r = world.run(&trace, 1);
        for (s, sub) in routing.sub_traces.iter().enumerate() {
            prop_assert_eq!(r.per_server[s].assigned, sub.len());
        }

        // Every request completes exactly once or is lost, never both.
        prop_assert_eq!(
            r.system.completions.len() as u64 + r.routing.lost,
            r.offered as u64
        );
        let mut seen = vec![false; r.offered];
        for c in &r.system.completions {
            let i = c.id.0 as usize;
            prop_assert!(!seen[i], "request {} completed twice", i);
            seen[i] = true;
            let req = &trace.requests()[i];
            prop_assert_eq!(c.arrival, req.arrival);
            prop_assert!(c.latency() >= req.service);
        }
        // Losses only ever come from a rack whose every server died.
        if r.routing.lost > 0 {
            prop_assert!(case.death_frac.is_some() && case.servers == 1);
        }
    }
}
