//! Rack-tier scenario tests: the two-level scheduler composes with the
//! single-server worlds without changing them.
//!
//! The identity test is the strongest contract: a 1-server rack behind an
//! ideal ToR draws zero rack RNG words and reproduces the bare
//! [`Altocumulus`] run byte-for-byte — same completions in the same order,
//! same engine, same event count. The death test pins the takeover
//! accounting: killing a server mid-run loses nothing and never counts a
//! request twice.

use altocumulus::{AcConfig, Altocumulus, RackConfig, RackWorld, RoutePolicy, ServerDeath};
use altocumulus::{ServerSpec, TorConfig};
use simcore::time::SimTime;
use workload::{poisson_trace, ServiceDistribution, Trace};

fn trace_for(load: f64, cores: usize, requests: usize, connections: u32, seed: u64) -> Trace {
    poisson_trace(
        ServiceDistribution::bimodal_paper(),
        load,
        cores,
        requests,
        connections,
        seed,
    )
}

#[test]
fn single_server_rack_reproduces_bare_world_byte_for_byte() {
    let mean = ServiceDistribution::bimodal_paper().mean();
    let trace = trace_for(0.6, 16, 6_000, 32, 42);

    let cfg = AcConfig::ac_int(2, 8, mean);
    let bare = Altocumulus::new(cfg.clone()).run_detailed(&trace);

    let mut rack = RackConfig::ac(1, 2, 8, mean);
    rack.tor = TorConfig::ideal();
    let ServerSpec::Ac(template) = &rack.template else {
        panic!("template is AC")
    };
    assert_eq!(format!("{template:?}"), format!("{cfg:?}"));

    for threads in [1, 4] {
        let r = RackWorld::new(rack.clone()).run(&trace, threads);
        assert_eq!(r.routing.rack_rng_draws, 0, "1-server rack draws no RNG");
        assert_eq!(r.routing.tor_max_queue_ps, 0, "ideal ToR never queues");
        assert_eq!(r.system.completions, bare.system.completions);
        assert_eq!(r.system.end_time, bare.system.end_time);
        assert_eq!(r.system.p99(), bare.system.p99());
        assert_eq!(r.per_server.len(), 1);
        assert_eq!(r.per_server[0].engine, bare.engine);
        assert_eq!(r.per_server[0].events, bare.summary.events);
        assert_eq!(r.events, bare.summary.events);
    }
}

#[test]
fn affinity_and_least_load_route_sanely() {
    let mean = ServiceDistribution::bimodal_paper().mean();
    let servers = 4;
    let trace = trace_for(0.5, servers * 16, 8_000, 64, 7);

    // Affinity: every request is exactly one of {new binding, hit, spill
    // rebind} — the counters partition the offered load.
    let affinity = RackConfig::ac(servers, 2, 8, mean);
    let ra = RackWorld::new(affinity).run(&trace, 1);
    let s = ra.routing;
    assert_eq!(
        s.new_bindings + s.affinity_hits + s.affinity_rebinds,
        trace.len() as u64
    );
    assert!(s.new_bindings <= 64, "at most one binding per connection");
    assert!(s.affinity_hits > 0);
    assert_eq!(s.dead_rebinds, 0, "healthy rack never rebinds off a death");
    assert_eq!(ra.system.completions.len(), trace.len());

    // Pure least-load: no affinity state at all, and with k == servers the
    // sampler is exhaustive, so load spreads over every server.
    let mut least = RackConfig::ac(servers, 2, 8, mean);
    least.policy = RoutePolicy {
        est_service: mean,
        ..RoutePolicy::least_load(servers)
    };
    let rl = RackWorld::new(least).run(&trace, 1);
    let l = rl.routing;
    assert_eq!(l.new_bindings + l.affinity_hits + l.affinity_rebinds, 0);
    assert_eq!(l.rack_rng_draws, 0, "k == servers needs no sampling draws");
    for p in &rl.per_server {
        assert!(p.assigned > 0, "{}: least-load left a server idle", p.label);
    }
    assert_eq!(rl.system.completions.len(), trace.len());
}

#[test]
fn whole_server_death_redirects_without_double_counting() {
    let mean = ServiceDistribution::bimodal_paper().mean();
    let servers = 4;
    let cores = 16;
    let trace = trace_for(0.6, servers * cores, 8_000, 64, 11);
    let horizon = trace.requests().last().unwrap().arrival;

    let mut rack = RackConfig::ac(servers, 2, 8, mean);
    let dead = 1;
    let death_at = SimTime::from_ps(horizon.as_ps() / 2);
    rack.deaths = vec![ServerDeath {
        server: dead,
        at: death_at,
    }];
    let r = RackWorld::new(rack).run(&trace, 1);

    // Nothing lost, everything completed...
    assert_eq!(r.routing.lost, 0, "survivors must absorb the dead load");
    assert_eq!(r.system.completions.len(), r.offered);
    assert!(
        r.routing.death_retries + r.routing.limbo_redirects > 0,
        "the death must actually have displaced requests"
    );
    assert!(
        r.routing.dead_rebinds > 0,
        "bound connections must move off"
    );

    // ...exactly once: unique global ids covering the whole trace.
    let mut seen = vec![false; r.offered];
    for c in &r.system.completions {
        let i = c.id.0 as usize;
        assert!(!seen[i], "request {i} completed twice");
        seen[i] = true;
        let req = &trace.requests()[i];
        assert_eq!(c.arrival, req.arrival, "latency is ToR-side");
        assert!(c.latency() >= req.service);
    }
    assert!(seen.iter().all(|&b| b));

    // No completion is credited to the dead server at or after its death,
    // and the per-server table agrees with the merged result.
    let death_ps = death_at.as_ps();
    let mut credited = vec![0usize; servers];
    for c in &r.system.completions {
        let s = c.core / cores;
        credited[s] += 1;
        if s == dead {
            assert!(c.finish.as_ps() < death_ps, "ghost completion after death");
        }
    }
    for (s, p) in r.per_server.iter().enumerate() {
        assert_eq!(p.completed, credited[s], "{}", p.label);
    }
    assert!(credited[dead] < r.per_server[dead].assigned);
}
