//! Integration tests for deterministic fault injection and graceful
//! degradation in the Altocumulus system (see `simcore::faults` and
//! DESIGN.md § Fault model & degradation).

use altocumulus::config::Resilience;
use altocumulus::{AcConfig, AcResult, Altocumulus, ControlPlane};
use simcore::faults::{FaultPlan, FifoStall, ManagerFailure, NocFaults, Straggler, WorkerFailure};
use simcore::time::{SimDuration, SimTime};
use workload::{poisson_trace, ServiceDistribution, Trace};

const GROUPS: usize = 4;
const GROUP_SIZE: usize = 16;
const CORES: usize = GROUPS * GROUP_SIZE;

fn trace(load: f64, n: usize, conns: u32) -> Trace {
    let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
    poisson_trace(dist, load, CORES, n, conns, 77)
}

fn cfg() -> AcConfig {
    AcConfig::ac_int(GROUPS, GROUP_SIZE, SimDuration::from_ns(850))
}

fn run(c: AcConfig, t: &Trace) -> AcResult {
    Altocumulus::new(c).run_detailed(t)
}

/// An inert-but-non-empty plan: every fault knob present, none with any
/// observable effect (slowdown 1.0, zero-probability NoC). Exercises the
/// fault-layer *code paths* while the physics must stay untouched.
fn inert_plan() -> FaultPlan {
    FaultPlan {
        stragglers: vec![Straggler {
            first_core: 0,
            last_core: CORES - 1,
            from: SimTime::ZERO,
            until: SimTime::MAX,
            slowdown: 1.0,
        }],
        noc: Some(NocFaults {
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay: SimDuration::from_ns(500),
        }),
        ..FaultPlan::default()
    }
}

fn assert_identical(a: &AcResult, b: &AcResult) {
    assert_eq!(a.system.completions, b.system.completions);
    assert_eq!(a.system.end_time, b.system.end_time);
    assert_eq!(a.stats.ticks, b.stats.ticks);
    assert_eq!(a.stats.migrate_messages, b.stats.migrate_messages);
    assert_eq!(a.stats.migrated_requests, b.stats.migrated_requests);
    assert_eq!(a.stats.nacked_messages, b.stats.nacked_messages);
    assert_eq!(a.stats.update_messages, b.stats.update_messages);
    assert_eq!(a.stats.guard_blocked, b.stats.guard_blocked);
}

#[test]
fn inert_nonempty_plan_is_byte_identical_to_empty() {
    let t = trace(0.7, 20_000, 5);
    let healthy = run(cfg(), &t);
    let mut c = cfg();
    c.faults = inert_plan();
    let inert = run(c, &t);
    assert_identical(&healthy, &inert);
    // The fault layer ran (it exists) but acted on nothing.
    assert_eq!(inert.faults.worker_failures, 0);
    assert_eq!(inert.faults.resteered_requests, 0);
    assert_eq!(inert.faults.updates_dropped, 0);
    // A fault-free run never touches the FAULTS stream — its draw count is
    // part of the recorded run identity.
    assert_eq!(healthy.rng.faults, 0);
}

#[test]
fn straggler_inflates_tail_but_loses_nothing() {
    let t = trace(0.7, 20_000, 64);
    let healthy = run(cfg(), &t);
    let mut c = cfg();
    // Second group's workers run 6x slower through the middle of the run.
    c.faults.stragglers.push(Straggler {
        first_core: GROUP_SIZE + 1,
        last_core: 2 * GROUP_SIZE - 1,
        from: SimTime::from_us(30),
        until: SimTime::from_us(200),
        slowdown: 6.0,
    });
    let slowed = run(c, &t);
    assert_eq!(slowed.system.completions.len(), t.len());
    assert!(
        slowed.system.p99() > healthy.system.p99(),
        "straggling cores must hurt the tail: {} vs {}",
        slowed.system.p99(),
        healthy.system.p99()
    );
}

#[test]
fn dead_workers_resteer_and_everything_completes() {
    let t = trace(0.7, 30_000, 64);
    let mut c = cfg();
    for core in [1usize, 2, 3] {
        c.faults.worker_failures.push(WorkerFailure {
            core,
            at: SimTime::from_us(50),
        });
    }
    let r = run(c, &t);
    assert_eq!(
        r.system.completions.len(),
        t.len(),
        "graceful degradation must not lose requests"
    );
    assert_eq!(r.faults.worker_failures, 3);
    assert!(
        r.faults.resteered_requests > 0,
        "at 70% load the dying workers must have held work: {:?}",
        r.faults
    );
}

#[test]
fn whole_group_death_triggers_emergency_drain() {
    let t = trace(0.55, 30_000, 64);
    let mut c = cfg();
    c.resilience = Resilience::hardened();
    // Every worker of group 0 dies; only the manager survives to evacuate.
    for w in 1..GROUP_SIZE {
        c.faults.worker_failures.push(WorkerFailure {
            core: w,
            at: SimTime::from_us(40),
        });
    }
    let r = run(c, &t);
    assert_eq!(r.system.completions.len(), t.len());
    assert_eq!(r.faults.worker_failures, (GROUP_SIZE - 1) as u64);
    assert!(
        r.faults.emergency_migrations > 0,
        "a workerless group must evacuate its queue: {:?}",
        r.faults
    );
}

#[test]
fn manager_death_is_taken_over_by_a_neighbor() {
    let t = trace(0.55, 30_000, 64);
    let mut c = cfg();
    c.resilience = Resilience::hardened();
    c.faults.manager_failures.push(ManagerFailure {
        group: 1,
        at: SimTime::from_us(50),
    });
    let r = run(c, &t);
    assert_eq!(
        r.system.completions.len(),
        t.len(),
        "takeover must rescue the dead manager's queue and arrivals"
    );
    assert_eq!(r.faults.manager_failures, 1);
    assert_eq!(r.faults.takeovers, 1);
    assert!(
        r.faults.redirected_arrivals > 0,
        "post-takeover arrivals steered at group 1 must land at the heir: {:?}",
        r.faults
    );
}

#[test]
fn staged_migrations_into_a_dead_manager_time_out_and_resteer() {
    let t = trace(0.8, 30_000, 5); // imbalanced => frequent migrations
    let mut c = cfg();
    // Slow failure detection: peers keep MIGRATE-ing into the dead group's
    // frozen (attractive) queue view until the per-migration timeout fires.
    c.resilience = Resilience {
        nack_backoff: Some(SimDuration::from_us(2)),
        migrate_timeout: Some(SimDuration::from_us(10)),
        takeover_delay: SimDuration::from_us(40),
    };
    c.faults.manager_failures.push(ManagerFailure {
        group: 1,
        at: SimTime::from_us(60),
    });
    let r = run(c, &t);
    assert_eq!(r.system.completions.len(), t.len());
    assert!(
        r.faults.migrate_timeouts > 0,
        "MIGRATEs dropped by the dead manager must time out: {:?}",
        r.faults
    );
    assert!(
        r.faults.resteered_requests > 0,
        "timed-out descriptors must return to service: {:?}",
        r.faults
    );
}

#[test]
fn fifo_stall_storm_nacks_and_recovers() {
    let t = trace(0.8, 30_000, 5); // few connections => heavy imbalance
    let healthy = run(cfg(), &t);
    let mut c = cfg();
    c.resilience = Resilience::hardened();
    // Every group's receive FIFO wedges for a long window mid-run: all
    // migrations NACK, sources back off, then the storm clears.
    for g in 0..GROUPS {
        c.faults.fifo_stalls.push(FifoStall {
            group: g,
            from: SimTime::from_us(50),
            until: SimTime::from_us(250),
        });
    }
    let r = run(c, &t);
    assert_eq!(r.system.completions.len(), t.len());
    assert!(
        r.stats.nacked_messages > healthy.stats.nacked_messages,
        "a stalled receive FIFO must NACK incoming MIGRATEs: {} vs healthy {}",
        r.stats.nacked_messages,
        healthy.stats.nacked_messages
    );
    assert!(
        r.faults.backoff_skipped > 0,
        "hardened resilience must back off NACKing destinations: {:?}",
        r.faults
    );
}

#[test]
fn faulted_runs_are_deterministic() {
    let t = trace(0.7, 20_000, 64);
    let horizon = t.requests().last().unwrap().arrival;
    let workers: Vec<usize> = (0..CORES).filter(|c| c % GROUP_SIZE != 0).collect();
    let make = || {
        let mut c = cfg();
        c.resilience = Resilience::hardened();
        c.faults = FaultPlan::stress(42, &workers, 0.5, horizon);
        run(c, &t)
    };
    let a = make();
    let b = make();
    assert_eq!(a.system.completions, b.system.completions);
    assert_eq!(a.system.end_time, b.system.end_time);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.stats.migrate_messages, b.stats.migrate_messages);
    assert!(
        a.faults.worker_failures > 0 || a.faults.updates_dropped > 0,
        "the stress plan must actually inject something: {:?}",
        a.faults
    );
    // Replay provenance: the per-stream draw counts recorded into run
    // artifacts must be deterministic, and a lossy stress plan must
    // actually consume the FAULTS stream.
    assert_eq!(a.rng, b.rng);
    assert!(a.rng.faults > 0, "lossy NoC must draw: {:?}", a.rng);
}

#[test]
fn control_planes_agree_under_deterministic_faults() {
    // NoC faults draw from an RNG whose draw count differs between control
    // planes (idle-elided ticks send no UPDATEs), so cross-plane equivalence
    // is only claimed for the deterministic fault dimensions.
    let t = trace(0.7, 20_000, 5);
    let make = |plane: ControlPlane| {
        let mut c = cfg();
        c.control_plane = plane;
        c.resilience = Resilience::hardened();
        c.faults.stragglers.push(Straggler {
            first_core: 1,
            last_core: GROUP_SIZE - 1,
            from: SimTime::from_us(30),
            until: SimTime::from_us(120),
            slowdown: 3.0,
        });
        c.faults.worker_failures.push(WorkerFailure {
            core: GROUP_SIZE + 1,
            at: SimTime::from_us(60),
        });
        c.faults.fifo_stalls.push(FifoStall {
            group: 2,
            from: SimTime::from_us(40),
            until: SimTime::from_us(90),
        });
        run(c, &t)
    };
    let el = make(ControlPlane::Elided);
    let ev = make(ControlPlane::EventDriven);
    assert_eq!(el.system.completions, ev.system.completions);
    assert_eq!(el.system.end_time, ev.system.end_time);
    assert_eq!(el.faults, ev.faults);
    assert_eq!(el.stats.migrated_requests, ev.stats.migrated_requests);
}
