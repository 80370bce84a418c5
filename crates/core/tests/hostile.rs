//! Hostile configurations: degenerate traces, overload, one-worker groups
//! and mass failures. Each must end in a clean result — no panic, no hang —
//! for ALTOCUMULUS (ACint and ACrss) and for d-FCFS where the case has a
//! d-FCFS counterpart. Every result must also conserve requests: no more
//! completions than the trace holds, and no request id completing twice.

use altocumulus::{AcConfig, Altocumulus};
use schedulers::common::{RpcSystem, SystemResult};
use schedulers::dfcfs::{DFcfs, DFcfsConfig};
use simcore::faults::{FaultPlan, ManagerFailure, WorkerFailure};
use simcore::time::{SimDuration, SimTime};
use std::collections::HashSet;
use std::ops::Range;
use workload::{PoissonProcess, ServiceDistribution, Trace, TraceBuilder};

const MEAN: SimDuration = SimDuration::from_ns(850);

fn trace(cores: usize, load: f64, n: usize) -> Trace {
    let dist = ServiceDistribution::Fixed(MEAN);
    let rate = PoissonProcess::rate_for_load(load, cores, dist.mean());
    TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(n)
        .connections(256)
        .seed(77)
        .build()
}

/// ACint and ACrss on the same mesh.
fn ac_pair(groups: usize, group_size: usize) -> [AcConfig; 2] {
    [
        AcConfig::ac_int(groups, group_size, MEAN),
        AcConfig::ac_rss(groups, group_size, MEAN),
    ]
}

/// Checks request conservation and returns the completion count.
fn conserved(r: &SystemResult, t: &Trace) -> usize {
    let n = r.completions.len();
    assert!(
        n <= t.len(),
        "{n} completions from a {}-request trace",
        t.len()
    );
    let mut seen = HashSet::with_capacity(n);
    for c in &r.completions {
        assert!(seen.insert(c.id), "request {:?} completed twice", c.id);
    }
    n
}

/// Runs every AC configuration in `cfgs` on `t` and returns the
/// completion counts.
fn run_ac(cfgs: [AcConfig; 2], t: &Trace) -> [usize; 2] {
    cfgs.map(|cfg| conserved(&Altocumulus::new(cfg).run_detailed(t).system, t))
}

fn run_dfcfs(cfg: DFcfsConfig, t: &Trace) -> usize {
    conserved(&DFcfs::new(cfg).run(t), t)
}

/// Every worker core of `groups` (cores `g * group_size + 1 ..`) dead at
/// `at_us` microseconds.
fn workers_dead(groups: Range<usize>, group_size: usize, at_us: u64) -> Vec<WorkerFailure> {
    groups
        .flat_map(|g| (1..group_size).map(move |w| g * group_size + w))
        .map(|core| WorkerFailure {
            core,
            at: SimTime::from_us(at_us),
        })
        .collect()
}

#[test]
fn zero_length_trace() {
    let t = Trace::new(Vec::new());
    assert_eq!(run_ac(ac_pair(4, 16), &t), [0, 0]);
    assert_eq!(run_ac(ac_pair(1, 2), &t), [0, 0]);
    assert_eq!(run_dfcfs(DFcfsConfig::ix(64), &t), 0);
}

#[test]
fn overload_still_drains_every_request() {
    let t = trace(64, 1.5, 20_000);
    assert_eq!(run_ac(ac_pair(4, 16), &t), [20_000; 2]);
    assert_eq!(run_dfcfs(DFcfsConfig::ix(64), &t), 20_000);
}

#[test]
fn one_worker_per_group() {
    // group_size = 2: a manager plus a single worker per group.
    let t = trace(16, 0.6, 5_000);
    assert_eq!(run_ac(ac_pair(8, 2), &t), [5_000; 2]);
    let t = trace(2, 0.6, 2_000);
    assert_eq!(run_ac(ac_pair(1, 2), &t), [2_000; 2]);
    assert_eq!(run_dfcfs(DFcfsConfig::ix(1), &t), 2_000);
}

#[test]
fn one_group_loses_every_worker() {
    // Group 1's whole worker pool dies at 1 µs; the emergency drain moves
    // its queue to live peers, so every request still completes.
    let t = trace(64, 0.6, 20_000);
    let cfgs = ac_pair(4, 16).map(|mut cfg| {
        cfg.faults = FaultPlan {
            worker_failures: workers_dead(1..2, 16, 1),
            ..FaultPlan::default()
        };
        cfg
    });
    assert_eq!(run_ac(cfgs, &t), [20_000; 2]);
}

/// Every worker of every group dead at 2 µs. Only requests finished by
/// then complete; the emergency drain bounces the stranded queues between
/// workerless groups until the stall bound stops the managers' timers. The
/// bound counts ticks, not requests, so the mesh is kept to two groups and
/// each attachment gets its own test to stay quick in debug builds.
fn every_worker_dead(cfg: AcConfig) {
    let t = trace(cfg.total_cores(), 0.6, 5_000);
    let mut cfg = cfg;
    cfg.faults = FaultPlan {
        worker_failures: workers_dead(0..cfg.groups, cfg.group_size, 2),
        ..FaultPlan::default()
    };
    let n = conserved(&Altocumulus::new(cfg).run_detailed(&t).system, &t);
    assert!(
        n < t.len(),
        "{n} of {} completed with no live worker",
        t.len()
    );
}

#[test]
fn every_worker_dead_ac_int() {
    every_worker_dead(AcConfig::ac_int(2, 16, MEAN));
}

#[test]
fn every_worker_dead_ac_rss() {
    every_worker_dead(AcConfig::ac_rss(2, 16, MEAN));
}

#[test]
fn every_core_dead_dfcfs() {
    let t = trace(64, 0.6, 5_000);
    let mut cfg = DFcfsConfig::ix(64);
    cfg.faults.worker_failures = (0..64)
        .map(|core| WorkerFailure {
            core,
            at: SimTime::from_us(2),
        })
        .collect();
    let n = run_dfcfs(cfg, &t);
    assert!(
        n < t.len(),
        "{n} of {} completed with no live core",
        t.len()
    );
}

#[test]
fn every_manager_dead() {
    // No manager survives to dispatch or take over: workers finish what
    // they already hold and the rest of the trace is stranded.
    let t = trace(64, 0.6, 5_000);
    let cfgs = ac_pair(4, 16).map(|mut cfg| {
        cfg.faults = FaultPlan {
            manager_failures: (0..4)
                .map(|group| ManagerFailure {
                    group,
                    at: SimTime::from_us(1),
                })
                .collect(),
            ..FaultPlan::default()
        };
        cfg
    });
    let done = run_ac(cfgs, &t);
    assert!(done.iter().all(|&n| n > 0 && n < t.len()), "{done:?}");
}
