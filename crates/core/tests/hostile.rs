//! Hostile configurations: degenerate traces, overload, one-worker groups
//! and mass failures. Each must end in a clean result — no panic, no hang —
//! for ALTOCUMULUS (ACint and ACrss), for d-FCFS where the case has a
//! d-FCFS counterpart, and for every other baseline (the three JBSQ
//! variants, ZygOS, Shinjuku and ideal c-FCFS) on the empty trace, under
//! overload and, for JBSQ, with every core dead. Every result must also
//! conserve requests: no more completions than the trace holds, and no
//! request id completing twice.

use altocumulus::{AcConfig, Altocumulus};
use schedulers::central::{CentralConfig, CentralDispatch};
use schedulers::common::{RpcSystem, SystemResult};
use schedulers::dfcfs::{DFcfs, DFcfsConfig};
use schedulers::ideal::{CentralQueue, CentralQueueConfig};
use schedulers::jbsq::{Jbsq, JbsqConfig, JbsqVariant};
use schedulers::stealing::{StealingConfig, WorkStealing};
use simcore::faults::{FaultPlan, ManagerFailure, WorkerFailure};
use simcore::time::{SimDuration, SimTime};
use std::collections::HashSet;
use std::ops::Range;
use workload::{poisson_trace, ServiceDistribution, Trace};

const MEAN: SimDuration = SimDuration::from_ns(850);

fn trace(cores: usize, load: f64, n: usize) -> Trace {
    poisson_trace(ServiceDistribution::Fixed(MEAN), load, cores, n, 256, 77)
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

const JBSQ: [JbsqVariant; 3] = [
    JbsqVariant::RpcValet,
    JbsqVariant::Nebula,
    JbsqVariant::NanoPu,
];

/// Runs every baseline but d-FCFS (the three JBSQ variants, ZygOS,
/// Shinjuku and ideal c-FCFS) on `cores` cores over `t`, returning each
/// one's name and completion count.
fn run_other_baselines(cores: usize, t: &Trace) -> Vec<(String, usize)> {
    let mut systems: Vec<Box<dyn RpcSystem>> = vec![
        Box::new(WorkStealing::new(StealingConfig::zygos(cores))),
        Box::new(CentralDispatch::new(CentralConfig::shinjuku(cores))),
        Box::new(CentralQueue::new(CentralQueueConfig::ideal(cores))),
    ];
    systems.extend(JBSQ.map(|v| Box::new(Jbsq::new(v, cores)) as Box<dyn RpcSystem>));
    systems
        .into_iter()
        .map(|mut sys| (sys.name(), conserved(&sys.run(t), t)))
        .collect()
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
    for (name, n) in run_other_baselines(64, &t) {
        assert_eq!(n, 0, "{name}");
    }
}

#[test]
fn overload_still_drains_every_request() {
    let t = trace(64, 1.5, 20_000);
    assert_eq!(run_ac(ac_pair(4, 16), &t), [20_000; 2]);
    assert_eq!(run_dfcfs(DFcfsConfig::ix(64), &t), 20_000);
    for (name, n) in run_other_baselines(64, &t) {
        assert_eq!(n, 20_000, "{name}");
    }
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
/// then complete; the stranded queues stay put (the emergency drain has no
/// peer with a live worker to evacuate to), and the managers' timers stop
/// at their first tick after the last worker dies.
fn every_worker_dead(cfg: AcConfig) {
    let t = trace(cfg.total_cores(), 0.6, 5_000);
    let mut cfg = cfg;
    cfg.faults = FaultPlan {
        worker_failures: workers_dead(0..cfg.groups, cfg.group_size, 2),
        ..FaultPlan::default()
    };
    let r = Altocumulus::new(cfg).run_detailed(&t);
    let n = conserved(&r.system, &t);
    assert!(
        n < t.len(),
        "{n} of {} completed with no live worker",
        t.len()
    );
    // The trace's own events plus the few ticks and deliveries before the
    // deaths (5 133 for ACint, 5 144 for ACrss): no tick keeps spinning
    // once no worker is left, and no MIGRATE traffic between workerless
    // groups on top.
    assert!(
        r.summary.events < t.len() as u64 + 200,
        "{} events: ticks or migrations outlived the last worker",
        r.summary.events
    );
    assert_eq!(r.faults.emergency_migrations, 0);
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
fn every_core_dead_jbsq() {
    // The central queues stop pushing once no live core is left: what the
    // cores held is lost and the rest of the trace waits at the NIC.
    let t = trace(64, 0.6, 5_000);
    for variant in JBSQ {
        let mut cfg = JbsqConfig::of(variant, 64);
        cfg.faults.worker_failures = (0..64)
            .map(|core| WorkerFailure {
                core,
                at: SimTime::from_us(2),
            })
            .collect();
        let n = conserved(&Jbsq::with_config(variant, cfg).run(&t), &t);
        assert!(
            n < t.len(),
            "{}: {n} of {} completed with no live core",
            variant.name(),
            t.len()
        );
    }
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
