//! The four workloads and the cell that every measurement repeats.
//!
//! A cell builds a trace, builds the system, runs it and computes its
//! result stats, as one `parallel_map` job of a figure binary does. Each of
//! those four calls into a layer is timed from outside as one stage. Cell
//! `i` of a run with `--seed S` draws every input from seed `S + i`.

use altocumulus::config::Resilience;
use altocumulus::rack::ServerSpec;
use altocumulus::{
    event_kind_names, AcConfig, AcResult, Altocumulus, RackConfig, RackResult, RackWorld,
    ServerDeath,
};
use bench::{capture_telemetry, poisson_trace};
use rpcstack::stack::StackModel;
use schedulers::central::{CentralConfig, CentralDispatch};
use schedulers::common::{RpcSystem, SystemResult};
use schedulers::dfcfs::{DFcfs, DFcfsConfig};
use schedulers::jbsq::{Jbsq, JbsqVariant};
use schedulers::stealing::{StealingConfig, WorkStealing};
use simcore::faults::FaultPlan;
use simcore::rng::derive_seed;
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{fnv1a64_fold, Granularity, Recorder};
use std::hint::black_box;
use std::time::Instant;
use workload::realworld::clustered_bursty;
use workload::trace::Trace;
use workload::{PoissonProcess, ServiceDistribution};

/// Threads of the rack's per-server fan-out in the diagnostic runs. Measured
/// cells fan out on one thread: on a shared 2-thread host the second
/// hardware thread's noise spread rack cell times 7–9% between runs, against
/// 1.5–3% on one thread, and the calibration kernel cannot see it.
pub const FANOUT_THREADS: usize = 2;

/// The Fig. 10 line-up on 16 cores, cycled through by `baselines_16c`.
pub const BASELINES: [&str; 7] = [
    "IX", "ZygOS", "Shinjuku", "RPCValet", "Nebula", "nanoPU", "AC_rss",
];
const BASELINE_LOADS: [f64; 3] = [0.1, 0.5, 0.8];

/// Which system and traffic a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Steady,
    Bursty,
    RackFaults,
    Baselines,
}

/// One named workload: the system, the traffic and the latency limit.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// Requests offered per cell.
    pub requests: usize,
    /// Latency limit of `sim_slo_viol_pct`.
    pub slo: SimDuration,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady_16x16",
        shape: Shape::Steady,
        requests: 40_000,
        slo: SimDuration::from_us(4),
    },
    Workload {
        name: "bursty_16x16",
        shape: Shape::Bursty,
        requests: 40_000,
        slo: SimDuration::from_ns(4_500),
    },
    Workload {
        name: "rack_faults_4x64",
        shape: Shape::RackFaults,
        requests: 20_000,
        slo: SimDuration::from_us(300),
    },
    Workload {
        name: "baselines_16c",
        shape: Shape::Baselines,
        requests: 50_000,
        slo: SimDuration::from_us(300),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Cells in one pass over the workload's mix. Rounds end on a cycle
    /// boundary, so every round holds the same mix of systems and loads.
    pub fn cycle(&self) -> u64 {
        match self.shape {
            Shape::Baselines => (BASELINES.len() * BASELINE_LOADS.len()) as u64,
            _ => 1,
        }
    }

    /// The baseline system of the cell with seed `seed`, for
    /// `baselines_16c` only.
    pub fn baseline_of(&self, seed: u64) -> Option<&'static str> {
        (self.shape == Shape::Baselines).then(|| BASELINES[pair(seed).0])
    }

    /// Whether the cell with seed `seed` runs an Altocumulus engine, so the
    /// event-level diagnostics apply to it.
    pub fn runs_ac(&self, seed: u64) -> bool {
        self.baseline_of(seed).is_none_or(|s| s == "AC_rss")
    }
}

/// The (system, load) pair of a `baselines_16c` cell: consecutive cell
/// seeds walk the whole line-up, so one cycle holds every pair once.
fn pair(seed: u64) -> (usize, usize) {
    let p = (seed % (BASELINES.len() * BASELINE_LOADS.len()) as u64) as usize;
    (p / BASELINE_LOADS.len(), p % BASELINE_LOADS.len())
}

fn exp_850() -> ServiceDistribution {
    ServiceDistribution::Exponential {
        mean: SimDuration::from_ns(850),
    }
}

/// Cores a fault plan may fail: every core of the configuration except the
/// manager tile that leads each group.
pub fn fault_cores(cfg: &AcConfig) -> Vec<usize> {
    (0..cfg.total_cores())
        .filter(|c| c % cfg.group_size != 0)
        .collect()
}

/// The `workload.gen` stage: the cell's request trace.
pub fn gen(w: &Workload, seed: u64) -> Trace {
    match w.shape {
        Shape::Steady => poisson_trace(exp_850(), 0.6, 256, w.requests, 4096, seed),
        Shape::Bursty => {
            let rate = PoissonProcess::rate_for_load(0.8, 256, exp_850().mean());
            clustered_bursty(exp_850(), rate, 32, 1, w.requests, seed)
        }
        Shape::RackFaults => poisson_trace(
            ServiceDistribution::bimodal_paper(),
            0.7,
            4 * 64,
            w.requests,
            1024,
            seed,
        ),
        Shape::Baselines => poisson_trace(
            ServiceDistribution::bimodal_paper(),
            BASELINE_LOADS[pair(seed).1],
            16,
            w.requests,
            128,
            seed,
        ),
    }
}

/// A built system, ready to run one trace.
pub enum System {
    Ac(Altocumulus),
    Rack(RackWorld),
    Baseline(Box<dyn RpcSystem>),
}

/// What a run produced.
pub enum Outcome {
    Ac(Box<AcResult>),
    Rack(RackResult),
    Baseline(SystemResult),
}

impl Outcome {
    pub fn system(&self) -> &SystemResult {
        match self {
            Outcome::Ac(r) => &r.system,
            Outcome::Rack(r) => &r.system,
            Outcome::Baseline(r) => r,
        }
    }

    /// Requests the system gave up on: the rack's routing losses; nothing
    /// anywhere else may be lost.
    pub fn lost(&self) -> u64 {
        match self {
            Outcome::Rack(r) => r.routing.lost,
            _ => 0,
        }
    }

    /// Simulator events executed, where the engine counts them.
    pub fn events(&self) -> Option<u64> {
        match self {
            Outcome::Ac(r) => Some(r.summary.events),
            Outcome::Rack(r) => Some(r.events),
            Outcome::Baseline(_) => None,
        }
    }

    /// Per-cell counters of the layers below the run call.
    pub fn counters(&self) -> Vec<(String, f64)> {
        match self {
            Outcome::Ac(r) => ac_counters(r),
            Outcome::Rack(r) => {
                let s = &r.routing;
                [
                    ("system.events", r.events),
                    ("system.peak_event_queue", r.peak_queue as u64),
                    ("rack.affinity_hits", s.affinity_hits),
                    ("rack.affinity_rebinds", s.affinity_rebinds),
                    ("rack.dead_rebinds", s.dead_rebinds),
                    ("rack.limbo_redirects", s.limbo_redirects),
                    ("rack.death_retries", s.death_retries),
                    ("rack.lost", s.lost),
                ]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v as f64))
                .chain([(
                    "rack.tor_max_queue_ns".to_string(),
                    s.tor_max_queue_ps as f64 / 1e3,
                )])
                .collect()
            }
            Outcome::Baseline(_) => Vec::new(),
        }
    }
}

/// Engine, runtime and fault counters of one Altocumulus run.
pub fn ac_counters(r: &AcResult) -> Vec<(String, f64)> {
    let (s, f) = (&r.stats, &r.faults);
    [
        ("system.events", r.summary.events),
        ("system.peak_event_queue", r.summary.peak_queue as u64),
        ("system.rng_nic_draws", r.rng.nic),
        ("runtime.ticks", s.ticks),
        ("runtime.update_messages", s.update_messages),
        ("runtime.migrate_messages", s.migrate_messages),
        ("runtime.migrated_requests", s.migrated_requests),
        ("runtime.nacked_messages", s.nacked_messages),
        ("runtime.guard_blocked", s.guard_blocked),
        ("faults.worker_failures", f.worker_failures),
        ("faults.manager_failures", f.manager_failures),
        ("faults.takeovers", f.takeovers),
        ("faults.resteered_requests", f.resteered_requests),
        ("faults.migrate_timeouts", f.migrate_timeouts),
        ("faults.updates_dropped", f.updates_dropped),
        ("faults.messages_delayed", f.messages_delayed),
        ("faults.backoff_skipped", f.backoff_skipped),
        ("faults.emergency_migrations", f.emergency_migrations),
        ("faults.rng_draws", r.rng.faults),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v as f64))
    .collect()
}

/// The `system.build` stage: configuration and constructor.
pub fn build(w: &Workload, trace: &Trace, seed: u64) -> System {
    match w.shape {
        Shape::Steady | Shape::Bursty => {
            let mut cfg = AcConfig::ac_int(16, 16, exp_850().mean());
            cfg.seed = seed;
            System::Ac(Altocumulus::new(cfg))
        }
        Shape::RackFaults => System::Rack(RackWorld::new(rack_config(trace, seed))),
        Shape::Baselines => baseline(BASELINES[pair(seed).0]),
    }
}

/// Four ACint servers of 4×16 cores behind the paper ToR, power-of-2
/// routing with affinity, hardened resilience, a stress fault plan per
/// server and server 2 dying halfway through the arrivals.
fn rack_config(trace: &Trace, seed: u64) -> RackConfig {
    let mut rack = RackConfig::ac(4, 4, 16, ServiceDistribution::bimodal_paper().mean());
    rack.seed = seed;
    let ServerSpec::Ac(cfg) = &mut rack.template else {
        unreachable!("RackConfig::ac builds an AC template")
    };
    cfg.resilience = Resilience::hardened();
    let cores = fault_cores(cfg);
    let horizon = trace.requests().last().map_or(SimTime::ZERO, |r| r.arrival);
    rack.server_faults = (0..rack.servers as u64)
        .map(|s| FaultPlan::stress(derive_seed(seed, s + 1), &cores, 0.25, horizon))
        .collect();
    rack.deaths = vec![ServerDeath {
        server: 2,
        at: SimTime::from_ps(horizon.as_ps() / 2),
    }];
    rack
}

/// The Fig. 10 construction of each system on 16 cores.
fn baseline(name: &str) -> System {
    const CORES: usize = 16;
    let tcp = StackModel::tcp_ip();
    let sys: Box<dyn RpcSystem> = match name {
        "IX" => Box::new(DFcfs::new(DFcfsConfig {
            stack: tcp,
            ..DFcfsConfig::ix(CORES)
        })),
        "ZygOS" => Box::new(WorkStealing::new(StealingConfig {
            stack: tcp,
            ..StealingConfig::zygos(CORES)
        })),
        "Shinjuku" => Box::new(CentralDispatch::new(CentralConfig {
            stack: tcp,
            ..CentralConfig::shinjuku(CORES)
        })),
        "RPCValet" => Box::new(Jbsq::new(JbsqVariant::RpcValet, CORES)),
        "Nebula" => Box::new(Jbsq::new(JbsqVariant::Nebula, CORES)),
        "nanoPU" => Box::new(Jbsq::new(JbsqVariant::NanoPu, CORES)),
        "AC_rss" => {
            let dist = ServiceDistribution::bimodal_paper();
            let mut cfg = AcConfig::ac_rss(1, CORES, dist.mean());
            cfg.stack = StackModel::nano_rpc();
            return System::Ac(Altocumulus::new(cfg));
        }
        other => unreachable!("unknown baseline {other}"),
    };
    System::Baseline(sys)
}

/// The run stage: one call into the system's public run function.
pub fn run(sys: &mut System, trace: &Trace) -> Outcome {
    match sys {
        System::Ac(a) => Outcome::Ac(Box::new(a.run_detailed(trace))),
        System::Rack(r) => Outcome::Rack(r.run(trace, 1)),
        System::Baseline(b) => Outcome::Baseline(b.run(trace)),
    }
}

/// Host time of one stage of a cell.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Stage {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Stage) {
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    (r, Stage { name, start, end })
}

/// One finished cell.
pub struct Cell {
    pub offered: usize,
    pub outcome: Outcome,
    /// Completions later than the workload's latency limit.
    pub late: u64,
    pub start: Instant,
    pub end: Instant,
    pub stages: [Stage; 4],
}

impl Cell {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    pub fn run_stage(&self) -> &Stage {
        &self.stages[2]
    }
}

/// Runs the cell with seed `seed` (already `S + i`).
pub fn run_cell(w: &Workload, seed: u64) -> Cell {
    let start = Instant::now();
    let (trace, gen_stage) = timed("workload.gen", || gen(w, seed));
    let (mut sys, build_stage) = timed("system.build", || build(w, &trace, seed));
    let run_name = match sys {
        System::Rack(_) => "rack.run",
        _ => "system.run",
    };
    let (outcome, run_stage) = timed(run_name, || run(&mut sys, &trace));
    let (late, stats_stage) = timed("stats", || {
        let r = outcome.system();
        black_box(r.p99());
        r.completions.iter().filter(|c| c.latency() > w.slo).count() as u64
    });
    let offered = trace.len();
    drop((trace, sys));
    Cell {
        offered,
        outcome,
        late,
        start,
        end: Instant::now(),
        stages: [gen_stage, build_stage, run_stage, stats_stage],
    }
}

/// Digest of one result's completions `(id, finish_ps, core)` in
/// completion order, and whether the result conserves requests: every
/// offered request completed exactly once or was counted lost.
pub fn check(offered: usize, lost: u64, r: &SystemResult) -> (u64, bool) {
    let mut seen = vec![false; offered];
    let mut ok = r.completions.len() as u64 + lost == offered as u64;
    let mut h = fnv1a64_fold(0, offered as u64);
    for c in &r.completions {
        h = fnv1a64_fold(h, c.id.0);
        h = fnv1a64_fold(h, c.finish.as_ps());
        h = fnv1a64_fold(h, c.core as u64);
        match seen.get_mut(c.id.0 as usize) {
            Some(s) if !*s => *s = true,
            _ => ok = false,
        }
    }
    (h, ok)
}

/// Host-time split of one rack run, measured call by call.
#[derive(Debug, Clone, Copy, Default)]
pub struct RackSplit {
    /// `RackWorld::route`, which simulates the dying server inside it.
    pub route_s: f64,
    /// The dying server's sub-run on its own.
    pub dead_s: f64,
    /// Every live server's sub-run, one after another.
    pub live_s: f64,
    /// `RackWorld::run(trace, 1)`: routing, sub-runs and the merge.
    pub serial_s: f64,
    /// `RackWorld::run(trace, FANOUT_THREADS)`.
    pub fanout_s: f64,
}

/// Extra diagnostic calls made on a sample cell, outside the cell span.
#[derive(Default)]
pub struct Diag {
    /// Logical events of the Full recording, by event kind tag.
    pub kinds: Vec<u64>,
    pub logical_events: u64,
    pub executed_events: u64,
    /// `run_detailed`, `run_traced` and `run_recorded(Summary)` host times.
    pub plain_s: f64,
    pub traced_s: f64,
    pub summary_s: f64,
    /// Runtime and fault counters summed over the Altocumulus runs.
    pub counters: Vec<(String, f64)>,
    pub rack: Option<RackSplit>,
    /// A re-run of the cell, a recording, or the fanned-out rack run
    /// changed the simulated output.
    pub perturbed: bool,
    pub stages: Vec<Stage>,
}

impl Diag {
    /// Times each way of running one Altocumulus configuration and counts
    /// its logical events by kind. Every recording must leave the output
    /// unchanged. Returns the `run_detailed` host time and output digest.
    fn ac(&mut self, cfg: &AcConfig, trace: &Trace) -> (f64, u64) {
        let (plain, s) = timed("diag.run_detailed", || {
            Altocumulus::new(cfg.clone()).run_detailed(trace)
        });
        let plain_s = s.secs();
        self.plain_s += plain_s;
        self.stages.push(s);
        let mut tel = capture_telemetry(trace.len());
        let (traced, s) = timed("diag.run_traced", || {
            Altocumulus::new(cfg.clone()).run_traced(trace, &mut tel)
        });
        self.traced_s += s.secs();
        self.stages.push(s);
        let mut summary = Recorder::new(Granularity::Summary);
        let (recorded, s) = timed("diag.run_summary", || {
            Altocumulus::new(cfg.clone()).run_recorded(trace, &mut summary)
        });
        self.summary_s += s.secs();
        self.stages.push(s);
        let mut full = Recorder::new(Granularity::Full).with_perturb(None);
        let (full_res, s) = timed("diag.run_full", || {
            Altocumulus::new(cfg.clone()).run_recorded(trace, &mut full)
        });
        self.stages.push(s);

        let want = check(trace.len(), 0, &plain.system).0;
        self.perturbed |= [&traced, &recorded, &full_res].iter().any(|r| {
            check(trace.len(), 0, &r.system).0 != want || r.summary.events != plain.summary.events
        });
        self.kinds.resize(event_kind_names().len(), 0);
        for e in full.events() {
            if let Some(k) = self.kinds.get_mut(e.kind as usize) {
                *k += 1;
            }
        }
        self.logical_events += full.event_count();
        self.executed_events += plain.summary.events;
        for (k, v) in ac_counters(&plain) {
            match self.counters.iter_mut().find(|(n, _)| *n == k) {
                Some((_, sum)) => *sum += v,
                None => self.counters.push((k, v)),
            }
        }
        (plain_s, want)
    }
}

/// Re-creates cell `seed` untimed and makes the diagnostic calls on it.
/// `digest` is the cell's own output digest, which the re-created cell
/// must reproduce.
pub fn diagnose(w: &Workload, seed: u64, digest: u64) -> Diag {
    let trace = gen(w, seed);
    let mut d = Diag::default();
    match build(w, &trace, seed) {
        System::Ac(a) => {
            let (_, plain) = d.ac(a.config(), &trace);
            d.perturbed |= plain != digest;
        }
        System::Rack(world) => {
            let cfg = world.config().clone();
            let (routing, s) = timed("rack.route", || world.route(&trace));
            d.stages.push(s);
            let mut split = RackSplit {
                route_s: s.secs(),
                ..RackSplit::default()
            };
            for (srv, sub) in routing.sub_traces.iter().enumerate() {
                let ServerSpec::Ac(scfg) = cfg.server_spec(srv) else {
                    unreachable!("the rack runs AC servers")
                };
                let (secs, _) = d.ac(&scfg, sub);
                if cfg.death_of(srv).is_some() {
                    split.dead_s += secs;
                } else {
                    split.live_s += secs;
                }
            }
            let (serial, s) = timed("rack.run_serial", || world.run(&trace, 1));
            d.stages.push(s);
            split.serial_s = s.secs();
            let (fanout, s) = timed("rack.run_fanout", || world.run(&trace, FANOUT_THREADS));
            d.stages.push(s);
            split.fanout_s = s.secs();
            for r in [&serial, &fanout] {
                d.perturbed |= check(trace.len(), r.routing.lost, &r.system).0 != digest;
            }
            d.rack = Some(split);
        }
        System::Baseline(_) => unreachable!("diagnostics run on Altocumulus cells only"),
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_cores_stay_in_range_and_skip_managers() {
        let mean = SimDuration::from_ns(850);
        let rack = rack_config(&gen(&WORKLOADS[2], 1), 1);
        let ServerSpec::Ac(server) = rack.server_spec(3) else {
            panic!("AC rack")
        };
        for cfg in [
            AcConfig::ac_int(16, 16, mean),
            AcConfig::ac_int(4, 16, mean),
            AcConfig::ac_rss(1, 16, mean),
            server.clone(),
        ] {
            let cores = fault_cores(&cfg);
            assert_eq!(cores.len(), cfg.groups * cfg.workers_per_group());
            assert!(cores.iter().all(|&c| c < cfg.total_cores()));
            assert!(cores.iter().all(|&c| c % cfg.group_size != 0));
        }
        // The stress plans install on every server without tripping
        // `AcConfig::validate`, which rejects managers and out-of-range cores.
        for s in 0..rack.servers {
            let ServerSpec::Ac(cfg) = rack.server_spec(s) else {
                panic!("AC rack")
            };
            assert!(!cfg.faults.worker_failures.is_empty());
            Altocumulus::new(cfg);
        }
    }

    #[test]
    fn conservation_rejects_duplicates_and_unknown_ids() {
        let trace = gen(&WORKLOADS[0], 3);
        let small = Trace::new(trace.requests()[..200].to_vec());
        let mut sys = build(&WORKLOADS[0], &small, 3);
        let out = run(&mut sys, &small);
        let mut r = out.system().clone();
        assert!(check(small.len(), 0, &r).1);
        let dup = r.completions[0];
        r.completions.push(dup);
        assert!(!check(small.len(), 1, &r).1);
        r.completions.pop();
        r.completions[0].id.0 = 10_000;
        assert!(!check(small.len(), 0, &r).1);
    }
}
