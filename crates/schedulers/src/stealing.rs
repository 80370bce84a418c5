//! d-FCFS + work stealing (ZygOS-style).
//!
//! Extends the RSS-steered per-core model with ZygOS's balancing (paper
//! §II-D): an idle core steals pending requests from another core's queue.
//! The two published costs drive the model:
//!
//! 1. victim selection is simple/random, so many steals move requests that
//!    didn't need to move (ZygOS migrates ~60% of requests at load);
//! 2. each successful steal costs 2–3 cache misses (200–400 ns), far too
//!    slow for sub-µs RPCs.
//!
//! There is no preemption: a long request in service blocks its core, which
//! is what Shinjuku (and Altocumulus) fix.

use crate::common::{drive, on_core_cost, OccTable, QueuedRequest, RpcSystem, SystemResult};
use interconnect::offchip::MemoryModel;
use rand::rngs::StdRng;
use rand::Rng;
use rpcstack::nic::{NicModel, Steering, Transfer};
use rpcstack::stack::StackModel;
use simcore::event::{EventQueue, World};
use simcore::rng::{stream_rng, streams, BatchedRng};
use simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use workload::trace::Trace;

/// Configuration for the work-stealing system.
#[derive(Debug, Clone)]
pub struct StealingConfig {
    /// Number of worker cores.
    pub cores: usize,
    /// RPC stack processed on each core.
    pub stack: StackModel,
    /// NIC→core transfer mechanism.
    pub transfer: Transfer,
    /// On-NIC processing.
    pub nic: NicModel,
    /// Steering of fresh arrivals (RSS).
    pub steering: Steering,
    /// Cost of one successful steal (2–3 cache misses; default 300 ns).
    pub steal_cost: SimDuration,
    /// Cost of probing one remote queue that turns out to be empty.
    pub probe_cost: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl StealingConfig {
    /// ZygOS-like defaults on a commodity PCIe RSS NIC.
    pub fn zygos(cores: usize) -> Self {
        let mem = MemoryModel::default();
        StealingConfig {
            cores,
            stack: StackModel::erpc(),
            transfer: Transfer::pcie(),
            nic: NicModel::default(),
            steering: Steering::rss(),
            steal_cost: mem.steal_cost(3),
            probe_cost: mem.llc,
            seed: 0,
        }
    }
}

/// The d-FCFS + work-stealing system. See [module docs](self).
#[derive(Debug, Clone)]
pub struct WorkStealing {
    cfg: StealingConfig,
    /// Number of requests that executed on a core other than their steered
    /// one (reported as migration traffic, cf. ZygOS's ~60%).
    stolen: u64,
}

impl WorkStealing {
    /// Creates the system.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cfg: StealingConfig) -> Self {
        assert!(cfg.cores > 0);
        WorkStealing { cfg, stolen: 0 }
    }

    /// Fraction of requests stolen in the most recent run.
    pub fn stolen_fraction(&self, total: usize) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.stolen as f64 / total as f64
        }
    }

    /// Raw count of stolen requests in the most recent run.
    pub fn stolen(&self) -> u64 {
        self.stolen
    }
}

enum Ev {
    Enqueue(usize, usize),
    Done(usize),
}

struct StealWorld<'t> {
    trace: &'t Trace,
    cfg: StealingConfig,
    queues: Vec<VecDeque<QueuedRequest>>,
    in_service: Vec<Option<QueuedRequest>>,
    /// Hot plane: 0/1 busy flags mirrored from `in_service`, read by the
    /// arrival path's idle-core scan.
    occ: OccTable,
    /// Victim-selection draws come off the SCHEDULER stream in prefetched
    /// blocks; [`BatchedRng`] is stream-identical to the plain generator.
    rng: BatchedRng<StdRng>,
    stolen: u64,
    result: SystemResult,
}

impl StealWorld<'_> {
    fn start(
        &mut self,
        core: usize,
        qr: QueuedRequest,
        now: SimTime,
        extra: SimDuration,
        q: &mut EventQueue<Ev>,
    ) {
        let req = &self.trace.requests()[qr.idx];
        let cost = on_core_cost(
            self.cfg.stack.rx(req.size_bytes),
            self.cfg.stack.tx(64),
            req,
            SimDuration::ZERO,
        ) + extra;
        self.in_service[core] = Some(qr);
        self.occ.incr(core);
        q.push(now + cost, Ev::Done(core));
    }

    /// An idle `core` looks for work: its own queue first, then a random
    /// victim, then a scan. Returns the chosen request plus the overhead the
    /// core paid to find it.
    fn find_work(&mut self, core: usize) -> Option<(QueuedRequest, SimDuration, bool)> {
        if let Some(qr) = self.queues[core].pop_front() {
            return Some((qr, SimDuration::ZERO, false));
        }
        let n = self.cfg.cores;
        if n == 1 {
            return None;
        }
        let mut overhead = SimDuration::ZERO;
        // Random first victim, as ZygOS does.
        let first = {
            let step = self.rng.random_range(1..n);
            (core + step) % n
        };
        if let Some(qr) = self.queues[first].pop_front() {
            return Some((qr, overhead + self.cfg.steal_cost, true));
        }
        overhead += self.cfg.probe_cost;
        // Fall back to scanning the remaining cores.
        for off in 1..n {
            let victim = (first + off) % n;
            if victim == core {
                continue;
            }
            if let Some(qr) = self.queues[victim].pop_front() {
                return Some((qr, overhead + self.cfg.steal_cost, true));
            }
            overhead += self.cfg.probe_cost;
        }
        None
    }
}

impl World for StealWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
        match ev {
            Ev::Enqueue(idx, core) => {
                let req = &self.trace.requests()[idx];
                let qr = QueuedRequest::new(idx, req.service, now);
                if self.in_service[core].is_none() {
                    self.start(core, qr, now, SimDuration::ZERO, q);
                } else if let Some(idle) = self.occ.first_idle(0..self.cfg.cores) {
                    debug_assert!(self.in_service[idle].is_none());
                    // An idle core grabs it immediately, paying the steal.
                    self.stolen += 1;
                    self.start(idle, qr, now, self.cfg.steal_cost, q);
                } else {
                    self.queues[core].push_back(qr);
                }
            }
            Ev::Done(core) => {
                let qr = self.in_service[core].take().expect("Done on idle core");
                self.occ.decr(core);
                let req = &self.trace.requests()[qr.idx];
                self.result.complete(req, now, core, qr.migrated);
                if let Some((mut next, overhead, was_steal)) = self.find_work(core) {
                    if was_steal {
                        self.stolen += 1;
                        next.migrated = true;
                    }
                    self.start(core, next, now, overhead, q);
                }
            }
        }
    }
}

impl RpcSystem for WorkStealing {
    fn name(&self) -> String {
        format!("ZygOS({})", self.cfg.cores)
    }

    fn run(&mut self, trace: &Trace) -> SystemResult {
        let mut steering = self.cfg.steering.clone();
        let mut nic_rng: StdRng = stream_rng(self.cfg.seed, streams::NIC);
        let (mac_delay, transfer, cores) =
            (self.cfg.nic.mac_delay, self.cfg.transfer, self.cfg.cores);
        let mut world = StealWorld {
            trace,
            cfg: self.cfg.clone(),
            queues: vec![VecDeque::new(); self.cfg.cores],
            in_service: vec![None; self.cfg.cores],
            occ: OccTable::new(self.cfg.cores),
            rng: BatchedRng::new(stream_rng(self.cfg.seed, streams::SCHEDULER)),
            stolen: 0,
            result: SystemResult::with_capacity(trace.len()),
        };
        drive(
            &mut world,
            trace,
            mac_delay,
            |i, req| {
                let core = steering.steer(req.conn, cores, &mut nic_rng);
                let deliver = req.arrival + mac_delay + transfer.latency(req.size_bytes);
                (deliver, Ev::Enqueue(i, core))
            },
            |_, _| {},
        );
        self.stolen = world.stolen;
        world.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::completion_digest;
    use crate::dfcfs::{DFcfs, DFcfsConfig};
    use workload::dist::ServiceDistribution;
    use workload::trace::poisson_trace;

    fn trace(dist: ServiceDistribution, load: f64, cores: usize, n: usize, conns: u32) -> Trace {
        poisson_trace(dist, load, cores, n, conns, 11)
    }

    #[test]
    fn completes_all() {
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.6,
            8,
            5000,
            64,
        );
        let mut sys = WorkStealing::new(StealingConfig::zygos(8));
        let r = sys.run(&t);
        assert_eq!(r.completions.len(), 5000);
    }

    #[test]
    fn stealing_beats_plain_dfcfs_under_imbalance() {
        // Few connections => RSS imbalance; stealing should rescue it.
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.7,
            8,
            30_000,
            6,
        );
        let p99_steal = WorkStealing::new(StealingConfig::zygos(8)).run(&t).p99();
        let p99_plain = DFcfs::new(DFcfsConfig::rss(8)).run(&t).p99();
        assert!(
            p99_steal < p99_plain,
            "stealing {p99_steal} should beat d-FCFS {p99_plain}"
        );
    }

    #[test]
    fn steals_happen_and_are_counted() {
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.8,
            8,
            20_000,
            6,
        );
        let mut sys = WorkStealing::new(StealingConfig::zygos(8));
        sys.run(&t);
        assert!(
            sys.stolen() > 0,
            "under imbalance some requests must be stolen"
        );
        // ZygOS's published number is ~60%; ours should at least be a
        // substantial fraction under this imbalance.
        assert!(sys.stolen_fraction(20_000) > 0.1);
    }

    #[test]
    fn long_requests_block_without_preemption() {
        // With the paper's bimodal mix, a 500us request in service blocks;
        // p99 should exceed SLO 300us well below saturation... but stealing
        // keeps *queued* shorts safe, so p99 stays below d-FCFS's.
        let t = trace(ServiceDistribution::bimodal_paper(), 0.6, 8, 40_000, 64);
        let steal = WorkStealing::new(StealingConfig::zygos(8)).run(&t);
        let plain = DFcfs::new(DFcfsConfig::rss(8)).run(&t);
        assert!(steal.p99() <= plain.p99());
        // Max latency still reflects head-of-line blocking (> 500us).
        assert!(steal.hist.max() > SimDuration::from_us(500));
    }

    #[test]
    fn deterministic() {
        let t = trace(ServiceDistribution::bimodal_paper(), 0.5, 4, 5000, 16);
        let a = WorkStealing::new(StealingConfig::zygos(4)).run(&t);
        let b = WorkStealing::new(StealingConfig::zygos(4)).run(&t);
        assert_eq!(a.p99(), b.p99());
        assert_eq!(a.end_time, b.end_time);
    }

    #[test]
    fn single_core_never_steals() {
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.5,
            1,
            1000,
            4,
        );
        let mut sys = WorkStealing::new(StealingConfig::zygos(1));
        sys.run(&t);
        assert_eq!(sys.stolen(), 0);
    }

    /// Pins the exact schedule under RSS imbalance (6 connections on 8
    /// cores), where idle cores steal: the victim draws and steal costs
    /// are all inside the digest.
    #[test]
    fn steal_schedule_digest_is_pinned() {
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.8,
            8,
            20_000,
            6,
        );
        let mut sys = WorkStealing::new(StealingConfig::zygos(8));
        let r = sys.run(&t);
        assert_eq!(r.completions.len(), 20_000);
        assert_eq!(sys.stolen(), 4914);
        assert_eq!(completion_digest(&r), 0x060b_815c_2534_8ee5);
    }
}
