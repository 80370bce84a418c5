//! d-FCFS: NIC-steered per-core queues with no load balancing.
//!
//! This models IX \[8\] and plain RSS NICs (paper §II-D, Fig. 4(b) without the
//! stealing arrows): the NIC hashes each request to a per-core receive queue
//! and every core serves its own queue FCFS, run-to-completion. Scalable but
//! load-oblivious — the paper's example of unpredictable tail latency under
//! imbalance or dispersed service times.

use crate::common::{drive, on_core_cost, OccTable, QueuedRequest, RpcSystem, SystemResult};
use rand::rngs::StdRng;
use rpcstack::nic::{NicModel, Steering, Transfer};
use rpcstack::stack::StackModel;
use simcore::event::{EventQueue, World};
use simcore::faults::FaultPlan;
use simcore::rng::{stream_rng, streams};
use simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use workload::trace::Trace;

/// Configuration of a d-FCFS system.
#[derive(Debug, Clone)]
pub struct DFcfsConfig {
    /// Number of worker cores (= receive queues).
    pub cores: usize,
    /// RPC stack processed on each core.
    pub stack: StackModel,
    /// NIC→core transfer mechanism.
    pub transfer: Transfer,
    /// On-NIC processing.
    pub nic: NicModel,
    /// Steering policy.
    pub steering: Steering,
    /// Fixed per-request scheduling overhead on the core (d-FCFS's private
    /// queue poll is cheap; default 10 ns).
    pub sched_overhead: SimDuration,
    /// RNG seed for steering decisions.
    pub seed: u64,
    /// Injected faults. d-FCFS has no recovery path: a dead core's queued
    /// and future-steered requests are simply lost (the RSS hash keeps
    /// pointing at the dead queue), which is the non-graceful comparison
    /// point for the fault sweep. The default empty plan reproduces healthy
    /// runs byte-for-byte.
    pub faults: FaultPlan,
}

impl DFcfsConfig {
    /// IX-like defaults: TCP-era stack on a PCIe RSS NIC.
    pub fn ix(cores: usize) -> Self {
        DFcfsConfig {
            cores,
            stack: StackModel::erpc(),
            transfer: Transfer::pcie(),
            nic: NicModel::default(),
            steering: Steering::rss(),
            sched_overhead: SimDuration::from_ns(10),
            seed: 0,
            faults: FaultPlan::default(),
        }
    }

    /// Commodity RSS NIC with an eRPC-class user-space stack.
    pub fn rss(cores: usize) -> Self {
        Self::ix(cores)
    }
}

/// The d-FCFS system. See [module docs](self).
#[derive(Debug, Clone)]
pub struct DFcfs {
    cfg: DFcfsConfig,
}

impl DFcfs {
    /// Creates the system.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cfg: DFcfsConfig) -> Self {
        assert!(cfg.cores > 0, "need at least one core");
        cfg.faults.validate_cores(cfg.cores);
        DFcfs { cfg }
    }
}

enum Ev {
    /// Request `idx` reaches its steered queue.
    Enqueue(usize, usize),
    /// Core finished its in-service request.
    Done(usize),
    /// Fault plan: the core fails permanently. Never pushed by healthy runs.
    Fail(usize),
}

struct DFcfsWorld<'t> {
    trace: &'t Trace,
    cfg: DFcfsConfig,
    queues: Vec<VecDeque<QueuedRequest>>,
    in_service: Vec<Option<QueuedRequest>>,
    /// Hot plane: 0/1 busy flags mirrored from `in_service`, with
    /// fail-stopped cores folded in as the dead sentinel — the arrival
    /// path's idle and liveness checks read this one dense word.
    occ: OccTable,
    result: SystemResult,
}

impl DFcfsWorld<'_> {
    fn start(&mut self, core: usize, qr: QueuedRequest, now: SimTime, q: &mut EventQueue<Ev>) {
        let req = &self.trace.requests()[qr.idx];
        let cost = on_core_cost(
            self.cfg.stack.rx(req.size_bytes),
            self.cfg.stack.tx(64),
            req,
            self.cfg.sched_overhead,
        );
        // Straggler inflation is identity when no interval covers this
        // core/instant (bit-for-bit, see simcore::faults).
        let wall = self.cfg.faults.inflate(core, now, cost);
        self.in_service[core] = Some(qr);
        self.occ.incr(core);
        q.push(now + wall, Ev::Done(core));
    }
}

impl World for DFcfsWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
        match ev {
            Ev::Enqueue(idx, core) => {
                if self.occ.is_dead(core) {
                    // No rebalancing path exists: the request is lost.
                    return;
                }
                let req = &self.trace.requests()[idx];
                let qr = QueuedRequest::new(idx, req.service, now);
                if self.occ.get(core) == 0 {
                    debug_assert!(self.in_service[core].is_none());
                    self.start(core, qr, now, q);
                } else {
                    self.queues[core].push_back(qr);
                }
            }
            Ev::Done(core) => {
                if self.occ.is_dead(core) {
                    // Stale completion from before the core's death.
                    return;
                }
                let qr = self.in_service[core].take().expect("Done on an idle core");
                self.occ.decr(core);
                let req = &self.trace.requests()[qr.idx];
                self.result.complete(req, now, core, false);
                if let Some(next) = self.queues[core].pop_front() {
                    self.start(core, next, now, q);
                }
            }
            Ev::Fail(core) => {
                // Fail-stop: the running request and everything queued
                // behind it are lost, as is everything the NIC steers here
                // from now on.
                self.occ.mark_dead(core);
                self.in_service[core] = None;
                self.queues[core].clear();
            }
        }
    }
}

impl RpcSystem for DFcfs {
    fn name(&self) -> String {
        format!("d-FCFS/{}({})", self.cfg.steering.label(), self.cfg.cores)
    }

    fn run(&mut self, trace: &Trace) -> SystemResult {
        let mut steering = self.cfg.steering.clone();
        let mut rng: StdRng = stream_rng(self.cfg.seed, streams::NIC);
        let (mac_delay, transfer, cores) =
            (self.cfg.nic.mac_delay, self.cfg.transfer, self.cfg.cores);
        let mut world = DFcfsWorld {
            trace,
            cfg: self.cfg.clone(),
            queues: vec![VecDeque::new(); self.cfg.cores],
            in_service: vec![None; self.cfg.cores],
            occ: OccTable::new(self.cfg.cores),
            result: SystemResult::with_capacity(trace.len()),
        };
        drive(
            &mut world,
            trace,
            mac_delay,
            |i, req| {
                let core = steering.steer(req.conn, cores, &mut rng);
                let deliver = req.arrival + mac_delay + transfer.latency(req.size_bytes);
                (deliver, Ev::Enqueue(i, core))
            },
            |w, q| {
                for f in &w.cfg.faults.worker_failures {
                    q.push(f.at, Ev::Fail(f.core));
                }
            },
        );
        world.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::completion_digest;
    use workload::dist::ServiceDistribution;
    use workload::trace::poisson_trace;

    fn trace(load: f64, cores: usize, n: usize) -> Trace {
        let dist = ServiceDistribution::Fixed(SimDuration::from_us(1));
        poisson_trace(dist, load, cores, n, 256, 42)
    }

    #[test]
    fn completes_every_request() {
        let t = trace(0.5, 8, 5000);
        let mut sys = DFcfs::new(DFcfsConfig::rss(8));
        let r = sys.run(&t);
        assert_eq!(r.completions.len(), 5000);
    }

    #[test]
    fn latency_at_least_floor() {
        // Even an idle system pays NIC + PCIe + stack + service.
        let t = trace(0.05, 8, 500);
        let mut sys = DFcfs::new(DFcfsConfig::rss(8));
        let r = sys.run(&t);
        let floor = SimDuration::from_ns(30) // mac
            + Transfer::pcie().latency(300)
            + StackModel::erpc().rx(300)
            + SimDuration::from_us(1) // service
            + StackModel::erpc().tx(64);
        assert!(
            r.hist.min() >= floor,
            "min={} floor={}",
            r.hist.min(),
            floor
        );
    }

    #[test]
    fn higher_load_higher_tail() {
        let mut sys = DFcfs::new(DFcfsConfig::rss(8));
        let lo = sys.run(&trace(0.3, 8, 20_000)).p99();
        let hi = sys.run(&trace(0.9, 8, 20_000)).p99();
        assert!(hi > lo, "p99 lo={lo} hi={hi}");
    }

    #[test]
    fn deterministic_runs() {
        let t = trace(0.7, 4, 2000);
        let a = DFcfs::new(DFcfsConfig::rss(4)).run(&t);
        let b = DFcfs::new(DFcfsConfig::rss(4)).run(&t);
        assert_eq!(a.p99(), b.p99());
        assert_eq!(a.completions.len(), b.completions.len());
        assert_eq!(a.end_time, b.end_time);
    }

    #[test]
    fn rss_imbalance_hurts_vs_round_robin() {
        // With few connections, RSS hashing concentrates load; per-packet
        // round-robin balances perfectly. Tail must be worse for RSS.
        let dist = ServiceDistribution::Fixed(SimDuration::from_us(1));
        let t = poisson_trace(dist, 0.7, 8, 30_000, 6, 1); // fewer connections than cores
        let mut rss = DFcfs::new(DFcfsConfig::rss(8));
        let mut rr = DFcfs::new(DFcfsConfig {
            steering: Steering::round_robin(),
            ..DFcfsConfig::rss(8)
        });
        let p99_rss = rss.run(&t).p99();
        let p99_rr = rr.run(&t).p99();
        assert!(
            p99_rss > p99_rr,
            "RSS p99 {p99_rss} should exceed RR p99 {p99_rr}"
        );
    }

    #[test]
    fn single_core_fcfs_order() {
        let t = trace(0.5, 1, 100);
        let mut sys = DFcfs::new(DFcfsConfig::rss(1));
        let r = sys.run(&t);
        // FCFS on one queue: completions in arrival (id) order.
        for pair in r.completions.windows(2) {
            assert!(pair[0].id < pair[1].id);
        }
    }

    #[test]
    fn inert_fault_plan_matches_healthy_run() {
        // A *non-empty but inert* plan (straggler window past the trace
        // end) must reproduce the healthy run byte for byte.
        use simcore::faults::Straggler;
        let t = trace(0.7, 8, 10_000);
        let healthy = DFcfs::new(DFcfsConfig::rss(8)).run(&t);
        let mut cfg = DFcfsConfig::rss(8);
        cfg.faults.stragglers.push(Straggler {
            first_core: 0,
            last_core: 7,
            from: SimTime::from_us(1_000_000),
            until: SimTime::from_us(1_000_001),
            slowdown: 3.0,
        });
        let inert = DFcfs::new(cfg).run(&t);
        assert_eq!(healthy.completions, inert.completions);
        assert_eq!(healthy.end_time, inert.end_time);
    }

    #[test]
    fn dead_core_loses_its_steered_requests() {
        use simcore::faults::WorkerFailure;
        let t = trace(0.5, 8, 20_000);
        let mut cfg = DFcfsConfig::rss(8);
        cfg.faults.worker_failures.push(WorkerFailure {
            core: 3,
            at: SimTime::from_us(200),
        });
        let a = DFcfs::new(cfg.clone()).run(&t);
        let b = DFcfs::new(cfg).run(&t);
        // No rebalancing: RSS keeps hashing connections onto the dead
        // queue, so dFCFS drops everything steered there after the failure.
        assert!(
            a.completions.len() < t.len(),
            "dFCFS cannot resteer a dead core's traffic"
        );
        assert!(a.completions.len() > t.len() / 2);
        assert_eq!(a.completions, b.completions); // fault runs stay deterministic
    }

    #[test]
    fn straggler_slows_but_loses_nothing() {
        use simcore::faults::Straggler;
        let t = trace(0.5, 8, 20_000);
        let healthy = DFcfs::new(DFcfsConfig::rss(8)).run(&t);
        let mut cfg = DFcfsConfig::rss(8);
        cfg.faults.stragglers.push(Straggler {
            first_core: 0,
            last_core: 7,
            from: SimTime::from_us(100),
            until: SimTime::from_us(600),
            slowdown: 3.0,
        });
        let r = DFcfs::new(cfg).run(&t);
        assert_eq!(r.completions.len(), t.len());
        assert!(
            r.p99() > healthy.p99(),
            "slowed {} vs healthy {}",
            r.p99(),
            healthy.p99()
        );
    }

    /// Pins the exact schedule of a faulted run: core 3 dies at 200 µs
    /// while cores 4–7 straggle 2.5× over 100–400 µs.
    #[test]
    fn fault_schedule_digest_is_pinned() {
        use simcore::faults::{Straggler, WorkerFailure};
        let t = trace(0.7, 8, 20_000);
        let mut cfg = DFcfsConfig::rss(8);
        cfg.faults.worker_failures.push(WorkerFailure {
            core: 3,
            at: SimTime::from_us(200),
        });
        cfg.faults.stragglers.push(Straggler {
            first_core: 4,
            last_core: 7,
            from: SimTime::from_us(100),
            until: SimTime::from_us(400),
            slowdown: 2.5,
        });
        let r = DFcfs::new(cfg).run(&t);
        assert_eq!(r.completions.len(), 17709);
        assert_eq!(completion_digest(&r), 0xa294_a4a2_4f0e_5743);
    }
}
