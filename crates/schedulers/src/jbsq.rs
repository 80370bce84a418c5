//! NIC-driven c-FCFS with Join-Bounded-Shortest-Queue (JBSQ) hardware
//! schedulers: RPCValet, Nebula and nanoPU (paper §II-D, §VII-A).
//!
//! The NIC holds one central hardware queue and pushes the head to any core
//! whose local queue has fewer than `bound` entries. The three systems differ
//! in the NIC→core transfer mechanism and in whether cores can preempt:
//!
//! | system   | bound | transfer                    | preemption |
//! |----------|-------|-----------------------------|------------|
//! | RPCValet | 1     | cache-coherent (shared LLC) | no         |
//! | Nebula   | 2     | cache-coherent (L1-speed)   | no         |
//! | nanoPU   | 2     | register file               | piggybacked |
//!
//! Nebula's lack of long-request awareness — JBSQ decides only on queue
//! *counts* — is exactly what produces its 15.8× tail blow-up on dispersed
//! service times (Fig. 10), which this model reproduces.

use crate::common::{drive, OccTable, QueuedRequest, RpcSystem, SystemResult};
use rpcstack::nic::{NicModel, Transfer};
use rpcstack::stack::StackModel;
use simcore::event::{EventQueue, World};
use simcore::faults::FaultPlan;
use simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use workload::trace::Trace;

/// Which published system the JBSQ model instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JbsqVariant {
    /// RPCValet: NI-driven single-queue dispatch over shared caches.
    RpcValet,
    /// Nebula: JBSQ(2) with L1-speed NIC-core integration.
    Nebula,
    /// nanoPU: JBSQ(2) into the core's register file, with a piggybacked
    /// preemption mechanism that bounds head-of-line blocking.
    NanoPu,
}

impl JbsqVariant {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            JbsqVariant::RpcValet => "RPCValet",
            JbsqVariant::Nebula => "Nebula",
            JbsqVariant::NanoPu => "nanoPU",
        }
    }
}

/// Configuration of the JBSQ hardware-scheduler model.
#[derive(Debug, Clone)]
pub struct JbsqConfig {
    /// Number of worker cores (the scheduler itself is NIC hardware and
    /// consumes no core).
    pub cores: usize,
    /// Local queue bound `n` of JBSQ(n), counting the in-service request.
    pub bound: usize,
    /// Coherence-domain size: the JBSQ central queue can only span this many
    /// cores (Table I: "limited coherence domain size"). Larger systems are
    /// split into independent domains with RSS steering across them and no
    /// rebalancing between them.
    pub domain_size: usize,
    /// RPC stack cost (hardware-terminated for all three systems).
    pub stack: StackModel,
    /// NIC→core transfer mechanism.
    pub transfer: Transfer,
    /// On-NIC processing.
    pub nic: NicModel,
    /// Preemption quantum (nanoPU only).
    pub quantum: Option<SimDuration>,
    /// Per-preemption overhead.
    pub preempt_overhead: SimDuration,
    /// Injected faults. JBSQ is partially resilient by construction — the
    /// central queue just stops pushing to a dead core — but whatever the
    /// dead core already held (running, local queue, in-flight pushes) is
    /// lost. The default empty plan reproduces healthy runs byte-for-byte.
    pub faults: FaultPlan,
}

impl JbsqConfig {
    /// Instantiates the published configuration of `variant`. The
    /// cache-coherent systems (RPCValet, Nebula) pool at most 32 cores per
    /// coherence domain; nanoPU's NoC-routed register-file path spans the
    /// whole chip.
    pub fn of(variant: JbsqVariant, cores: usize) -> Self {
        let base = JbsqConfig {
            cores,
            bound: 2,
            domain_size: cores.min(32),
            stack: StackModel::nano_rpc(),
            transfer: Transfer::coherent(),
            nic: NicModel::default(),
            quantum: None,
            preempt_overhead: SimDuration::from_ns(100),
            faults: FaultPlan::default(),
        };
        match variant {
            JbsqVariant::RpcValet => JbsqConfig { bound: 1, ..base },
            JbsqVariant::Nebula => base,
            JbsqVariant::NanoPu => JbsqConfig {
                transfer: Transfer::register_file(),
                quantum: Some(SimDuration::from_us(5)),
                domain_size: cores,
                ..base
            },
        }
    }
}

/// The JBSQ NIC-scheduler system. See [module docs](self).
#[derive(Debug, Clone)]
pub struct Jbsq {
    cfg: JbsqConfig,
    variant: JbsqVariant,
}

impl Jbsq {
    /// Creates a published variant on `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(variant: JbsqVariant, cores: usize) -> Self {
        Self::with_config(variant, JbsqConfig::of(variant, cores))
    }

    /// Creates a custom configuration (for ablations).
    pub fn with_config(variant: JbsqVariant, cfg: JbsqConfig) -> Self {
        assert!(cfg.cores > 0);
        assert!(cfg.bound > 0, "JBSQ bound must be positive");
        cfg.faults.validate_cores(cfg.cores);
        Jbsq { cfg, variant }
    }
}

enum Ev {
    /// Request reached domain `d`'s central hardware queue.
    NicEnqueue(usize, usize),
    /// Pushed request lands in core `c`'s local queue.
    Deliver(usize, QueuedRequest),
    /// Core `c` finished a slice.
    SliceDone(usize),
    /// Core `c` finished its preemption overhead.
    CoreFree(usize),
    /// Fault plan: core `c` fails permanently. Never pushed by healthy runs.
    Fail(usize),
}

struct JbsqWorld<'t> {
    trace: &'t Trace,
    cfg: JbsqConfig,
    /// One central hardware queue per coherence domain.
    nic_queue: Vec<VecDeque<QueuedRequest>>,
    /// In-service request per core (None = idle).
    running: Vec<Option<QueuedRequest>>,
    /// Waiting entries per core, bounded by `bound` together with the
    /// running/in-flight slot count.
    local: Vec<VecDeque<QueuedRequest>>,
    /// Requests pushed but not yet delivered (occupy a slot).
    in_flight: Vec<usize>,
    /// Core is paying preemption overhead until cleared.
    stalled: Vec<bool>,
    /// Hot plane: per-core slot occupancy (running + local + in-flight)
    /// maintained incrementally, with dead cores folded in as the
    /// sentinel. The NIC's shortest-bounded-queue scan reads only this.
    occ: OccTable,
    result: SystemResult,
}

impl JbsqWorld<'_> {
    /// Recomputed occupancy of a live core — the oracle the incremental
    /// [`OccTable`] is checked against in debug builds.
    #[cfg(debug_assertions)]
    fn occupancy(&self, core: usize) -> usize {
        self.running[core].map_or(0, |_| 1) + self.local[core].len() + self.in_flight[core]
    }

    fn domain_of(&self, core: usize) -> usize {
        core / self.cfg.domain_size
    }

    fn domain_cores(&self, domain: usize) -> std::ops::Range<usize> {
        let lo = domain * self.cfg.domain_size;
        lo..(lo + self.cfg.domain_size).min(self.cfg.cores)
    }

    /// NIC hardware scheduler: push heads to cores of `domain` with spare
    /// slots.
    fn try_push(&mut self, domain: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        while !self.nic_queue[domain].is_empty() {
            // Shortest bounded queue first, within the coherence domain.
            // First-minimal ties match the old filter + min_by_key scan
            // over recomputed occupancies.
            let Some(core) = self
                .occ
                .argmin_under(self.domain_cores(domain), self.cfg.bound as u32)
            else {
                return;
            };
            #[cfg(debug_assertions)]
            debug_assert!(self
                .domain_cores(domain)
                .filter(|&c| !self.occ.is_dead(c) && self.occupancy(c) < self.cfg.bound)
                .min_by_key(|&c| self.occupancy(c))
                .is_some_and(|c| c == core));
            let qr = self.nic_queue[domain]
                .pop_front()
                .expect("non-empty NIC queue");
            let req = &self.trace.requests()[qr.idx];
            self.in_flight[core] += 1;
            self.occ.incr(core);
            let xfer = self.cfg.transfer.latency(req.size_bytes);
            q.push(now + xfer, Ev::Deliver(core, qr));
        }
    }

    fn start_if_idle(&mut self, core: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        if self.running[core].is_some() || self.stalled[core] {
            return;
        }
        let Some(qr) = self.local[core].pop_front() else {
            return;
        };
        let slice = qr.slice(self.cfg.quantum);
        // A straggling core runs its slice slower (wall time inflated) but
        // accomplishes the same nominal work; identity on healthy runs.
        let wall = self.cfg.faults.inflate(core, now, slice);
        self.running[core] = Some(qr);
        q.push(now + wall, Ev::SliceDone(core));
    }
}

impl World for JbsqWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
        match ev {
            Ev::NicEnqueue(idx, domain) => {
                let req = &self.trace.requests()[idx];
                let total = self.cfg.stack.rx(req.size_bytes) + req.service + self.cfg.stack.tx(64);
                self.nic_queue[domain].push_back(QueuedRequest::new(idx, total, now));
                self.try_push(domain, now, q);
            }
            Ev::Deliver(core, qr) => {
                self.in_flight[core] -= 1;
                if self.occ.is_dead(core) {
                    // Pushed before the core died; the descriptor is lost.
                    return;
                }
                // Live landing is occupancy-neutral: in-flight becomes local.
                self.local[core].push_back(qr);
                self.start_if_idle(core, now, q);
            }
            Ev::SliceDone(core) => {
                if self.occ.is_dead(core) {
                    // Stale slice from before the core's death.
                    return;
                }
                let domain = self.domain_of(core);
                let mut qr = self.running[core].take().expect("slice on idle core");
                // Either way the request leaves this core's bound: done, or
                // requeued at the NIC's central queue.
                self.occ.decr(core);
                qr.remaining = qr.remaining.saturating_sub(qr.slice(self.cfg.quantum));
                if qr.remaining.is_zero() {
                    let req = &self.trace.requests()[qr.idx];
                    self.result.complete(req, now, core, false);
                    self.start_if_idle(core, now, q);
                    self.try_push(domain, now, q);
                } else {
                    // nanoPU preemption: requeue at the NIC, pay overhead.
                    self.nic_queue[domain].push_back(qr);
                    self.stalled[core] = true;
                    q.push(now + self.cfg.preempt_overhead, Ev::CoreFree(core));
                    self.try_push(domain, now, q);
                }
            }
            Ev::CoreFree(core) => {
                if self.occ.is_dead(core) {
                    return;
                }
                self.stalled[core] = false;
                self.start_if_idle(core, now, q);
                self.try_push(self.domain_of(core), now, q);
            }
            Ev::Fail(core) => {
                // Fail-stop: lose the running request and the local queue;
                // the central queue re-routes around the dead core from now
                // on (JBSQ's built-in partial resilience).
                self.occ.mark_dead(core);
                self.running[core] = None;
                self.local[core].clear();
                self.try_push(self.domain_of(core), now, q);
            }
        }
    }
}

impl RpcSystem for Jbsq {
    fn name(&self) -> String {
        format!("{}({})", self.variant.name(), self.cfg.cores)
    }

    fn run(&mut self, trace: &Trace) -> SystemResult {
        let n = self.cfg.cores;
        let domains = n.div_ceil(self.cfg.domain_size);
        let mut steering = rpcstack::nic::Steering::rss();
        let mut rng = simcore::rng::stream_rng(0, simcore::rng::streams::NIC);
        let mac_delay = self.cfg.nic.mac_delay;
        let mut world = JbsqWorld {
            trace,
            cfg: self.cfg.clone(),
            nic_queue: vec![VecDeque::new(); domains],
            running: vec![None; n],
            local: vec![VecDeque::new(); n],
            in_flight: vec![0; n],
            stalled: vec![false; n],
            occ: OccTable::new(n),
            result: SystemResult::with_capacity(trace.len()),
        };
        drive(
            &mut world,
            trace,
            mac_delay,
            |i, req| {
                let domain = if domains == 1 {
                    0
                } else {
                    steering.steer(req.conn, domains, &mut rng)
                };
                (req.arrival + mac_delay, Ev::NicEnqueue(i, domain))
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

    fn trace(dist: ServiceDistribution, load: f64, cores: usize, n: usize) -> Trace {
        poisson_trace(dist, load, cores, n, 64, 31)
    }

    #[test]
    fn completes_all_variants() {
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.6,
            8,
            5000,
        );
        for v in [
            JbsqVariant::RpcValet,
            JbsqVariant::Nebula,
            JbsqVariant::NanoPu,
        ] {
            let r = Jbsq::new(v, 8).run(&t);
            assert_eq!(r.completions.len(), 5000, "{}", v.name());
        }
    }

    #[test]
    fn local_queues_respect_bound() {
        // Indirect check: with fixed service and bound 2, no request should
        // ever wait behind more than (bound-1) local entries beyond the NIC
        // queue — latency under light load is tightly clustered.
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.2,
            8,
            5000,
        );
        let r = Jbsq::new(JbsqVariant::Nebula, 8).run(&t);
        // At 20% load nearly everything should finish within ~2 service times
        // + stack + transfer.
        assert!(r.p99() < SimDuration::from_us(3), "p99={}", r.p99());
    }

    #[test]
    fn nebula_blows_up_on_bimodal_tail() {
        // The paper's headline observation: JBSQ without preemption suffers
        // on dispersed service times, nanoPU's preemption fixes it.
        let t = trace(ServiceDistribution::bimodal_paper(), 0.85, 16, 80_000);
        let nebula = Jbsq::new(JbsqVariant::Nebula, 16).run(&t);
        let nanopu = Jbsq::new(JbsqVariant::NanoPu, 16).run(&t);
        // 0.5% longs violate a 300us SLO by construction; Nebula additionally
        // strands shorts behind them while nanoPU's preemption rescues them,
        // so Nebula's violation ratio and p99 are both distinctly worse.
        let slo = SimDuration::from_us(300);
        let nb = nebula.violation_ratio(slo);
        let np = nanopu.violation_ratio(slo);
        assert!(
            nb > np * 1.5,
            "Nebula violations {nb} should far exceed nanoPU {np}"
        );
        assert!(
            np < 0.03,
            "nanoPU violations {np} should be near the 0.5% floor"
        );
        assert!(
            nebula.p99() > nanopu.p99(),
            "Nebula p99 {} should exceed nanoPU p99 {}",
            nebula.p99(),
            nanopu.p99()
        );
    }

    #[test]
    fn nebula_fine_on_uniform_service() {
        // Without dispersion, JBSQ(2) is near-optimal.
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.9,
            16,
            50_000,
        );
        let r = Jbsq::new(JbsqVariant::Nebula, 16).run(&t);
        assert!(r.p99() < SimDuration::from_us(20), "p99={}", r.p99());
    }

    #[test]
    fn rpcvalet_bound_one_idles_more() {
        // JBSQ(1) cannot hide transfer latency; JBSQ(2) prefetches one
        // request, so at high load Nebula sustains lower latency.
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_ns(500)),
            0.9,
            16,
            50_000,
        );
        let valet = Jbsq::new(JbsqVariant::RpcValet, 16).run(&t);
        let nebula = Jbsq::new(JbsqVariant::Nebula, 16).run(&t);
        assert!(
            nebula.p99() <= valet.p99(),
            "Nebula {} should not lose to RPCValet {}",
            nebula.p99(),
            valet.p99()
        );
    }

    #[test]
    fn deterministic() {
        let t = trace(ServiceDistribution::bimodal_paper(), 0.5, 8, 5000);
        let a = Jbsq::new(JbsqVariant::NanoPu, 8).run(&t);
        let b = Jbsq::new(JbsqVariant::NanoPu, 8).run(&t);
        assert_eq!(a.p99(), b.p99());
    }

    #[test]
    fn variant_names() {
        assert_eq!(Jbsq::new(JbsqVariant::Nebula, 4).name(), "Nebula(4)");
        assert_eq!(JbsqVariant::NanoPu.name(), "nanoPU");
    }

    #[test]
    fn routes_around_a_dead_core() {
        use simcore::faults::WorkerFailure;
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.6,
            8,
            20_000,
        );
        let mut cfg = JbsqConfig::of(JbsqVariant::Nebula, 8);
        cfg.faults.worker_failures.push(WorkerFailure {
            core: 3,
            at: SimTime::from_us(200),
        });
        let a = Jbsq::with_config(JbsqVariant::Nebula, cfg.clone()).run(&t);
        let b = Jbsq::with_config(JbsqVariant::Nebula, cfg).run(&t);
        // The central queue simply stops feeding the dead core, so at most
        // its held work (bound + in-flight) is lost — unlike dFCFS, which
        // keeps steering traffic at the corpse.
        let lost = t.len() - a.completions.len();
        assert!(
            lost <= 8,
            "JBSQ loses only the dead core's held work: {lost}"
        );
        assert_eq!(a.completions, b.completions); // fault runs stay deterministic
    }

    #[test]
    fn straggler_inflates_tail_but_completes() {
        use simcore::faults::Straggler;
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.6,
            8,
            20_000,
        );
        let healthy = Jbsq::new(JbsqVariant::Nebula, 8).run(&t);
        let mut cfg = JbsqConfig::of(JbsqVariant::Nebula, 8);
        cfg.faults.stragglers.push(Straggler {
            first_core: 0,
            last_core: 7,
            from: SimTime::from_us(100),
            until: SimTime::from_us(600),
            slowdown: 3.0,
        });
        let r = Jbsq::with_config(JbsqVariant::Nebula, cfg).run(&t);
        assert_eq!(r.completions.len(), t.len());
        assert!(
            r.p99() > healthy.p99(),
            "slowed {} vs healthy {}",
            r.p99(),
            healthy.p99()
        );
    }

    /// Pins the exact schedule of Nebula on 64 cores — two 32-core
    /// coherence domains fed by RSS — with core 33 dying at 500 µs, and of
    /// nanoPU on a bimodal trace whose long requests are preempted.
    #[test]
    fn schedule_digests_are_pinned() {
        use simcore::faults::WorkerFailure;
        let t = trace(ServiceDistribution::bimodal_paper(), 0.7, 64, 20_000);
        let mut cfg = JbsqConfig::of(JbsqVariant::Nebula, 64);
        assert_eq!(64 / cfg.domain_size, 2);
        cfg.faults.worker_failures.push(WorkerFailure {
            core: 33,
            at: SimTime::from_us(500),
        });
        let nebula = Jbsq::with_config(JbsqVariant::Nebula, cfg).run(&t);
        assert_eq!(nebula.completions.len(), 19999);
        assert_eq!(completion_digest(&nebula), 0xb8ef_b13e_0306_44c0);

        let t = trace(ServiceDistribution::bimodal_paper(), 0.8, 16, 20_000);
        let nanopu = Jbsq::new(JbsqVariant::NanoPu, 16).run(&t);
        assert_eq!(nanopu.completions.len(), 20_000);
        assert_eq!(completion_digest(&nanopu), 0xf10d_a403_7a24_f31a);
    }
}
