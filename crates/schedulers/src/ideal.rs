//! Idealized c-FCFS with a parametric scheduling overhead, plus queue-length
//! instrumentation.
//!
//! Two paper experiments run directly on this model:
//!
//! - **Fig. 3** sweeps the per-request scheduling overhead (5–360 ns) on a
//!   64-core system and shows the throughput cost at a 5 µs p99 target.
//! - **Fig. 7** records the central queue length seen by each arrival and
//!   correlates it with whether that request eventually violated its SLO —
//!   the characterization from which the threshold model is calibrated.

use crate::common::{drive, QueuedRequest, RpcSystem, SystemResult};
use simcore::event::{EventQueue, World};
use simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use workload::trace::Trace;

/// Configuration of the idealized central-queue system.
#[derive(Debug, Clone, Copy)]
pub struct CentralQueueConfig {
    /// Number of identical worker cores.
    pub cores: usize,
    /// Fixed scheduling cost added to every request's on-core time.
    pub sched_overhead: SimDuration,
}

impl CentralQueueConfig {
    /// An overhead-free c-FCFS (the Fig. 7 characterization system).
    pub fn ideal(cores: usize) -> Self {
        CentralQueueConfig {
            cores,
            sched_overhead: SimDuration::ZERO,
        }
    }
}

/// Result of an instrumented run: the usual [`SystemResult`] plus the queue
/// length each arrival observed.
#[derive(Debug, Clone)]
pub struct InstrumentedResult {
    /// Standard latency/completion result.
    pub system: SystemResult,
    /// Central-queue length (waiting requests, excluding those in service)
    /// observed by each arrival, indexed by trace position.
    pub arrival_queue_len: Vec<u32>,
}

impl InstrumentedResult {
    /// Buckets arrivals by observed queue length and returns
    /// `(queue_len, violation_ratio, samples)` rows — the data behind
    /// Fig. 7(a–c).
    pub fn violation_ratio_by_queue_len(
        &self,
        trace_len: usize,
        slo: SimDuration,
        bucket: u32,
    ) -> Vec<(u32, f64, u64)> {
        assert!(bucket > 0, "bucket width must be positive");
        let lat = self.system.latencies_by_request(trace_len);
        let mut totals: Vec<(u64, u64)> = Vec::new(); // (violations, count)
        for (idx, &qlen) in self.arrival_queue_len.iter().enumerate() {
            let Some(l) = lat.get(idx).copied().flatten() else {
                continue;
            };
            let b = (qlen / bucket) as usize;
            if b >= totals.len() {
                totals.resize(b + 1, (0, 0));
            }
            totals[b].1 += 1;
            if l > slo {
                totals[b].0 += 1;
            }
        }
        totals
            .iter()
            .enumerate()
            .filter(|(_, &(_, n))| n > 0)
            .map(|(b, &(v, n))| (b as u32 * bucket, v as f64 / n as f64, n))
            .collect()
    }

    /// The queue length observed by the *chronologically first* request that
    /// violated the SLO — the paper's measured threshold `T` (lower bound).
    /// `None` if nothing violated.
    pub fn first_violation_queue_len(&self, trace: &Trace, slo: SimDuration) -> Option<u32> {
        let lat = self.system.latencies_by_request(trace.len());
        // Requests are indexed in arrival order, so the first violating index
        // is the chronologically first violation.
        for (idx, l) in lat.iter().enumerate() {
            if let Some(l) = l {
                if *l > slo {
                    return Some(self.arrival_queue_len[idx]);
                }
            }
        }
        None
    }
}

/// The instrumented, idealized c-FCFS system. See [module docs](self).
#[derive(Debug, Clone)]
pub struct CentralQueue {
    cfg: CentralQueueConfig,
}

impl CentralQueue {
    /// Creates the system.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cfg: CentralQueueConfig) -> Self {
        assert!(cfg.cores > 0);
        CentralQueue { cfg }
    }

    /// Runs with queue-length instrumentation.
    pub fn run_instrumented(&mut self, trace: &Trace) -> InstrumentedResult {
        let mut world = CqWorld {
            trace,
            cfg: self.cfg,
            central: VecDeque::new(),
            running: vec![None; self.cfg.cores],
            arrival_queue_len: vec![0; trace.len()],
            result: SystemResult::with_capacity(trace.len()),
        };
        drive(
            &mut world,
            trace,
            SimDuration::ZERO,
            |i, req| (req.arrival, Ev::Arrival(i)),
            |_, _| {},
        );
        InstrumentedResult {
            system: world.result,
            arrival_queue_len: world.arrival_queue_len,
        }
    }
}

enum Ev {
    Arrival(usize),
    Done(usize),
}

struct CqWorld<'t> {
    trace: &'t Trace,
    cfg: CentralQueueConfig,
    central: VecDeque<QueuedRequest>,
    running: Vec<Option<QueuedRequest>>,
    arrival_queue_len: Vec<u32>,
    result: SystemResult,
}

impl CqWorld<'_> {
    fn start(&mut self, core: usize, qr: QueuedRequest, now: SimTime, q: &mut EventQueue<Ev>) {
        let cost = qr.remaining + self.cfg.sched_overhead;
        self.running[core] = Some(qr);
        q.push(now + cost, Ev::Done(core));
    }
}

impl World for CqWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
        match ev {
            Ev::Arrival(idx) => {
                let req = &self.trace.requests()[idx];
                self.arrival_queue_len[idx] = self.central.len() as u32;
                let qr = QueuedRequest::new(idx, req.service, now);
                if let Some(core) = self.running.iter().position(Option::is_none) {
                    self.start(core, qr, now, q);
                } else {
                    self.central.push_back(qr);
                }
            }
            Ev::Done(core) => {
                let qr = self.running[core].take().expect("Done on idle core");
                let req = &self.trace.requests()[qr.idx];
                self.result.complete(req, now, core, false);
                if let Some(next) = self.central.pop_front() {
                    self.start(core, next, now, q);
                }
            }
        }
    }
}

impl RpcSystem for CentralQueue {
    fn name(&self) -> String {
        format!("c-FCFS({}, oh={})", self.cfg.cores, self.cfg.sched_overhead)
    }

    fn run(&mut self, trace: &Trace) -> SystemResult {
        self.run_instrumented(trace).system
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::completion_digest;
    use queueing::erlang::MmK;
    use workload::arrival::PoissonProcess;
    use workload::dist::ServiceDistribution;
    use workload::trace::poisson_trace;

    fn trace(dist: ServiceDistribution, load: f64, cores: usize, n: usize, seed: u64) -> Trace {
        poisson_trace(dist, load, cores, n, 64, seed)
    }

    #[test]
    fn completes_all() {
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.8,
            16,
            10_000,
            1,
        );
        let r = CentralQueue::new(CentralQueueConfig::ideal(16)).run(&t);
        assert_eq!(r.completions.len(), 10_000);
    }

    #[test]
    fn matches_mmk_mean_wait() {
        // M/M/k sanity: exponential service, ideal c-FCFS — compare the
        // simulated mean sojourn against the closed form.
        let dist = ServiceDistribution::Exponential {
            mean: SimDuration::from_us(1),
        };
        let load = 0.8;
        let k = 8;
        let t = trace(dist, load, k, 400_000, 2);
        let r = CentralQueue::new(CentralQueueConfig::ideal(k)).run(&t);
        let model = MmK::new(k, PoissonProcess::rate_for_load(load, k, dist.mean()), 1e6);
        let sim_mean = r.hist.mean().as_secs_f64();
        let exact = model.mean_sojourn_secs();
        let rel = (sim_mean - exact).abs() / exact;
        assert!(rel < 0.05, "sim={sim_mean} exact={exact} rel={rel}");
    }

    #[test]
    fn overhead_raises_latency() {
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.9,
            64,
            100_000,
            3,
        );
        let p0 = CentralQueue::new(CentralQueueConfig::ideal(64))
            .run(&t)
            .p99();
        let p360 = CentralQueue::new(CentralQueueConfig {
            cores: 64,
            sched_overhead: SimDuration::from_ns(360),
        })
        .run(&t)
        .p99();
        assert!(p360 > p0, "overhead must raise p99: {p0} vs {p360}");
    }

    #[test]
    fn queue_len_recorded() {
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.99,
            16,
            50_000,
            4,
        );
        let r = CentralQueue::new(CentralQueueConfig::ideal(16)).run_instrumented(&t);
        assert_eq!(r.arrival_queue_len.len(), 50_000);
        // At 99% load the queue must be observed non-empty sometimes.
        assert!(r.arrival_queue_len.iter().any(|&q| q > 0));
    }

    #[test]
    fn violation_ratio_monotone_ish_in_queue_len() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_us(1));
        let t = trace(dist, 0.99, 16, 300_000, 6);
        let r = CentralQueue::new(CentralQueueConfig::ideal(16)).run_instrumented(&t);
        let slo = SimDuration::from_us(10); // L=10
        let rows = r.violation_ratio_by_queue_len(t.len(), slo, 20);
        assert!(!rows.is_empty());
        // The deepest buckets should violate at (near) certainty while the
        // shallowest do not.
        let first = rows.first().unwrap().1;
        let last = rows.last().unwrap().1;
        assert!(
            last > first,
            "deep queues must violate more: {first} vs {last}"
        );
        assert!(last > 0.9, "deepest bucket ratio {last}");
    }

    #[test]
    fn first_violation_below_naive_bound() {
        // Paper §IV-A: the first violation occurs at moderate occupancy, far
        // below k*L+1.
        // Seed 6 draws a trace whose realized load is slightly above 0.99;
        // near-critical runs are seed-sensitive, so pin a seed that queues.
        let dist = ServiceDistribution::Fixed(SimDuration::from_us(1));
        let t = trace(dist, 0.99, 16, 300_000, 6);
        let r = CentralQueue::new(CentralQueueConfig::ideal(16)).run_instrumented(&t);
        let slo = SimDuration::from_us(10);
        let t_first = r
            .first_violation_queue_len(&t, slo)
            .expect("violations exist");
        let naive = queueing::naive_upper_bound(16, 10.0) as u32;
        assert!(
            t_first < naive,
            "first violation at {t_first} >= naive {naive}"
        );
        assert!(t_first > 0);
    }

    #[test]
    fn no_violation_returns_none() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_us(1));
        let t = trace(dist, 0.2, 16, 10_000, 7);
        let r = CentralQueue::new(CentralQueueConfig::ideal(16)).run_instrumented(&t);
        assert_eq!(
            r.first_violation_queue_len(&t, SimDuration::from_us(100)),
            None
        );
    }

    /// Pins the exact schedule and the queue length every arrival saw, on
    /// an exponential trace near saturation.
    #[test]
    fn schedule_and_queue_lengths_are_pinned() {
        let dist = ServiceDistribution::Exponential {
            mean: SimDuration::from_us(1),
        };
        let t = trace(dist, 0.95, 16, 20_000, 5);
        let r = CentralQueue::new(CentralQueueConfig::ideal(16)).run_instrumented(&t);
        assert_eq!(r.system.completions.len(), 20_000);
        let qlen = r
            .arrival_queue_len
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &l| {
                simcore::trace::fnv1a64_fold(h, l as u64)
            });
        assert_eq!(completion_digest(&r.system), 0xdab0_76d3_5c68_ad86);
        assert_eq!(qlen, 0x0788_e87d_1549_7be3);
    }
}
