//! Types shared by all simulated scheduling systems.

use simcore::metrics::{LatencyHistogram, LatencySummary};
use simcore::time::{SimDuration, SimTime};
use workload::request::{Completion, Request};
use workload::trace::Trace;

/// A request sitting in some queue inside a simulated system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedRequest {
    /// Index into the driving trace.
    pub idx: usize,
    /// Remaining handler time (smaller than the original service time once a
    /// preemptive scheduler has run part of it).
    pub remaining: SimDuration,
    /// Instant the request entered the *current* queue.
    pub enqueued: SimTime,
    /// Whether an Altocumulus manager already migrated it (at-most-once).
    pub migrated: bool,
}

impl QueuedRequest {
    /// Creates a fresh entry for trace request `idx`.
    pub fn new(idx: usize, remaining: SimDuration, enqueued: SimTime) -> Self {
        QueuedRequest {
            idx,
            remaining,
            enqueued,
            migrated: false,
        }
    }
}

/// Everything a system run produces: the latency distribution plus
/// per-request completion records (used for migration-effectiveness
/// accounting and prediction-accuracy analysis).
#[derive(Debug, Clone)]
pub struct SystemResult {
    /// Server-side latency distribution (NIC arrival → buffers freed).
    pub hist: LatencyHistogram,
    /// Per-request completion records, in completion order.
    pub completions: Vec<Completion>,
    /// Instant the last request completed.
    pub end_time: SimTime,
}

impl SystemResult {
    /// Creates an empty result sized for `n` requests.
    pub fn with_capacity(n: usize) -> Self {
        SystemResult {
            hist: LatencyHistogram::new(),
            completions: Vec::with_capacity(n),
            end_time: SimTime::ZERO,
        }
    }

    /// Records one completion.
    pub fn record(&mut self, completion: Completion) {
        self.hist.record(completion.latency());
        self.end_time = self.end_time.max(completion.finish);
        self.completions.push(completion);
    }

    /// 99th-percentile latency — the paper's SLO metric.
    pub fn p99(&self) -> SimDuration {
        self.hist.quantile(0.99)
    }

    /// Fraction of requests whose latency exceeded `slo`.
    pub fn violation_ratio(&self, slo: SimDuration) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        let violations = self
            .completions
            .iter()
            .filter(|c| c.latency() > slo)
            .count();
        violations as f64 / self.completions.len() as f64
    }

    /// Achieved goodput in requests/second over the run.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.end_time.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completions.len() as f64 / secs
    }

    /// Convenience: [`LatencySummary`] of the distribution.
    pub fn summary(&self) -> LatencySummary {
        self.hist.summary()
    }

    /// Per-request latencies indexed by trace position (for effectiveness
    /// accounting). Missing entries (never completed) are `None`.
    pub fn latencies_by_request(&self, trace_len: usize) -> Vec<Option<SimDuration>> {
        let mut out = vec![None; trace_len];
        for c in &self.completions {
            let i = c.id.0 as usize;
            if i < trace_len {
                out[i] = Some(c.latency());
            }
        }
        out
    }
}

/// A simulated end-to-end RPC scheduling system: feed it a trace, get the
/// measured result. All baselines and Altocumulus configurations implement
/// this, so experiments can treat them uniformly.
pub trait RpcSystem {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> String;

    /// Consumes `trace` and returns the measured result.
    fn run(&mut self, trace: &Trace) -> SystemResult;
}

/// Dense per-core occupancy plane — the *hot* state every scheduling
/// decision scans, split from the cold per-core payloads (queues,
/// in-service descriptors, config) exactly like the ALTOCUMULUS engine's
/// group hot/cold planes.
///
/// One `u32` per core, so a whole 16-core domain's occupancy fits in a
/// single cache line; the payload vectors are only touched for the one
/// core a decision lands on. Dead cores are folded into the same word as
/// a sentinel, so liveness checks cost no second array. An idle bitset
/// (one bit per core, set iff the core is live with occupancy zero) is
/// kept beside it, so the common "is any core idle?" question is a
/// `trailing_zeros` instead of a data-dependent compare loop.
///
/// All counts are maintained incrementally by the caller; the table has no
/// opinion about what "occupancy" means (running + local + in-flight for
/// JBSQ, a 0/1 busy flag for the dispatch/stealing models).
#[derive(Debug, Clone)]
pub struct OccTable {
    occ: Vec<u32>,
    /// Bit `c % 64` of word `c / 64` is set iff core `c` is live and has
    /// occupancy zero. Kept in lockstep by `incr`, `decr` and `mark_dead`.
    idle: Vec<u64>,
}

/// Sentinel occupancy of a failed core: never under any bound, never the
/// minimum while any live core exists.
const DEAD: u32 = u32::MAX;

impl OccTable {
    /// A table of `n` idle, live cores.
    pub fn new(n: usize) -> Self {
        let mut idle = vec![0u64; n.div_ceil(64)];
        for core in 0..n {
            idle[core / 64] |= 1 << (core % 64);
        }
        OccTable {
            occ: vec![0; n],
            idle,
        }
    }

    /// Current occupancy of a live core.
    pub fn get(&self, core: usize) -> u32 {
        debug_assert_ne!(self.occ[core], DEAD, "occupancy of a dead core");
        self.occ[core]
    }

    /// Adds one to a live core's occupancy.
    pub fn incr(&mut self, core: usize) {
        debug_assert_ne!(self.occ[core], DEAD, "incr on a dead core");
        self.occ[core] += 1;
        self.idle[core / 64] &= !(1 << (core % 64));
    }

    /// Removes one from a live core's occupancy.
    pub fn decr(&mut self, core: usize) {
        debug_assert_ne!(self.occ[core], DEAD, "decr on a dead core");
        debug_assert_ne!(self.occ[core], 0, "occupancy underflow");
        self.occ[core] -= 1;
        self.idle[core / 64] |= ((self.occ[core] == 0) as u64) << (core % 64);
    }

    /// Marks a core fail-stopped: it drops out of every scan from now on.
    pub fn mark_dead(&mut self, core: usize) {
        self.occ[core] = DEAD;
        self.idle[core / 64] &= !(1 << (core % 64));
    }

    /// Whether `core` has been marked dead.
    pub fn is_dead(&self, core: usize) -> bool {
        self.occ[core] == DEAD
    }

    /// First core in `range` whose occupancy is minimal among those below
    /// `bound`, or `None` when every live core is at the bound. Ties
    /// resolve to the lowest index — the same answer as
    /// `range.filter(|c| live && occ < bound).min_by_key(occ)`.
    ///
    /// An idle core has the smallest possible occupancy and the lowest set
    /// idle bit is the lowest such index, so the bitset answers whenever any
    /// core in `range` is idle. Only a range with no idle core (and a bound
    /// that admits busy ones) falls back to scanning occupancies, as a
    /// select-based minimum over `(occupancy, core)` packed into one `u64`.
    pub fn argmin_under(&self, range: std::ops::Range<usize>, bound: u32) -> Option<usize> {
        if bound == 0 {
            return None;
        }
        if let Some(core) = self.first_idle(range.clone()) {
            return Some(core);
        }
        if bound == 1 {
            return None;
        }
        let mut best = u64::MAX;
        for core in range {
            let occ = self.occ[core];
            // `DEAD` is never under a bound, so dead cores drop out here.
            let key = if occ < bound {
                ((occ as u64) << 32) | core as u64
            } else {
                u64::MAX
            };
            best = best.min(key);
        }
        (best != u64::MAX).then_some(best as u32 as usize)
    }

    /// First idle live core in `range` (occupancy zero), or `None`: the
    /// lowest set idle bit at or past `range.start`, word by word.
    pub fn first_idle(&self, range: std::ops::Range<usize>) -> Option<usize> {
        if range.is_empty() {
            return None;
        }
        let mut word = range.start / 64;
        let mut bits = self.idle[word] & (u64::MAX << (range.start % 64));
        loop {
            if bits != 0 {
                // The lowest set bit past the start: in range iff any is.
                let core = word * 64 + bits.trailing_zeros() as usize;
                return (core < range.end).then_some(core);
            }
            word += 1;
            if word * 64 >= range.end {
                return None;
            }
            bits = self.idle[word];
        }
    }
}

/// The total on-core cost of executing `req`: stack receive + handler + stack
/// transmit, with a fixed per-request scheduling overhead added.
pub fn on_core_cost(
    rx: SimDuration,
    tx: SimDuration,
    req: &Request,
    sched_overhead: SimDuration,
) -> SimDuration {
    rx + req.service + tx + sched_overhead
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::request::RequestId;

    fn completion(id: u64, arrival_ns: u64, finish_ns: u64) -> Completion {
        Completion {
            id: RequestId(id),
            arrival: SimTime::from_ns(arrival_ns),
            finish: SimTime::from_ns(finish_ns),
            core: 0,
            migrated: false,
        }
    }

    #[test]
    fn result_records_and_summarizes() {
        let mut r = SystemResult::with_capacity(4);
        r.record(completion(0, 0, 100));
        r.record(completion(1, 0, 200));
        r.record(completion(2, 0, 300));
        assert_eq!(r.completions.len(), 3);
        assert_eq!(r.end_time, SimTime::from_ns(300));
        assert_eq!(r.summary().count, 3);
    }

    #[test]
    fn violation_ratio_counts() {
        let mut r = SystemResult::with_capacity(2);
        r.record(completion(0, 0, 100));
        r.record(completion(1, 0, 1000));
        assert_eq!(r.violation_ratio(SimDuration::from_ns(500)), 0.5);
        assert_eq!(r.violation_ratio(SimDuration::from_ns(5000)), 0.0);
    }

    #[test]
    fn throughput_over_span() {
        let mut r = SystemResult::with_capacity(2);
        r.record(completion(0, 0, 500_000)); // 0.5ms
        r.record(completion(1, 0, 1_000_000)); // 1ms
        let rps = r.throughput_rps();
        assert!((rps - 2000.0).abs() < 1.0, "rps={rps}");
    }

    #[test]
    fn latencies_by_request_indexes() {
        let mut r = SystemResult::with_capacity(3);
        r.record(completion(2, 0, 50));
        r.record(completion(0, 10, 100));
        let v = r.latencies_by_request(3);
        assert_eq!(v[0], Some(SimDuration::from_ns(90)));
        assert_eq!(v[1], None);
        assert_eq!(v[2], Some(SimDuration::from_ns(50)));
    }

    #[test]
    fn occ_table_argmin_is_first_minimal_under_bound() {
        let mut t = OccTable::new(4);
        t.incr(0);
        t.incr(0);
        t.incr(1);
        t.incr(2);
        t.incr(3);
        // occ = [2, 1, 1, 1]: first minimal under bound 2 is core 1.
        assert_eq!(t.argmin_under(0..4, 2), Some(1));
        // Bound 1 excludes everything.
        assert_eq!(t.argmin_under(0..4, 1), None);
        // Sub-range scans stay within the range.
        assert_eq!(t.argmin_under(2..4, 2), Some(2));
        t.decr(3);
        assert_eq!(t.first_idle(0..4), Some(3));
    }

    #[test]
    fn occ_table_dead_cores_drop_out() {
        let mut t = OccTable::new(3);
        t.mark_dead(0);
        assert!(t.is_dead(0));
        assert!(!t.is_dead(1));
        // The dead core is never a candidate, whatever the bound.
        assert_eq!(t.first_idle(0..3), Some(1));
        t.incr(1);
        t.incr(2);
        assert_eq!(t.argmin_under(0..3, u32::MAX - 1), Some(1));
        t.mark_dead(1);
        t.mark_dead(2);
        assert_eq!(t.argmin_under(0..3, u32::MAX - 1), None);
    }

    /// The linear scan `argmin_under` replaced, kept as its oracle.
    fn argmin_under_scan(occ: &[u32], range: std::ops::Range<usize>, bound: u32) -> Option<usize> {
        let mut best: Option<(u32, usize)> = None;
        for core in range {
            let occ = occ[core];
            if occ >= bound {
                continue; // covers DEAD: the sentinel is never under a bound
            }
            if occ == 0 {
                return Some(core);
            }
            if best.is_none_or(|(b, _)| occ < b) {
                best = Some((occ, core));
            }
        }
        best.map(|(_, core)| core)
    }

    /// One random operation on an `OccTable`: `(kind, core)` with kind in
    /// `0..10`. Increments outnumber decrements two to one, so tables fill
    /// up and ranges without an idle core (the scan fallback) are common;
    /// one kind in ten kills the core.
    fn apply(t: &mut OccTable, kind: u8, core: usize) {
        if t.is_dead(core) {
            return;
        }
        match kind {
            0..=5 => t.incr(core),
            6..=8 if t.get(core) > 0 => t.decr(core),
            9 => t.mark_dead(core),
            _ => {}
        }
    }

    proptest::proptest! {
        /// The bitset answers exactly like the linear scan on tables that
        /// cross the 64- and 128-core word boundaries, over ranges that
        /// start or end mid-word (or are empty) and bounds 1 to 4.
        #[test]
        fn occ_table_bitset_matches_scan(
            n in 1usize..131,
            ops in proptest::collection::vec(
                (0u8..10, 0usize..1000),
                0..600,
            ),
            queries in proptest::collection::vec((0usize..1000, 0usize..1000, 1u32..5), 1..16),
        ) {
            let mut t = OccTable::new(n);
            for (i, &(kind, core)) in ops.iter().enumerate() {
                apply(&mut t, kind, core % n);
                // Check a query after every few operations, not just at
                // the end, so every intermediate table is covered.
                if i % 8 == 0 {
                    let (a, b, bound) = queries[i % queries.len()];
                    let (lo, hi) = (a % (n + 1), b % (n + 1));
                    let range = lo.min(hi)..lo.max(hi);
                    proptest::prop_assert_eq!(
                        t.argmin_under(range.clone(), bound),
                        argmin_under_scan(&t.occ, range.clone(), bound)
                    );
                    proptest::prop_assert_eq!(
                        t.first_idle(range.clone()),
                        argmin_under_scan(&t.occ, range, 1)
                    );
                }
            }
            for &(a, b, bound) in &queries {
                let (lo, hi) = (a % (n + 1), b % (n + 1));
                for range in [lo.min(hi)..lo.max(hi), 0..n, lo..lo] {
                    proptest::prop_assert_eq!(
                        t.argmin_under(range.clone(), bound),
                        argmin_under_scan(&t.occ, range.clone(), bound)
                    );
                    proptest::prop_assert_eq!(
                        t.first_idle(range.clone()),
                        argmin_under_scan(&t.occ, range, 1)
                    );
                }
            }
        }
    }

    #[test]
    fn empty_result_is_safe() {
        let r = SystemResult::with_capacity(0);
        assert_eq!(r.p99(), SimDuration::ZERO);
        assert_eq!(r.violation_ratio(SimDuration::from_ns(1)), 0.0);
        assert_eq!(r.throughput_rps(), 0.0);
    }
}
