//! Property-based tests for the simulation core.

use proptest::prelude::*;
use simcore::event::{
    run, run_streamed, BinaryHeapQueue, EventQueue, RunSummary, StreamInjector, World,
};
use simcore::metrics::LatencyHistogram;
use simcore::time::{SimDuration, SimTime};

/// An arbitrary push/pop interleaving: `Some(time_ns)` pushes, `None` pops.
fn op_strategy() -> impl Strategy<Value = Vec<Option<u64>>> {
    proptest::collection::vec(
        prop_oneof![
            // Mostly pushes, clustered over a small time range so that ties
            // (FIFO tie-breaking) and bucket collisions actually occur.
            (0u64..2_000).prop_map(Some),
            // Occasional far-future pushes exercise the overflow heap.
            (1_000_000u64..100_000_000).prop_map(Some),
            Just(None),
        ],
        1..300,
    )
}

/// The default calendar window: 1024 buckets of 2^16 ps, about 67 µs.
const WINDOW_PS: u64 = 1024 << 16;

/// A follow-up delay in picoseconds drawn from one of four regimes by
/// `kind`: a same-instant tie, a gap inside one bucket, about one window,
/// or several windows.
fn churn_delay(kind: u8, raw: u64) -> u64 {
    match kind % 4 {
        0 => 0,
        1 => raw % (1 << 16),
        2 => WINDOW_PS - WINDOW_PS / 8 + raw % (WINDOW_PS / 4),
        _ => 2 * WINDOW_PS + raw % (8 * WINDOW_PS),
    }
}

/// Per pop: the 0–3 follow-ups it schedules, each a `(regime, raw)` delay.
fn churn_strategy() -> impl Strategy<Value = Vec<Vec<(u8, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<u8>(), any::<u64>()), 0..4),
        1..600,
    )
}

/// Arrival `i` of a streamed-run case: `(gap_ps, jitter_ps, follow_ps)`.
/// The arrival's lower bound is the running sum of gaps; it is scheduled
/// `jitter` later and pushes one follow-up `follow` after it runs.
type ArrivalSpec = (u64, u64, u64);

fn arrival_strategy() -> impl Strategy<Value = Vec<ArrivalSpec>> {
    proptest::collection::vec(
        (
            prop_oneof![
                Just(0u64),
                0u64..(1 << 16),
                0u64..WINDOW_PS,
                0u64..10 * WINDOW_PS,
            ],
            prop_oneof![Just(0u64), 0u64..200_000],
            prop_oneof![
                0u64..(1 << 16),
                0u64..2 * WINDOW_PS,
                // A far-future completion, like a 500 µs bimodal long.
                Just(500_000_000u64),
            ],
        ),
        1..300,
    )
}

/// Records every handled event; an arrival (`e < 1 << 20`) pushes its
/// follow-up `follow[e]` picoseconds later.
struct FollowUp<'a> {
    follow: &'a [u64],
    seen: Vec<(SimTime, u32)>,
}

impl World for FollowUp<'_> {
    type Event = u32;
    fn handle(&mut self, now: SimTime, e: u32, q: &mut EventQueue<u32>) {
        self.seen.push((now, e));
        if let Some(&d) = self.follow.get(e as usize) {
            q.push(now + SimDuration::from_ps(d), e + (1 << 20));
        }
    }
}

proptest! {
    /// Event-queue-shaped churn across many windows: every pop pushes 0–3
    /// follow-ups at `now` plus a delay from each regime — ties, sub-bucket
    /// gaps, one window, several windows — so the window slides, drains and
    /// re-anchors. The calendar queue must match the oracle on every pop,
    /// `peek_time` and `len`.
    #[test]
    fn sliding_window_churn_matches_heap(
        seeds in proptest::collection::vec(any::<u64>(), 1..8),
        steps in churn_strategy(),
    ) {
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut id = 0usize;
        for raw in seeds {
            let t = SimTime::from_ps(raw % (4 * WINDOW_PS));
            cal.push(t, id);
            heap.push(t, id);
            id += 1;
        }
        let mut now = SimTime::ZERO;
        for follow in &steps {
            let got = cal.pop();
            prop_assert_eq!(got, heap.pop());
            match got {
                Some((t, _)) => now = t,
                None => {
                    // Drained: restart the churn one window on.
                    let t = now + SimDuration::from_ps(WINDOW_PS);
                    cal.push(t, id);
                    heap.push(t, id);
                    id += 1;
                }
            }
            for &(kind, raw) in follow {
                let t = now + SimDuration::from_ps(churn_delay(kind, raw));
                cal.push(t, id);
                heap.push(t, id);
                id += 1;
            }
            prop_assert_eq!(cal.len(), heap.len());
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
        }
        loop {
            let (c, h) = (cal.pop(), heap.pop());
            prop_assert_eq!(c, h);
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
            if c.is_none() {
                break;
            }
        }
    }

    /// A streamed run over sparse arrivals (gaps up to ten windows, lower
    /// bounds below the scheduled times, follow-ups up to 500 µs out) runs
    /// exactly the upfront-push schedule for any chunk size, with or
    /// without a horizon stop, and never holds more events at once.
    #[test]
    fn streamed_matches_upfront_on_sparse_arrivals(
        spec in arrival_strategy(),
        chunk in 1usize..=64,
        horizon_pct in prop_oneof![Just(None), (0u64..=100).prop_map(Some)],
    ) {
        let mut lb = Vec::with_capacity(spec.len());
        let mut acc = 0u64;
        for &(gap, _, _) in &spec {
            acc += gap;
            lb.push(SimTime::from_ps(acc));
        }
        let at: Vec<SimTime> = spec
            .iter()
            .zip(&lb)
            .map(|(&(_, jitter, _), &l)| l + SimDuration::from_ps(jitter))
            .collect();
        let follow: Vec<u64> = spec.iter().map(|&(_, _, f)| f).collect();
        let horizon = horizon_pct.map_or(SimTime::MAX, |p| SimTime::from_ps(acc / 100 * p));
        let n = spec.len();

        let mut up_q = EventQueue::new();
        for (i, &t) in at.iter().enumerate() {
            up_q.push(t, i as u32);
        }
        let mut up = FollowUp { follow: &follow, seen: Vec::new() };
        let up_sum: RunSummary = run(&mut up, &mut up_q, horizon);

        let mut st_q = EventQueue::new();
        let base = st_q.reserve_seqs(n as u64);
        let mut source =
            StreamInjector::with_chunk(n, base, chunk, |i| lb[i], |i| (at[i], i as u32));
        let mut st = FollowUp { follow: &follow, seen: Vec::new() };
        let st_sum = run_streamed(&mut st, &mut st_q, &mut source, horizon);

        prop_assert_eq!(&up.seen, &st.seen);
        prop_assert_eq!(up_sum.events, st_sum.events);
        prop_assert_eq!(up_sum.end_time, st_sum.end_time);
        prop_assert!(
            st_sum.peak_queue <= up_sum.peak_queue,
            "streamed peak {} above upfront {}",
            st_sum.peak_queue,
            up_sum.peak_queue
        );
    }

    /// The calendar queue pops exactly the same `(time, event)` sequence as
    /// the binary-heap oracle on arbitrary push/pop interleavings, including
    /// FIFO ties and overflow traffic.
    #[test]
    fn calendar_matches_heap_on_interleavings(ops in op_strategy()) {
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Some(t_ns) => {
                    cal.push(SimTime::from_ns(t_ns), i);
                    heap.push(SimTime::from_ns(t_ns), i);
                }
                None => {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
        }
        loop {
            let (c, h) = (cal.pop(), heap.pop());
            prop_assert_eq!(c, h);
            if c.is_none() {
                break;
            }
        }
    }

    /// Same differential check with a deliberately tiny ring, so nearly every
    /// push overflows or rewinds the cursor.
    #[test]
    fn tiny_ring_matches_heap(ops in op_strategy()) {
        let mut cal = EventQueue::with_geometry(10, 4);
        let mut heap = BinaryHeapQueue::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Some(t_ns) => {
                    cal.push(SimTime::from_ns(t_ns), i);
                    heap.push(SimTime::from_ns(t_ns), i);
                }
                None => prop_assert_eq!(cal.pop(), heap.pop()),
            }
        }
        loop {
            let (c, h) = (cal.pop(), heap.pop());
            prop_assert_eq!(c, h);
            if c.is_none() {
                break;
            }
        }
    }

    /// One bucket holding more than the narrowing limit (48) of equal-time
    /// events, mixed with near neighbours and interleaved pops: the bucket
    /// minimum must still break every tie by push order, before, during and
    /// after any narrowing rehash the neighbours allow (no width splits an
    /// instant, so the tied events alone never narrow the geometry).
    #[test]
    fn dense_equal_time_bucket_matches_heap(
        tie_ns in 0u64..5_000,
        copies in 49usize..160,
        others in proptest::collection::vec((0u64..6_000, any::<bool>()), 0..120),
    ) {
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut id = 0usize;
        for _ in 0..copies {
            cal.push(SimTime::from_ns(tie_ns), id);
            heap.push(SimTime::from_ns(tie_ns), id);
            id += 1;
        }
        for &(t_ns, pop) in &others {
            if pop {
                prop_assert_eq!(cal.pop(), heap.pop());
            } else {
                cal.push(SimTime::from_ns(t_ns), id);
                heap.push(SimTime::from_ns(t_ns), id);
                id += 1;
            }
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
        }
        loop {
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
            let (c, h) = (cal.pop(), heap.pop());
            prop_assert_eq!(c, h);
            if c.is_none() {
                break;
            }
        }
    }

    /// The event queue always pops in non-decreasing time order, with FIFO
    /// tie-breaking.
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ns(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut popped = 0;
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t >= last_time);
            if t == last_time {
                if let Some(&prev) = seen_at_time.last() {
                    // FIFO within a tie: indices increase.
                    prop_assert!(idx > prev, "tie broken out of order");
                }
                seen_at_time.push(idx);
            } else {
                seen_at_time.clear();
                seen_at_time.push(idx);
            }
            last_time = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Histogram quantiles are within 2% relative error of the exact
    /// order-statistic for arbitrary sample sets.
    #[test]
    fn histogram_quantile_bounded_error(
        mut samples in proptest::collection::vec(100u64..100_000_000u64, 10..2000),
        q in 0.01f64..0.999f64,
    ) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(SimDuration::from_ps(s));
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1] as f64;
        let est = h.quantile(q).as_ps() as f64;
        let rel = (est - exact).abs() / exact;
        prop_assert!(rel < 0.02, "q={q} est={est} exact={exact} rel={rel}");
    }

    /// Quantiles are monotone in q, bounded by min and max.
    #[test]
    fn histogram_quantiles_monotone(samples in proptest::collection::vec(1u64..10_000_000u64, 2..500)) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(SimDuration::from_ps(s));
        }
        let mut last = SimDuration::ZERO;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = h.quantile(q);
            prop_assert!(v >= last);
            prop_assert!(v <= h.max());
            last = v;
        }
        prop_assert!(h.quantile(0.0) >= h.min() || h.quantile(0.0) == h.min());
    }

    /// Merging two histograms equals recording both sample sets into one.
    #[test]
    fn histogram_merge_equivalent(
        a in proptest::collection::vec(1u64..1_000_000u64, 1..300),
        b in proptest::collection::vec(1u64..1_000_000u64, 1..300),
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hall = LatencyHistogram::new();
        for &s in &a { ha.record(SimDuration::from_ps(s)); hall.record(SimDuration::from_ps(s)); }
        for &s in &b { hb.record(SimDuration::from_ps(s)); hall.record(SimDuration::from_ps(s)); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hall.count());
        prop_assert_eq!(ha.max(), hall.max());
        prop_assert_eq!(ha.min(), hall.min());
        for i in 1..10 {
            prop_assert_eq!(ha.quantile(i as f64 / 10.0), hall.quantile(i as f64 / 10.0));
        }
    }

    /// Time arithmetic: (t + d) - t == d for in-range values.
    #[test]
    fn time_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t0 = SimTime::from_ps(t);
        let dd = SimDuration::from_ps(d);
        prop_assert_eq!((t0 + dd) - t0, dd);
    }
}
