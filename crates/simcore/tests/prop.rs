//! Property-based tests for the simulation core.

use proptest::prelude::*;
use simcore::event::{BinaryHeapQueue, EventQueue};
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

proptest! {
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
    /// after the narrowing rehashes (which cannot split an instant).
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
