//! Throughput@SLO search.
//!
//! The paper's primary metric is *throughput@SLO*: the highest offered load
//! whose measured 99th-percentile latency stays within the SLO (§II-A).
//! [`throughput_at_slo`] finds it by bisection over a caller-provided
//! evaluation closure, so it works for every system in this workspace.

use simcore::time::SimDuration;

/// Finds the highest load in `[lo, hi]` with `eval(load) <= slo`, to within
/// `tol` of load, by bisection. Returns `None` if even `lo` violates.
///
/// Each load is evaluated at most once: `lo` and `hi` first, then only
/// midpoints, which lie strictly inside the shrinking bracket.
///
/// `eval` must be monotone-ish in load (tail latency grows with load), which
/// holds for all the queueing systems here.
///
/// # Panics
///
/// Panics if the interval or tolerance is malformed.
///
/// # Examples
///
/// ```
/// use schedulers::sweep::throughput_at_slo;
/// use simcore::time::SimDuration;
///
/// // A toy system whose p99 is load*10us.
/// let best = throughput_at_slo(
///     |load| SimDuration::from_ns_f64(load * 10_000.0),
///     SimDuration::from_us(5),
///     0.05, 1.0, 0.01,
/// );
/// let best = best.unwrap();
/// assert!((best - 0.5).abs() < 0.02, "best={best}");
/// ```
pub fn throughput_at_slo<F>(
    mut eval: F,
    slo: SimDuration,
    lo: f64,
    hi: f64,
    tol: f64,
) -> Option<f64>
where
    F: FnMut(f64) -> SimDuration,
{
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    assert!(tol > 0.0, "tolerance must be positive");
    if eval(lo) > slo {
        return None;
    }
    if eval(hi) <= slo {
        return Some(hi);
    }
    let (mut good, mut bad) = (lo, hi);
    while bad - good > tol {
        let mid = (good + bad) / 2.0;
        if eval(mid) <= slo {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Some(good)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_crossover() {
        // p99 = load^2 * 100us; SLO 25us -> load 0.5.
        let f = |load: f64| SimDuration::from_ns_f64(load * load * 100_000.0);
        let best = throughput_at_slo(f, SimDuration::from_us(25), 0.05, 1.0, 0.005).unwrap();
        assert!((best - 0.5).abs() < 0.01, "best={best}");
    }

    #[test]
    fn returns_hi_if_never_violates() {
        let f = |_| SimDuration::from_ns(1);
        assert_eq!(
            throughput_at_slo(f, SimDuration::from_us(1), 0.1, 0.95, 0.01),
            Some(0.95)
        );
    }

    #[test]
    fn returns_none_if_always_violates() {
        let f = |_| SimDuration::from_ms(1);
        assert_eq!(
            throughput_at_slo(f, SimDuration::from_us(1), 0.1, 0.95, 0.01),
            None
        );
    }

    #[test]
    fn search_never_evaluates_a_load_twice() {
        // A deep bisection (tol 0.001) probes many loads; none twice.
        for tol in [0.005, 0.001] {
            let mut evals = Vec::new();
            let best = throughput_at_slo(
                |load| {
                    evals.push(load);
                    SimDuration::from_ns_f64(load * load * 100_000.0)
                },
                SimDuration::from_us(25),
                0.05,
                1.0,
                tol,
            );
            assert_eq!(&evals[..2], &[0.05, 1.0], "bounds are evaluated first");
            let mut uniq = evals.clone();
            uniq.sort_by(|a, b| a.partial_cmp(b).unwrap());
            uniq.dedup();
            assert_eq!(uniq.len(), evals.len(), "duplicate evaluations: {evals:?}");
            assert!((best.unwrap() - 0.5).abs() < 0.01);
        }
    }

    #[test]
    fn search_none_still_reports_lo() {
        let mut evals = Vec::new();
        let best = throughput_at_slo(
            |load| {
                evals.push(load);
                SimDuration::from_ms(1)
            },
            SimDuration::from_us(1),
            0.1,
            0.95,
            0.01,
        );
        assert_eq!(best, None);
        assert_eq!(evals, [0.1], "a violating lower bound ends the search");
    }

    #[test]
    #[should_panic(expected = "0 < lo < hi")]
    fn rejects_bad_interval() {
        throughput_at_slo(
            |_| SimDuration::ZERO,
            SimDuration::from_ns(1),
            0.5,
            0.2,
            0.01,
        );
    }
}
