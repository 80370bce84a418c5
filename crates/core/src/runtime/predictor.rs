//! Online SLO-violation prediction (paper §IV + Fig. 5 online path).
//!
//! Each manager estimates the current offered load from its arrival counter,
//! then evaluates the calibrated threshold model `E[T̂]` for its worker group.
//! The threshold is recomputed every period from the *measured* load, which
//! is what makes Altocumulus adapt to bursty traffic where statically-tuned
//! hardware schedulers cannot.

use queueing::threshold::ThresholdModel;
use simcore::time::SimDuration;

/// How the migration threshold is chosen each period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// The calibrated linear model of Eq. 2 (the paper's design).
    Model(ThresholdModel),
    /// A fixed queue length (ablation).
    Fixed(usize),
    /// The naive upper bound `k·L + 1` (ablation; maximal effectiveness,
    /// minimal accuracy).
    NaiveUpperBound {
        /// SLO-to-mean-service ratio `L`.
        slo_ratio: f64,
    },
}

impl ThresholdPolicy {
    /// Evaluates the threshold for a group with `workers` cores at measured
    /// offered load `offered` (Erlangs).
    pub fn threshold(&self, workers: usize, offered: f64) -> usize {
        match *self {
            ThresholdPolicy::Model(m) => m.threshold(workers, offered),
            ThresholdPolicy::Fixed(t) => t,
            ThresholdPolicy::NaiveUpperBound { slo_ratio } => {
                queueing::naive_upper_bound(workers, slo_ratio)
            }
        }
    }

    /// A lower bound on every value [`threshold`](Self::threshold) can
    /// return for a group with `workers` cores, whatever the offered load:
    /// 1 for the model (its threshold is floored at 1), the constant itself
    /// for the other policies. The runtime reads a threshold only through
    /// `queue_len > threshold`, which is false for both the floor and the
    /// exact value whenever `queue_len <= floor` — so such a tick may skip
    /// the model evaluation and plan with the floor.
    pub fn floor(&self, workers: usize) -> usize {
        match *self {
            ThresholdPolicy::Model(_) => 1,
            ThresholdPolicy::Fixed(t) => t,
            ThresholdPolicy::NaiveUpperBound { slo_ratio } => {
                queueing::naive_upper_bound(workers, slo_ratio)
            }
        }
    }
}

/// Exponentially-weighted estimator of the local offered load.
///
/// Every period the runtime feeds it the number of arrivals since the last
/// tick; it maintains a smoothed rate and converts it to Erlangs using the
/// (known, offline-profiled) mean service time.
#[derive(Debug, Clone)]
pub struct LoadEstimator {
    mean_service: SimDuration,
    /// EWMA smoothing factor for the per-period rate.
    alpha: f64,
    rate_per_sec: f64,
    primed: bool,
}

impl LoadEstimator {
    /// Creates an estimator. `mean_service` comes from the offline profile
    /// (µ in Fig. 5); `alpha` is the EWMA weight of the newest sample.
    ///
    /// # Panics
    ///
    /// Panics if `mean_service` is zero or `alpha` outside `(0, 1]`.
    pub fn new(mean_service: SimDuration, alpha: f64) -> Self {
        assert!(
            !mean_service.is_zero(),
            "mean service time must be positive"
        );
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        LoadEstimator {
            mean_service,
            alpha,
            rate_per_sec: 0.0,
            primed: false,
        }
    }

    /// Records `arrivals` observed during the elapsed `period` and updates
    /// the smoothed rate.
    pub fn observe(&mut self, arrivals: u64, period: SimDuration) {
        let secs = period.as_secs_f64();
        if secs <= 0.0 {
            return;
        }
        if arrivals == 0 && self.primed {
            // `(1-α)·r + α·0.0` rounds to exactly `(1-α)·r`: the added term
            // is +0.0 and the product is never -0.0 (r >= 0), so the short
            // form is bit-identical and skips a division.
            self.rate_per_sec *= 1.0 - self.alpha;
            return;
        }
        let sample = arrivals as f64 / secs;
        if self.primed {
            self.rate_per_sec = (1.0 - self.alpha) * self.rate_per_sec + self.alpha * sample;
        } else {
            self.rate_per_sec = sample;
            self.primed = true;
        }
    }

    /// Fast-forwards the estimator across `ticks` idle periods, exactly as
    /// if [`observe`](Self::observe)`(0, period)` had been called `ticks`
    /// times.
    ///
    /// Deliberately implemented as the literal loop of EWMA multiplies
    /// rather than the closed form `rate · (1−α)^k`: `powf` rounds once
    /// while the loop rounds per step, and the idle-tick fast-forward in
    /// the system model needs the skipped ticks to leave the estimator
    /// *bit-identical* to having run them. Idle stretches are bounded by
    /// the trace's arrival gaps divided by the period, so the loop stays
    /// short in practice.
    pub fn fast_forward_idle(&mut self, ticks: u64, period: SimDuration) {
        for _ in 0..ticks {
            self.observe(0, period);
        }
    }

    /// Smoothed arrival rate (requests/second).
    pub fn rate_per_sec(&self) -> f64 {
        self.rate_per_sec
    }

    /// Offered load in Erlangs: `A = λ · E[S]`.
    pub fn offered_erlangs(&self) -> f64 {
        self.rate_per_sec * self.mean_service.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::patterns::{
        plan_migrations_into, plan_patched_into, plan_threshold_only_into, MigrationOrder,
        PlanScratch, SharedExtremes,
    };
    use proptest::prelude::*;
    use queueing::erlang::expected_queue_len;

    #[test]
    fn estimator_converges_to_steady_rate() {
        let mut e = LoadEstimator::new(SimDuration::from_ns(850), 0.2);
        // 2 arrivals every 200ns = 10 GRPS... use realistic: 1 arrival per
        // 200ns period = 5 MRPS.
        for _ in 0..100 {
            e.observe(1, SimDuration::from_ns(200));
        }
        assert!((e.rate_per_sec() - 5e6).abs() / 5e6 < 1e-9);
        // A = 5e6 * 850e-9 = 4.25 Erlangs.
        assert!((e.offered_erlangs() - 4.25).abs() < 1e-9);
    }

    #[test]
    fn estimator_tracks_rate_changes() {
        let mut e = LoadEstimator::new(SimDuration::from_us(1), 0.3);
        for _ in 0..50 {
            e.observe(2, SimDuration::from_us(1));
        }
        let before = e.rate_per_sec();
        for _ in 0..50 {
            e.observe(6, SimDuration::from_us(1));
        }
        let after = e.rate_per_sec();
        assert!(after > before * 2.0, "EWMA should follow the burst");
    }

    #[test]
    fn smoothing_dampens_noise() {
        let mut smooth = LoadEstimator::new(SimDuration::from_us(1), 0.05);
        let mut jumpy = LoadEstimator::new(SimDuration::from_us(1), 1.0);
        let samples = [0u64, 8, 0, 8, 0, 8, 0, 8];
        for &s in &samples {
            smooth.observe(s, SimDuration::from_us(1));
            jumpy.observe(s, SimDuration::from_us(1));
        }
        // Jumpy ends at the last sample; smooth stays near the start value's
        // neighbourhood (it was primed with 0, climbing slowly).
        assert_eq!(jumpy.rate_per_sec(), 8e6);
        assert!(smooth.rate_per_sec() < 4e6);
    }

    #[test]
    fn fast_forward_idle_is_bit_identical_to_observed_zeros() {
        // The quiescence contract of the idle-tick fast-forward: k skipped
        // ticks leave the estimator bit-identical to k real observe(0, ·)
        // calls, for alphas whose (1-α) multiplies round at every step.
        let period = SimDuration::from_ns(200);
        for alpha in [0.2, 0.05, 0.37, 1.0] {
            for k in [0u64, 1, 2, 7, 100, 1000] {
                let mut looped = LoadEstimator::new(SimDuration::from_ns(850), alpha);
                let mut skipped = looped.clone();
                // Prime both with some traffic so the decay path is active.
                for _ in 0..5 {
                    looped.observe(3, period);
                    skipped.observe(3, period);
                }
                for _ in 0..k {
                    looped.observe(0, period);
                }
                skipped.fast_forward_idle(k, period);
                assert_eq!(
                    looped.rate_per_sec().to_bits(),
                    skipped.rate_per_sec().to_bits(),
                    "alpha={alpha} k={k}: fast-forward diverged from real ticks"
                );
            }
        }
    }

    #[test]
    fn zero_observation_matches_the_ewma_formula_bitwise() {
        let period = SimDuration::from_ns(200);
        for alpha in [0.2, 0.05, 0.37, 0.999, 1.0] {
            for arrivals in [0u64, 1, 3, 17, 1000] {
                let mut e = LoadEstimator::new(SimDuration::from_ns(850), alpha);
                e.observe(arrivals, period);
                for _ in 0..50 {
                    let r = e.rate_per_sec();
                    let want = (1.0 - alpha) * r + alpha * (0.0 / period.as_secs_f64());
                    e.observe(0, period);
                    assert_eq!(e.rate_per_sec().to_bits(), want.to_bits(), "alpha={alpha}");
                }
            }
        }
    }

    #[test]
    fn policy_model_matches_threshold_model() {
        let m = ThresholdModel::paper_fixed();
        let p = ThresholdPolicy::Model(m);
        assert_eq!(p.threshold(15, 15.0 * 0.97), m.threshold(15, 15.0 * 0.97));
    }

    #[test]
    fn policy_fixed_and_naive() {
        assert_eq!(ThresholdPolicy::Fixed(42).threshold(16, 15.0), 42);
        assert_eq!(
            ThresholdPolicy::NaiveUpperBound { slo_ratio: 10.0 }.threshold(64, 60.0),
            641
        );
    }

    #[test]
    fn model_threshold_scales_with_measured_load() {
        let p = ThresholdPolicy::Model(ThresholdModel::identity());
        let t_low = p.threshold(15, 15.0 * 0.80);
        let t_high = p.threshold(15, 15.0 * 0.99);
        assert!(t_high > t_low);
        // Cross-check one value against Erlang-C directly.
        let expect = expected_queue_len(15, 15.0 * 0.99).round() as usize;
        assert_eq!(p.threshold(15, 15.0 * 0.99), expect.max(1));
    }

    /// Every policy shape: the paper's and the identity model, arbitrary
    /// (also negative) model constants, fixed and naive thresholds.
    fn any_policy() -> impl Strategy<Value = ThresholdPolicy> {
        prop_oneof![
            Just(ThresholdPolicy::Model(ThresholdModel::paper_fixed())),
            Just(ThresholdPolicy::Model(ThresholdModel::identity())),
            (-2.0f64..3.0, -8.0f64..8.0, -2.0f64..3.0, -8.0f64..8.0)
                .prop_map(|(a, b, c, d)| ThresholdPolicy::Model(ThresholdModel { a, b, c, d })),
            (0usize..40).prop_map(ThresholdPolicy::Fixed),
            (0.0f64..20.0).prop_map(|slo_ratio| ThresholdPolicy::NaiveUpperBound { slo_ratio }),
        ]
    }

    /// Offered load for a `workers`-core group: idle, subnormal, just
    /// under saturation, saturated, overloaded, or arbitrary below `w`.
    fn offered_load(workers: usize, kind: u8, x: f64) -> f64 {
        let w = workers as f64;
        match kind {
            0 => 0.0,
            1 => f64::from_bits(1 + (x * 1e6) as u64), // subnormal
            2 => f64::from_bits(w.to_bits() - 1),      // the largest f64 below w
            3 => w * (1.0 - 1e-9 * x),
            4 => w,
            5 => w + 4.0 * x,
            _ => w * x,
        }
    }

    proptest! {
        /// The floor bounds every threshold the policy can return.
        #[test]
        fn floor_bounds_every_threshold(
            policy in any_policy(),
            workers in 1usize..64,
            kind in 0u8..7,
            x in 0.0f64..1.0,
        ) {
            let offered = offered_load(workers, kind, x);
            prop_assert!(
                policy.floor(workers) <= policy.threshold(workers, offered),
                "floor {} above threshold {} at offered {offered:e}",
                policy.floor(workers),
                policy.threshold(workers, offered)
            );
        }

        /// A queue within the floor plans the same orders under the floor
        /// as under the exact threshold, in all three planners — the
        /// exactness of the tick's skipped threshold evaluation.
        #[test]
        fn planners_agree_on_floor_and_threshold_within_the_floor(
            policy in any_policy(),
            workers in 1usize..64,
            kind in 0u8..7,
            x in 0.0f64..1.0,
            q in proptest::collection::vec(0u32..48, 2..40),
            me_raw in 0usize..40,
            own_raw in 0usize..1000,
            old_len in 0u32..48,
            bulk in 1usize..40,
            concurrency_raw in 1usize..12,
        ) {
            let offered = offered_load(workers, kind, x);
            let floor = policy.floor(workers);
            let exact = policy.threshold(workers, offered);
            let me = me_raw % q.len();
            let own = own_raw % (floor.min(1000) + 1);
            let concurrency = concurrency_raw.min(bulk);
            let mut q = q;
            q[me] = own as u32;
            let mut shared = q.clone();
            shared[me] = old_len;
            let mut ext = SharedExtremes::default();
            ext.rank(&shared, concurrency);
            let mut scratch = PlanScratch::default();
            let plans = |t: usize, scratch: &mut PlanScratch| {
                let mut out: [Vec<MigrationOrder>; 4] = Default::default();
                plan_migrations_into(me, &q, t, bulk, concurrency, scratch, &mut out[0]);
                plan_threshold_only_into(me, &q, t, bulk, concurrency, scratch, &mut out[1]);
                for (use_patterns, o) in [(true, 2), (false, 3)] {
                    plan_patched_into(
                        me, own as u32, q.len(), &ext, t, bulk, concurrency,
                        use_patterns, scratch, &mut out[o],
                    );
                }
                out
            };
            prop_assert_eq!(plans(floor, &mut scratch), plans(exact, &mut scratch));
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn estimator_rejects_bad_alpha() {
        LoadEstimator::new(SimDuration::from_us(1), 0.0);
    }
}
