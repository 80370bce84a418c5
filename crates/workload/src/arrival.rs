//! Request arrival processes.
//!
//! The paper generates (a) Poisson synthetic traces and (b) "real-world"
//! traffic from a regression model trained on public-cloud traces [Bergsma
//! et al., SOSP'21]. That model and its training data are proprietary, so —
//! per the substitution documented in `DESIGN.md` — real-world traffic is
//! modeled as a Markov-modulated Poisson process ([`MmppProcess`]) whose
//! bursts and rate dispersion exercise the same adaptive-scheduling paths.

use crate::dist::sample_exponential;
use rand::Rng;
use simcore::time::SimDuration;

/// A stochastic process producing inter-arrival gaps.
///
/// Implementors are deterministic given the RNG stream, which keeps full
/// simulations reproducible.
pub trait ArrivalProcess {
    /// Draws the gap between the previous arrival and the next one.
    fn next_gap<R: Rng + ?Sized>(&mut self, rng: &mut R) -> SimDuration;

    /// Long-run average arrival rate, in requests per second.
    fn mean_rate(&self) -> f64;
}

/// Poisson arrivals at a fixed rate.
///
/// # Examples
///
/// ```
/// use workload::arrival::{ArrivalProcess, PoissonProcess};
/// use rand::SeedableRng;
///
/// let mut p = PoissonProcess::new(1_000_000.0); // 1 MRPS
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let gap = p.next_gap(&mut rng);
/// assert!(gap.as_ns_f64() > 0.0);
/// assert_eq!(p.mean_rate(), 1_000_000.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PoissonProcess {
    rate_per_sec: f64,
}

impl PoissonProcess {
    /// Creates a Poisson process with the given rate (requests/second).
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not strictly positive and finite.
    pub fn new(rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be positive, got {rate_per_sec}"
        );
        PoissonProcess { rate_per_sec }
    }

    /// The rate at which a `k`-server system with mean service time `mean_service`
    /// is offered `load` (load = λ·E\[S\]/k).
    pub fn rate_for_load(load: f64, servers: usize, mean_service: SimDuration) -> f64 {
        assert!(load > 0.0, "load must be positive");
        assert!(servers > 0, "need at least one server");
        let s = mean_service.as_secs_f64();
        assert!(s > 0.0, "mean service time must be positive");
        load * servers as f64 / s
    }
}

impl ArrivalProcess for PoissonProcess {
    fn next_gap<R: Rng + ?Sized>(&mut self, rng: &mut R) -> SimDuration {
        SimDuration::from_ns_f64(sample_exponential(rng) / self.rate_per_sec * 1e9)
    }

    fn mean_rate(&self) -> f64 {
        self.rate_per_sec
    }
}

/// Deterministic (paced) arrivals with a constant gap — the smoothest
/// possible traffic, useful as a control.
#[derive(Debug, Clone, Copy)]
pub struct DeterministicProcess {
    gap: SimDuration,
}

impl DeterministicProcess {
    /// Creates a paced process with the given constant gap.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is zero.
    pub fn new(gap: SimDuration) -> Self {
        assert!(!gap.is_zero(), "gap must be positive");
        DeterministicProcess { gap }
    }
}

impl ArrivalProcess for DeterministicProcess {
    fn next_gap<R: Rng + ?Sized>(&mut self, _rng: &mut R) -> SimDuration {
        self.gap
    }

    fn mean_rate(&self) -> f64 {
        1.0 / self.gap.as_secs_f64()
    }
}

/// One state of an [`MmppProcess`].
#[derive(Debug, Clone, Copy)]
pub struct MmppState {
    /// Poisson rate while in this state (requests/second).
    pub rate_per_sec: f64,
    /// Mean dwell time in this state before transitioning.
    pub mean_dwell: SimDuration,
}

/// A Markov-modulated Poisson process: the arrival rate switches among a set
/// of states with exponentially-distributed dwell times. This is the
/// "real-world traffic" substitute — states with widely different rates
/// produce the bursty, non-stationary pattern that breaks statically-tuned
/// schedulers (paper §VII-B, Fig. 13).
#[derive(Debug, Clone)]
pub struct MmppProcess {
    states: Vec<MmppState>,
    current: usize,
    /// Simulated time left before the next state transition.
    remaining_dwell: SimDuration,
}

impl MmppProcess {
    /// Creates an MMPP starting in state 0.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty or any rate/dwell is non-positive.
    pub fn new(states: Vec<MmppState>) -> Self {
        assert!(!states.is_empty(), "MMPP needs at least one state");
        for s in &states {
            assert!(s.rate_per_sec > 0.0, "state rate must be positive");
            assert!(!s.mean_dwell.is_zero(), "state dwell must be positive");
        }
        MmppProcess {
            states,
            current: 0,
            remaining_dwell: SimDuration::ZERO,
        }
    }

    /// The paper-style bursty pattern around a target mean rate: a baseline
    /// state, a 1.8× burst and a 0.5× lull with tens-of-µs dwells, so a
    /// multi-millisecond run sees many phase changes. Bursts briefly exceed
    /// a system provisioned for the mean (stressing adaptive scheduling)
    /// without creating sustained overload that no scheduler could serve.
    pub fn bursty(mean_rate_per_sec: f64) -> Self {
        assert!(mean_rate_per_sec > 0.0);
        // Dwell weights chosen so the long-run mean equals mean_rate_per_sec:
        // states (r, w): (1.0x, .5), (1.8x, .2), (0.5x, .3) -> mean
        // multiplier = .5 + .36 + .15 = 1.01; normalize.
        let norm = 1.01;
        let mk = |mult: f64, dwell_us: u64| MmppState {
            rate_per_sec: mean_rate_per_sec * mult / norm,
            mean_dwell: SimDuration::from_us(dwell_us),
        };
        MmppProcess::new(vec![mk(1.0, 50), mk(1.8, 20), mk(0.5, 30)])
    }

    fn advance_state<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let n = self.states.len();
        if n > 1 {
            // Uniform jump to a different state.
            let step = rng.random_range(1..n);
            self.current = (self.current + step) % n;
        }
        let dwell = self.states[self.current].mean_dwell.as_ns_f64();
        self.remaining_dwell = SimDuration::from_ns_f64(sample_exponential(rng) * dwell);
    }
}

impl ArrivalProcess for MmppProcess {
    fn next_gap<R: Rng + ?Sized>(&mut self, rng: &mut R) -> SimDuration {
        let mut total = SimDuration::ZERO;
        loop {
            if self.remaining_dwell.is_zero() {
                self.advance_state(rng);
            }
            let rate = self.states[self.current].rate_per_sec;
            let candidate = SimDuration::from_ns_f64(sample_exponential(rng) / rate * 1e9);
            if candidate <= self.remaining_dwell {
                self.remaining_dwell = self.remaining_dwell.saturating_sub(candidate);
                return total + candidate;
            }
            // No arrival before the state switch: burn the dwell and retry in
            // the next state (memorylessness makes this exact).
            total += self.remaining_dwell;
            self.remaining_dwell = SimDuration::ZERO;
        }
    }

    fn mean_rate(&self) -> f64 {
        // Long-run: dwell-weighted mean (uniform jump chain => stationary
        // distribution proportional to mean dwell).
        let total_dwell: f64 = self.states.iter().map(|s| s.mean_dwell.as_ns_f64()).sum();
        self.states
            .iter()
            .map(|s| s.rate_per_sec * s.mean_dwell.as_ns_f64() / total_dwell)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn measured_rate<P: ArrivalProcess>(p: &mut P, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let total_ns: f64 = (0..n).map(|_| p.next_gap(&mut rng).as_ns_f64()).sum();
        n as f64 / (total_ns * 1e-9)
    }

    #[test]
    fn poisson_rate_matches() {
        let mut p = PoissonProcess::new(2_000_000.0);
        let r = measured_rate(&mut p, 200_000, 11);
        assert!((r - 2e6).abs() / 2e6 < 0.02, "rate={r}");
    }

    #[test]
    fn poisson_gaps_are_variable() {
        let mut p = PoissonProcess::new(1e6);
        let mut rng = StdRng::seed_from_u64(12);
        let gaps: Vec<f64> = (0..1000)
            .map(|_| p.next_gap(&mut rng).as_ns_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv2 = var / (mean * mean);
        assert!((cv2 - 1.0).abs() < 0.2, "cv2={cv2}"); // exponential gaps
    }

    #[test]
    fn rate_for_load_formula() {
        // 64 cores, 1us mean service, load 0.5 => 32 MRPS.
        let r = PoissonProcess::rate_for_load(0.5, 64, SimDuration::from_us(1));
        assert!((r - 32e6).abs() < 1.0, "r={r}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn poisson_rejects_zero_rate() {
        PoissonProcess::new(0.0);
    }

    #[test]
    fn deterministic_is_constant() {
        let mut p = DeterministicProcess::new(SimDuration::from_ns(100));
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(p.next_gap(&mut rng), SimDuration::from_ns(100));
        }
        assert!((p.mean_rate() - 1e7).abs() < 1.0);
    }

    #[test]
    fn mmpp_long_run_rate() {
        let mut p = MmppProcess::bursty(1_000_000.0);
        let r = measured_rate(&mut p, 400_000, 13);
        let expect = p.mean_rate();
        assert!(
            (r - expect).abs() / expect < 0.08,
            "rate={r} expect={expect}"
        );
    }

    #[test]
    fn mmpp_bursty_mean_near_target() {
        let p = MmppProcess::bursty(5e6);
        let m = p.mean_rate();
        assert!((m - 5e6).abs() / 5e6 < 0.15, "mean={m}");
    }

    #[test]
    fn mmpp_switches_states() {
        let mut p = MmppProcess::bursty(1e6);
        let mut rng = StdRng::seed_from_u64(14);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50_000 {
            p.next_gap(&mut rng);
            seen.insert(p.current);
        }
        assert_eq!(seen.len(), 3, "all MMPP states should be visited");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Index of dispersion of counts over windows should exceed 1.
        let mut p = MmppProcess::bursty(1e6);
        let mut rng = StdRng::seed_from_u64(15);
        let window_ns = 100_000.0; // 100us
        let mut counts = Vec::new();
        let mut t = 0.0;
        let mut count = 0u64;
        for _ in 0..400_000 {
            t += p.next_gap(&mut rng).as_ns_f64();
            if t > window_ns {
                counts.push(count as f64);
                count = 0;
                t -= window_ns * (t / window_ns).floor();
            }
            count += 1;
        }
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<f64>() / n;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / n;
        let iod = var / mean;
        assert!(
            iod > 1.5,
            "index of dispersion {iod} should exceed Poisson's 1"
        );
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn mmpp_rejects_empty() {
        MmppProcess::new(vec![]);
    }
}
