//! Simulation time.
//!
//! The simulator keeps time in integer **picoseconds** so that sub-nanosecond
//! quantities (e.g. the 2.5 ns mean inter-packet gap of a 1.6 TbE NIC) are
//! representable without rounding drift, while still covering multi-hour
//! simulated horizons in a `u64`.
//!
//! Two newtypes are provided: [`SimTime`], an absolute instant since the
//! start of the simulation, and [`SimDuration`], a span between instants.
//! They are deliberately distinct types ([`SimTime`] + [`SimDuration`] =
//! [`SimTime`], [`SimTime`] − [`SimTime`] = [`SimDuration`]) so that the
//! compiler rejects category errors such as adding two instants.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// 2^64 as an `f64`: the first picosecond count a `u64` cannot hold.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// An absolute instant of simulated time, measured in picoseconds since the
/// start of the simulation.
///
/// # Examples
///
/// ```
/// use simcore::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_ns(5);
/// assert_eq!(t.as_ns_f64(), 5.0);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_ns(5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in picoseconds.
///
/// # Examples
///
/// ```
/// use simcore::time::SimDuration;
///
/// let d = SimDuration::from_us(1) + SimDuration::from_ns(500);
/// assert_eq!(d.as_ns_f64(), 1500.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant `ns` nanoseconds after the origin.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Creates an instant `us` microseconds after the origin.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// Raw picoseconds since the origin.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds since the origin, as a float (may lose precision above
    /// ~2^53 ps, i.e. multi-hour horizons; fine for reporting).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Microseconds since the origin, as a float.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Seconds since the origin, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] if
    /// `earlier` is actually later (saturating).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a span of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Creates a span of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Creates a span of `ms` milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }

    /// Creates a span from fractional nanoseconds, rounding to the nearest
    /// picosecond (halves away from zero) and saturating at `u64::MAX`
    /// picoseconds. Negative or non-finite inputs clamp to zero.
    pub fn from_ns_f64(ns: f64) -> Self {
        if !ns.is_finite() || ns <= 0.0 {
            return SimDuration::ZERO;
        }
        let ps = ns * PS_PER_NS as f64;
        if ps >= TWO_POW_64 {
            return SimDuration(u64::MAX);
        }
        // `f64::round` is a libm call on the x86-64 baseline target. Round
        // half away from zero by hand instead: `t = trunc(ps)` satisfies
        // `t == 0` or `t <= ps < 2t`, so `ps - t` is exact (Sterbenz), and
        // every `ps >= 2^53` is already an integer (`t == ps`, no carry).
        let t = ps as u64;
        SimDuration(t + (ps - t as f64 >= 0.5) as u64)
    }

    /// Creates a span of `cycles` CPU cycles at `ghz` GHz.
    ///
    /// # Examples
    ///
    /// ```
    /// use simcore::time::SimDuration;
    /// // 70 cycles at 2 GHz = 35 ns (the Shinjuku dispatch cost).
    /// assert_eq!(SimDuration::from_cycles(70, 2.0).as_ns_f64(), 35.0);
    /// ```
    pub fn from_cycles(cycles: u64, ghz: f64) -> Self {
        Self::from_ns_f64(cycles as f64 / ghz)
    }

    /// Raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds as a float.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Microseconds as a float.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// True iff this is the zero span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by an integer factor, saturating at [`SimDuration::MAX`].
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs <= self, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds on underflow.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs <= self, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.3}ns)", self.as_ns_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({:.3}ns)", self.as_ns_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= PS_PER_MS {
            write!(f, "{:.3}ms", self.0 as f64 / PS_PER_MS as f64)
        } else if self.0 >= PS_PER_US {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{:.3}ns", self.as_ns_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimDuration::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimDuration::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_ns(3).as_ns_f64(), 3.0);
        assert_eq!(SimTime::from_us(2).as_us_f64(), 2.0);
    }

    #[test]
    fn arithmetic_instant_span() {
        let t0 = SimTime::from_ns(100);
        let t1 = t0 + SimDuration::from_ns(50);
        assert_eq!(t1, SimTime::from_ns(150));
        assert_eq!(t1 - t0, SimDuration::from_ns(50));
        assert_eq!(t1 - SimDuration::from_ns(150), SimTime::ZERO);
    }

    #[test]
    fn fractional_ns() {
        let d = SimDuration::from_ns_f64(2.5);
        assert_eq!(d.as_ps(), 2_500);
        assert_eq!(SimDuration::from_ns_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_ns_f64(f64::NAN), SimDuration::ZERO);
    }

    /// The `f64::round`-based conversion `from_ns_f64` replaced, kept as
    /// the oracle for its hand-rolled rounding.
    fn from_ns_f64_oracle(ns: f64) -> SimDuration {
        if !ns.is_finite() || ns <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((ns * 1000.0).round().min(u64::MAX as f64) as u64)
    }

    /// A nanosecond value whose picosecond count lies `ulps - 8` ulps from
    /// `2^e`, so small `ulps` land below the power and larger ones above.
    fn near_pow2_ns(e: i32, ulps: u64) -> f64 {
        f64::from_bits(2f64.powi(e).to_bits() + ulps - 8) / 1000.0
    }

    #[test]
    fn from_ns_f64_special_values_match_oracle() {
        let specials = [
            0.0,
            -0.0,
            -1.0,
            -0.0005,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::from_bits(1),       // smallest subnormal
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            0.0005,
            0.0015,
            0.0025,
            0.0004999999999999999,
            u64::MAX as f64 / 1000.0,
        ];
        for ns in specials {
            assert_eq!(
                from_ns_f64_oracle(ns),
                SimDuration::from_ns_f64(ns),
                "ns={ns:e}"
            );
        }
        for e in [52, 53, 63, 64] {
            for ulps in 0..16 {
                let ns = near_pow2_ns(e, ulps);
                assert_eq!(
                    from_ns_f64_oracle(ns),
                    SimDuration::from_ns_f64(ns),
                    "ns={ns:e} (2^{e} ps, ulps {ulps})"
                );
            }
        }
    }

    proptest::proptest! {
        /// Random positive values of the magnitudes the simulator converts
        /// (up to seconds).
        #[test]
        fn from_ns_f64_matches_oracle_in_range(ns in 0.0f64..1e9) {
            proptest::prop_assert_eq!(from_ns_f64_oracle(ns), SimDuration::from_ns_f64(ns));
        }

        /// Exact half-picosecond boundaries `(k + 0.5) / 1000` ns, and their
        /// neighbours one ulp away.
        #[test]
        fn from_ns_f64_matches_oracle_at_half_ps(k in 0u64..(1 << 53)) {
            let ns = (k as f64 + 0.5) / 1000.0;
            for ns in [ns, f64::from_bits(ns.to_bits() - 1), f64::from_bits(ns.to_bits() + 1)] {
                proptest::prop_assert_eq!(from_ns_f64_oracle(ns), SimDuration::from_ns_f64(ns));
            }
        }

        /// Values within a few ulps of `2^52`, `2^53`, `2^63` and `2^64` ps.
        #[test]
        fn from_ns_f64_matches_oracle_near_powers_of_two(
            e in 0usize..4,
            ulps in 0u64..4096,
        ) {
            let ns = near_pow2_ns([52, 53, 63, 64][e], ulps);
            proptest::prop_assert_eq!(from_ns_f64_oracle(ns), SimDuration::from_ns_f64(ns));
        }

        /// Any bit pattern: every sign and exponent, so subnormals, huge
        /// values, negatives, NaNs and infinities all occur.
        #[test]
        fn from_ns_f64_matches_oracle_on_any_bits(bits in proptest::prelude::any::<u64>()) {
            let ns = f64::from_bits(bits);
            proptest::prop_assert_eq!(from_ns_f64_oracle(ns), SimDuration::from_ns_f64(ns));
        }
    }

    #[test]
    fn cycles_at_frequency() {
        assert_eq!(SimDuration::from_cycles(100, 2.0).as_ns_f64(), 50.0);
        assert_eq!(SimDuration::from_cycles(7, 2.0).as_ps(), 3_500);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(SimTime::MAX + SimDuration::from_ns(1), SimTime::MAX);
        assert_eq!(
            SimTime::from_ns(1).saturating_since(SimTime::from_ns(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_ns(1).saturating_sub(SimDuration::from_ns(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert!(SimDuration::from_us(1) > SimDuration::from_ns(999));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_ns(5).to_string(), "5.000ns");
        assert_eq!(SimDuration::from_us(5).to_string(), "5.000us");
        assert_eq!(SimDuration::from_ms(5).to_string(), "5.000ms");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ns).sum();
        assert_eq!(total, SimDuration::from_ns(10));
    }

    #[test]
    fn div_and_mul() {
        assert_eq!(SimDuration::from_ns(10) / 4, SimDuration::from_ps(2_500));
        assert_eq!(SimDuration::from_ns(3) * 3, SimDuration::from_ns(9));
    }
}
