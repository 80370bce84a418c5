//! Off-chip transfer cost models: PCIe and the memory hierarchy.
//!
//! Constants follow the paper's methodology (§VII-B): PCIe 200–800 ns
//! depending on data size [Neugebauer et al., SIGCOMM'18], a minimum of 70
//! cycles to move a message between cores through the cache-coherence
//! protocol [Shinjuku, NSDI'19], and 200–400 ns for a work-stealing
//! operation's 2–3 cache misses [Arachne, OSDI'18].

use simcore::time::SimDuration;

/// PCIe transfer latency model: a fixed round-trip base plus a size-dependent
/// term, clamped to the paper's published 200–800 ns range.
///
/// # Examples
///
/// ```
/// use interconnect::offchip::Pcie;
///
/// let pcie = Pcie::default();
/// assert_eq!(pcie.transfer(64).as_ns_f64(), 200.0 + 64.0 * 0.15);
/// assert_eq!(pcie.transfer(1_000_000).as_ns_f64(), 800.0); // clamped
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pcie {
    /// Minimum transfer latency (small messages).
    pub base: SimDuration,
    /// Maximum transfer latency (the paper's 800 ns upper bound).
    pub max: SimDuration,
    /// Additional nanoseconds per byte.
    pub ns_per_byte: f64,
}

impl Default for Pcie {
    fn default() -> Self {
        Pcie {
            base: SimDuration::from_ns(200),
            max: SimDuration::from_ns(800),
            // 4 KB transfer hits the 800ns cap: (800-200)/4096 ~ 0.146.
            ns_per_byte: 0.15,
        }
    }
}

impl Pcie {
    /// Latency to move `bytes` across PCIe (one direction).
    pub fn transfer(&self, bytes: u32) -> SimDuration {
        let ns = self.base.as_ns_f64() + bytes as f64 * self.ns_per_byte;
        SimDuration::from_ns_f64(ns.min(self.max.as_ns_f64()))
    }
}

/// Memory-hierarchy access latencies at a given core frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Core clock in GHz (the paper models 2 GHz cores).
    pub ghz: f64,
    /// L1 hit.
    pub l1: SimDuration,
    /// Local LLC slice hit.
    pub llc: SimDuration,
    /// Remote LLC slice / cross-core cache-line transfer — the paper's
    /// "minimum of 70 cycles to move a message ... through the cache
    /// coherence protocol".
    pub remote_cache: SimDuration,
    /// DRAM access.
    pub dram: SimDuration,
}

impl Default for MemoryModel {
    fn default() -> Self {
        let ghz = 2.0;
        MemoryModel {
            ghz,
            l1: SimDuration::from_cycles(4, ghz),
            llc: SimDuration::from_cycles(30, ghz),
            remote_cache: SimDuration::from_cycles(70, ghz),
            dram: SimDuration::from_ns(90),
        }
    }
}

impl MemoryModel {
    /// Latency of `cycles` of pure compute at this clock.
    pub fn cycles(&self, cycles: u64) -> SimDuration {
        SimDuration::from_cycles(cycles, self.ghz)
    }

    /// Cost of a work-stealing operation: 2–3 cache misses, 200–400 ns
    /// (paper §II-D). `misses` selects how unlucky the steal is.
    ///
    /// # Panics
    ///
    /// Panics if `misses` is zero.
    pub fn steal_cost(&self, misses: u32) -> SimDuration {
        assert!(misses > 0, "a steal costs at least one miss");
        // Each miss is a remote cache-line transfer plus coherence upgrade;
        // 2 misses ~ 200ns, 3 misses ~ 300-400ns at 2GHz with directory
        // indirection (~100ns effective per miss).
        SimDuration::from_ns(100) * misses as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_range_matches_paper() {
        let p = Pcie::default();
        assert_eq!(p.transfer(0), SimDuration::from_ns(200));
        assert!(p.transfer(64) > SimDuration::from_ns(200));
        assert!(p.transfer(64) < SimDuration::from_ns(300));
        assert_eq!(p.transfer(1 << 20), SimDuration::from_ns(800));
        // Monotone in size.
        assert!(p.transfer(512) <= p.transfer(2048));
    }

    #[test]
    fn memory_defaults_ordered() {
        let m = MemoryModel::default();
        assert!(m.l1 < m.llc);
        assert!(m.llc < m.remote_cache);
        assert!(m.remote_cache < m.dram);
        // 70 cycles at 2GHz = 35ns (Shinjuku's dispatch floor).
        assert_eq!(m.remote_cache, SimDuration::from_ns(35));
    }

    #[test]
    fn steal_cost_in_paper_range() {
        let m = MemoryModel::default();
        let two = m.steal_cost(2);
        let three = m.steal_cost(3);
        assert!(two >= SimDuration::from_ns(200));
        assert!(three <= SimDuration::from_ns(400));
        assert!(two < three);
    }

    #[test]
    #[should_panic(expected = "at least one miss")]
    fn steal_cost_rejects_zero() {
        MemoryModel::default().steal_cost(0);
    }

    #[test]
    fn cycles_helper() {
        let m = MemoryModel::default();
        assert_eq!(m.cycles(70), SimDuration::from_ns(35));
    }
}
