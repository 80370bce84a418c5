//! NIC models: on-NIC processing, steering policies and NIC→core transfer
//! mechanisms.
//!
//! The paper's NIC constants (§VII-B): Ethernet MAC + serial I/O + transport
//! interpretation ≈ 30 ns total on hardware-terminated NICs; RSS spreads
//! requests across per-core queues by connection hash; JBSQ NICs (Nebula /
//! nanoPU) push requests to cores whose local queue has < n entries.

use interconnect::offchip::{MemoryModel, Pcie};
use rand::Rng;
use simcore::time::SimDuration;
use workload::request::ConnectionId;

/// Fixed on-NIC packet handling cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicModel {
    /// MAC + serial I/O + transport interpretation (paper: ~30 ns).
    pub mac_delay: SimDuration,
}

impl Default for NicModel {
    fn default() -> Self {
        NicModel {
            mac_delay: SimDuration::from_ns(30),
        }
    }
}

/// How request descriptors/payloads move from the NIC to a core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transfer {
    /// Commodity discrete NIC over PCIe (200–800 ns size-dependent).
    Pcie(Pcie),
    /// Integrated NIC writing through the shared LLC (RPCValet / Nebula):
    /// a remote-cache access per message.
    Coherent(MemoryModel),
    /// nanoPU-style direct write into the core's register file.
    RegisterFile {
        /// Fixed per-message latency (a handful of ns).
        latency: SimDuration,
    },
}

impl Transfer {
    /// Default PCIe transfer.
    pub fn pcie() -> Self {
        Transfer::Pcie(Pcie::default())
    }

    /// Default cache-coherent integrated-NIC transfer.
    pub fn coherent() -> Self {
        Transfer::Coherent(MemoryModel::default())
    }

    /// Default register-file transfer (5 ns).
    pub fn register_file() -> Self {
        Transfer::RegisterFile {
            latency: SimDuration::from_ns(5),
        }
    }

    /// Latency to move a `bytes`-byte message NIC→core.
    pub fn latency(&self, bytes: u32) -> SimDuration {
        match self {
            Transfer::Pcie(p) => p.transfer(bytes),
            Transfer::Coherent(m) => m.remote_cache,
            Transfer::RegisterFile { latency } => *latency,
        }
    }
}

/// NIC steering policy: which receive queue gets an arriving request.
/// These are the three policies compared in Fig. 9.
#[derive(Debug, Clone)]
pub enum Steering {
    /// RSS: hash the connection id to a queue (sticky per connection).
    ConnectionHash,
    /// Uniform random queue per packet.
    Random,
    /// Round-robin across queues.
    RoundRobin {
        /// Next queue to use.
        next: usize,
    },
}

impl Steering {
    /// Creates RSS connection-hash steering.
    pub fn rss() -> Self {
        Steering::ConnectionHash
    }

    /// Creates random steering.
    pub fn random() -> Self {
        Steering::Random
    }

    /// Creates round-robin steering.
    pub fn round_robin() -> Self {
        Steering::RoundRobin { next: 0 }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Steering::ConnectionHash => "connection",
            Steering::Random => "random",
            Steering::RoundRobin { .. } => "round-robin",
        }
    }

    /// Picks the destination queue among `queues` for a request on `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    pub fn steer<R: Rng + ?Sized>(
        &mut self,
        conn: ConnectionId,
        queues: usize,
        rng: &mut R,
    ) -> usize {
        assert!(queues > 0, "need at least one receive queue");
        match self {
            Steering::ConnectionHash => {
                // Toeplitz-ish: a cheap integer hash of the connection id,
                // fixed for the lifetime of the connection like real RSS.
                let mut h = conn.0 as u64;
                h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 29;
                h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (h % queues as u64) as usize
            }
            Steering::Random => rng.random_range(0..queues),
            Steering::RoundRobin { next } => {
                let q = *next % queues;
                *next = (*next + 1) % queues;
                q
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn transfer_latencies_ordered() {
        let pcie = Transfer::pcie().latency(300);
        let coh = Transfer::coherent().latency(300);
        let reg = Transfer::register_file().latency(300);
        assert!(pcie > coh, "PCIe slower than coherent NIC");
        assert!(coh > reg, "coherent slower than register file");
        assert_eq!(coh, SimDuration::from_ns(35)); // 70 cycles @ 2GHz
    }

    #[test]
    fn rss_is_sticky_per_connection() {
        let mut s = Steering::rss();
        let mut rng = StdRng::seed_from_u64(0);
        let q1 = s.steer(ConnectionId(42), 16, &mut rng);
        let q2 = s.steer(ConnectionId(42), 16, &mut rng);
        assert_eq!(q1, q2, "RSS must steer a connection consistently");
    }

    #[test]
    fn rss_spreads_connections() {
        let mut s = Steering::rss();
        let mut rng = StdRng::seed_from_u64(0);
        let mut used = std::collections::HashSet::new();
        for c in 0..256 {
            used.insert(s.steer(ConnectionId(c), 16, &mut rng));
        }
        assert_eq!(used.len(), 16, "256 connections should cover all 16 queues");
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = Steering::round_robin();
        let mut rng = StdRng::seed_from_u64(0);
        let picks: Vec<usize> = (0..8)
            .map(|_| s.steer(ConnectionId(0), 4, &mut rng))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn random_steering_in_range() {
        let mut s = Steering::random();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(s.steer(ConnectionId(0), 7, &mut rng) < 7);
        }
    }

    #[test]
    fn nic_default_mac_delay() {
        assert_eq!(NicModel::default().mac_delay, SimDuration::from_ns(30));
    }

    #[test]
    fn steering_labels() {
        assert_eq!(Steering::rss().label(), "connection");
        assert_eq!(Steering::random().label(), "random");
        assert_eq!(Steering::round_robin().label(), "round-robin");
    }
}
