//! 2-D mesh network-on-chip model.
//!
//! The paper routes Altocumulus messages (UPDATE / MIGRATE / ACK / NACK) over
//! the NoC with deterministic XY routing, 3 ns per hop, on a dedicated
//! virtual network (§V-B, §VII-B). Because the dedicated virtual network is
//! lightly loaded, the dominant term is hop latency plus serialization of the
//! (small) payload; an optional per-node injection-port tracker captures
//! back-to-back send contention at very aggressive migration periods.

use simcore::time::{SimDuration, SimTime};

/// Coordinates of a tile in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileCoord {
    /// Column (x).
    pub x: u32,
    /// Row (y).
    pub y: u32,
}

/// A `width × height` mesh with XY (dimension-ordered, deadlock-free)
/// routing.
///
/// # Examples
///
/// ```
/// use interconnect::noc::MeshNoc;
///
/// let noc = MeshNoc::new_square(16); // 4x4 mesh of 16 tiles
/// assert_eq!(noc.hops(0, 15), 6);    // (0,0) -> (3,3)
/// assert_eq!(noc.latency(0, 15, 14).as_ns_f64(), 6.0 * 3.0 + 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct MeshNoc {
    width: u32,
    height: u32,
    per_hop: SimDuration,
    /// Bytes moved per flit.
    flit_bytes: u32,
    /// Serialization time per flit beyond the first (pipelined behind the
    /// head flit).
    per_flit: SimDuration,
}

impl MeshNoc {
    /// Creates a mesh with the paper's constants: 3 ns per hop, 16 B flits,
    /// one flit serialized per hop-time.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        MeshNoc {
            width,
            height,
            per_hop: SimDuration::from_ns(3),
            flit_bytes: 16,
            per_flit: SimDuration::from_ns(3),
        }
    }

    /// Creates the smallest square mesh holding at least `tiles` tiles.
    pub fn new_square(tiles: u32) -> Self {
        assert!(tiles > 0);
        let side = (tiles as f64).sqrt().ceil() as u32;
        Self::new(side, side)
    }

    /// Overrides the per-hop latency (default 3 ns).
    pub fn with_per_hop(mut self, per_hop: SimDuration) -> Self {
        self.per_hop = per_hop;
        self
    }

    /// Number of tiles in the mesh.
    pub fn tiles(&self) -> u32 {
        self.width * self.height
    }

    /// Mesh width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Mesh height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Maps a linear tile id to coordinates (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn coord(&self, tile: usize) -> TileCoord {
        assert!((tile as u32) < self.tiles(), "tile {tile} out of range");
        TileCoord {
            x: tile as u32 % self.width,
            y: tile as u32 / self.width,
        }
    }

    /// Manhattan hop count between two tiles under XY routing.
    pub fn hops(&self, src: usize, dst: usize) -> u32 {
        let a = self.coord(src);
        let b = self.coord(dst);
        a.x.abs_diff(b.x) + a.y.abs_diff(b.y)
    }

    /// Worst-case hop count in this mesh (corner to corner).
    pub fn diameter(&self) -> u32 {
        (self.width - 1) + (self.height - 1)
    }

    /// End-to-end latency for a `bytes`-byte message from `src` to `dst`:
    /// head-flit hop latency plus serialization of the body flits.
    /// A zero-hop (self) message still pays one flit of local forwarding.
    pub fn latency(&self, src: usize, dst: usize, bytes: u32) -> SimDuration {
        let hops = self.hops(src, dst);
        let flits = bytes.div_ceil(self.flit_bytes).max(1);
        self.per_hop * hops as u64 + self.per_flit * flits as u64
    }

    /// Latency of a broadcast from `src` to every other tile (the UPDATE
    /// message): time until the *last* tile receives it, assuming one
    /// message per destination injected back-to-back.
    pub fn broadcast_latency(&self, src: usize, bytes: u32) -> SimDuration {
        let mut worst = SimDuration::ZERO;
        let flits = bytes.div_ceil(self.flit_bytes).max(1);
        let serialize = self.per_flit * flits as u64;
        for dst in 0..self.tiles() as usize {
            if dst == src {
                continue;
            }
            // The i-th message waits behind i−1 serializations at the port.
            let lat = self.latency(src, dst, bytes);
            worst = worst.max(lat);
        }
        // All (tiles-1) messages share the injection port.
        worst + serialize * (self.tiles() as u64 - 1)
    }
}

/// Tracks injection-port availability per tile, so that a node that sends
/// messages faster than one per serialization interval sees queueing — this
/// is what makes 40 ns migration periods counter-productive in Fig. 12.
#[derive(Debug, Clone)]
pub struct PortTracker {
    busy_until: Vec<SimTime>,
}

impl PortTracker {
    /// Creates a tracker for `tiles` injection ports, all idle.
    pub fn new(tiles: usize) -> Self {
        PortTracker {
            busy_until: vec![SimTime::ZERO; tiles],
        }
    }

    /// Reserves the port of `tile` at `now` for `hold`; returns the instant
    /// the message actually enters the network (≥ `now`).
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn inject(&mut self, tile: usize, now: SimTime, hold: SimDuration) -> SimTime {
        let start = self.busy_until[tile].max(now);
        self.busy_until[tile] = start + hold;
        start
    }

    /// When the port of `tile` becomes free.
    pub fn free_at(&self, tile: usize) -> SimTime {
        self.busy_until[tile]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_mesh_sizes() {
        assert_eq!(MeshNoc::new_square(16).tiles(), 16);
        assert_eq!(MeshNoc::new_square(17).tiles(), 25);
        assert_eq!(MeshNoc::new_square(256).tiles(), 256);
        assert_eq!(MeshNoc::new_square(1).tiles(), 1);
    }

    #[test]
    fn coords_row_major() {
        let noc = MeshNoc::new(4, 4);
        assert_eq!(noc.coord(0), TileCoord { x: 0, y: 0 });
        assert_eq!(noc.coord(3), TileCoord { x: 3, y: 0 });
        assert_eq!(noc.coord(4), TileCoord { x: 0, y: 1 });
        assert_eq!(noc.coord(15), TileCoord { x: 3, y: 3 });
    }

    #[test]
    fn hops_manhattan() {
        let noc = MeshNoc::new(4, 4);
        assert_eq!(noc.hops(0, 0), 0);
        assert_eq!(noc.hops(0, 3), 3);
        assert_eq!(noc.hops(0, 12), 3);
        assert_eq!(noc.hops(0, 15), 6);
        assert_eq!(noc.hops(5, 10), 2);
        // Symmetric.
        assert_eq!(noc.hops(2, 13), noc.hops(13, 2));
    }

    #[test]
    fn diameter() {
        assert_eq!(MeshNoc::new(4, 4).diameter(), 6);
        assert_eq!(MeshNoc::new(16, 16).diameter(), 30);
    }

    #[test]
    fn latency_three_ns_per_hop() {
        let noc = MeshNoc::new(4, 4);
        // 14B descriptor = 1 flit.
        let l = noc.latency(0, 15, 14);
        assert_eq!(l.as_ns_f64(), 6.0 * 3.0 + 3.0);
        // Bigger payloads serialize more flits.
        let big = noc.latency(0, 15, 14 * 40); // bulk of 40 descriptors
        assert!(big > l);
        assert_eq!(big.as_ns_f64(), 18.0 + (560f64 / 16.0).ceil() * 3.0);
    }

    #[test]
    fn self_message_pays_one_flit() {
        let noc = MeshNoc::new(4, 4);
        assert_eq!(noc.latency(3, 3, 14), SimDuration::from_ns(3));
    }

    #[test]
    fn broadcast_dominated_by_port_serialization() {
        let noc = MeshNoc::new(4, 4);
        let b = noc.broadcast_latency(0, 14);
        // 15 messages serialize at 3ns plus the farthest hop (18ns+3ns flit).
        assert_eq!(b.as_ns_f64(), 21.0 + 15.0 * 3.0);
    }

    #[test]
    fn port_tracker_serializes() {
        let mut p = PortTracker::new(2);
        let t0 = SimTime::from_ns(100);
        let hold = SimDuration::from_ns(3);
        assert_eq!(p.inject(0, t0, hold), t0);
        assert_eq!(p.inject(0, t0, hold), t0 + hold);
        assert_eq!(p.inject(0, t0, hold), t0 + hold * 2);
        // Other tile unaffected.
        assert_eq!(p.inject(1, t0, hold), t0);
        assert_eq!(p.free_at(0), t0 + hold * 3);
    }

    #[test]
    fn port_tracker_idles_forward() {
        let mut p = PortTracker::new(1);
        p.inject(0, SimTime::from_ns(10), SimDuration::from_ns(3));
        // After the port drains, a later injection is not delayed.
        assert_eq!(
            p.inject(0, SimTime::from_ns(100), SimDuration::from_ns(3)),
            SimTime::from_ns(100)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coord_bounds_checked() {
        MeshNoc::new(2, 2).coord(4);
    }
}
