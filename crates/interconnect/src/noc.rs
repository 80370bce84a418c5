//! 2-D mesh network-on-chip model.
//!
//! The paper routes Altocumulus messages (UPDATE / MIGRATE / ACK / NACK) over
//! the NoC with deterministic XY routing, 3 ns per hop, on a dedicated
//! virtual network (§V-B, §VII-B). Because the dedicated virtual network is
//! lightly loaded, the dominant term is hop latency plus serialization of the
//! (small) payload. Back-to-back MIGRATE sends from one tile are spread by
//! the engine's closed-form 3 ns injection stagger.

use simcore::time::SimDuration;

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

    /// Number of tiles in the mesh.
    pub fn tiles(&self) -> u32 {
        self.width * self.height
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

    /// End-to-end latency for a `bytes`-byte message from `src` to `dst`:
    /// head-flit hop latency plus serialization of the body flits.
    /// A zero-hop (self) message still pays one flit of local forwarding.
    pub fn latency(&self, src: usize, dst: usize, bytes: u32) -> SimDuration {
        let hops = self.hops(src, dst);
        let flits = bytes.div_ceil(self.flit_bytes).max(1);
        self.per_hop * hops as u64 + self.per_flit * flits as u64
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
    #[should_panic(expected = "out of range")]
    fn coord_bounds_checked() {
        MeshNoc::new(2, 2).coord(4);
    }
}
