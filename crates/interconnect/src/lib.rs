//! # interconnect — on-chip and off-chip communication cost models
//!
//! The latency substrate of the Altocumulus reproduction (paper §VII-B):
//!
//! - [`noc`]: a 2-D mesh NoC with XY routing at 3 ns/hop and flit-level
//!   serialization.
//! - [`offchip`]: PCIe (200–800 ns size-dependent) and the memory hierarchy
//!   (L1 / LLC / remote-cache 70-cycle / DRAM) with work-stealing cost
//!   helpers.
//!
//! # Examples
//!
//! ```
//! use interconnect::noc::MeshNoc;
//! use interconnect::offchip::{MemoryModel, Pcie};
//!
//! let noc = MeshNoc::new_square(256);
//! // A 14-byte MIGRATE descriptor crossing half the mesh:
//! let lat = noc.latency(0, 255, 14);
//! assert!(lat.as_ns_f64() < 100.0);
//!
//! // Moving the same request over PCIe is an order of magnitude slower:
//! assert!(Pcie::default().transfer(14) > lat);
//!
//! // And a ZygOS-style steal costs 2-3 cache misses:
//! assert!(MemoryModel::default().steal_cost(2).as_ns_f64() >= 200.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod noc;
pub mod offchip;

pub use noc::{MeshNoc, TileCoord};
pub use offchip::{MemoryModel, Pcie};
