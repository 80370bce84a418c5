//! The hardware messaging mechanism of the manager tile (paper §V, Fig. 6).
//!
//! Modeled components: the four protocol [`messages`], the
//! software–hardware [`interface`] (custom `altom_*` ISA vs. x86 MSRs), and
//! the send/receive FIFO bounds the engine enforces. The engine models the
//! FIFOs as counters of MIGRATE messages, not as buffers: a tile's send
//! count covers MIGRATEs in flight until their ACK/NACK returns, its
//! receive count covers MIGRATEs that landed and are still draining into
//! NetRX at 1 ns per descriptor.

pub mod interface;
pub mod messages;

pub use interface::{instruction_set, Instruction, Interface};
pub use messages::{Descriptor, Message, DESCRIPTOR_BYTES, HEADER_BYTES};

/// Send-FIFO slots per manager tile: the paper's 16-entry send FIFO
/// (§V-B), counted in MIGRATE messages. A manager with this many MIGRATEs
/// awaiting their ACK/NACK sends no more in the current tick.
pub const SEND_FIFO_SLOTS: usize = 16;

/// Receive-FIFO slots per manager tile: the paper's 16-entry receive FIFO
/// (§V-B), counted in MIGRATE messages. A MIGRATE that lands while this
/// many earlier ones are still draining is rejected with a NACK.
pub const RECV_FIFO_SLOTS: usize = 16;
