//! # altocumulus-repro — reproduction suite for ALTOCUMULUS (MICRO 2022)
//!
//! One roof over the whole reproduction of *"ALTOCUMULUS: Scalable
//! Scheduling for Nanosecond-Scale Remote Procedure Calls"* (Zhao,
//! Uwizeyimana, Ganesan, Jeffrey, Enright Jerger — MICRO 2022):
//!
//! | crate | role |
//! |---|---|
//! | [`simcore`] | deterministic ps-resolution discrete-event engine, metrics |
//! | [`interconnect`] | NoC mesh (3 ns/hop), PCIe, memory hierarchy |
//! | [`workload`] | service-time distributions, Poisson/MMPP arrivals, traces |
//! | [`queueing`] | Erlang-C, M/M/k, the E\[T̂\] threshold model + calibration |
//! | [`rpcstack`] | TCP/IP / eRPC / nanoRPC stacks, NIC steering & transfers |
//! | [`schedulers`] | IX, ZygOS, Shinjuku, RPCValet, Nebula, nanoPU baselines |
//! | [`altocumulus`] | the paper's contribution: runtime + hw messaging + system |
//! | [`mica`] | MICA-like partitioned KVS for the end-to-end experiments |
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for paper-vs-measured results. The `examples/`
//! directory holds runnable scenarios; `crates/bench` regenerates every
//! figure of the paper's evaluation.

#![forbid(unsafe_code)]

pub use altocumulus;
pub use interconnect;
pub use mica;
pub use queueing;
pub use rpcstack;
pub use schedulers;
pub use simcore;
pub use workload;
