//! # workload — traffic generation for nanosecond-scale RPC experiments
//!
//! Builds the request streams every experiment in the Altocumulus
//! reproduction consumes:
//!
//! - [`dist`]: service-time distributions (Fixed / Uniform / Bimodal /
//!   Exponential / Lognormal) with exact means and SCVs.
//! - [`arrival`]: Poisson, paced and Markov-modulated (bursty "real-world")
//!   arrival processes.
//! - [`request`]: the [`request::Request`] / [`request::Completion`] records
//!   shared by all simulated systems.
//! - [`trace`]: materialized, persistable [`trace::Trace`]s so that every
//!   scheduler is compared on identical workloads.
//!
//! # Examples
//!
//! Generate the paper's headline Bimodal workload at load 0.8 on 16 cores:
//!
//! ```
//! use workload::arrival::PoissonProcess;
//! use workload::dist::ServiceDistribution;
//! use workload::trace::TraceBuilder;
//!
//! let dist = ServiceDistribution::bimodal_paper();
//! let rate = PoissonProcess::rate_for_load(0.8, 16, dist.mean());
//! let trace = TraceBuilder::new(PoissonProcess::new(rate), dist)
//!     .requests(1_000)
//!     .seed(7)
//!     .build();
//! assert_eq!(trace.len(), 1_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrival;
pub mod dist;
pub mod realworld;
pub mod request;
pub mod trace;

pub use arrival::{ArrivalProcess, DeterministicProcess, MmppProcess, PoissonProcess};
pub use dist::ServiceDistribution;
pub use realworld::clustered_bursty;
pub use request::{Completion, ConnectionId, Request, RequestId, RequestKind};
pub use trace::{poisson_trace, Trace, TraceBuilder};
