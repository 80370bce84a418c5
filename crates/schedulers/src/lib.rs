//! # schedulers — baseline RPC scheduling systems
//!
//! Queueing-level models of every system Altocumulus is compared against
//! (paper Table I, Fig. 10), built on the `simcore` discrete-event engine:
//!
//! - [`dfcfs`]: IX / plain-RSS d-FCFS (per-core queues, no balancing).
//! - [`stealing`]: ZygOS-style d-FCFS + work stealing (200–400 ns steals).
//! - [`central`]: Shinjuku-style centralized dispatcher with 5 µs preemption
//!   and a ~5 MRPS dispatcher ceiling.
//! - [`jbsq`]: hardware JBSQ(n) NIC schedulers — RPCValet, Nebula, nanoPU.
//! - [`ideal`]: idealized c-FCFS with parametric scheduling overhead and
//!   queue-length instrumentation (drives Figs. 3 and 7).
//! - [`sweep`]: throughput@SLO bisection and load sweeps.
//! - [`catalog`]: Table I as data.
//!
//! All systems implement [`common::RpcSystem`]: feed a `workload::Trace`, get
//! a [`common::SystemResult`]. Every `run` — these baselines and
//! ALTOCUMULUS alike — builds its world and hands it to one harness,
//! [`common::drive`], with two closures: how arrival `i` is steered (its
//! delivery time and event) and what to schedule before the first event
//! (fault strikes, initial ticks). The harness owns seq reservation,
//! streamed arrival injection and simcore's single run loop, so every
//! system sees the same arrival, fault and completion plumbing.
//!
//! # Examples
//!
//! ```
//! use schedulers::common::RpcSystem;
//! use schedulers::jbsq::{Jbsq, JbsqVariant};
//! use workload::{PoissonProcess, ServiceDistribution, TraceBuilder};
//!
//! let dist = ServiceDistribution::bimodal_paper();
//! let rate = PoissonProcess::rate_for_load(0.4, 16, dist.mean());
//! let trace = TraceBuilder::new(PoissonProcess::new(rate), dist)
//!     .requests(5_000)
//!     .seed(1)
//!     .build();
//! let result = Jbsq::new(JbsqVariant::Nebula, 16).run(&trace);
//! assert_eq!(result.completions.len(), 5_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod central;
pub mod common;
pub mod dfcfs;
pub mod ideal;
pub mod jbsq;
pub mod stealing;
pub mod sweep;

pub use central::{CentralConfig, CentralDispatch};
pub use common::{QueuedRequest, RpcSystem, SystemResult};
pub use dfcfs::{DFcfs, DFcfsConfig};
pub use ideal::{CentralQueue, CentralQueueConfig, InstrumentedResult};
pub use jbsq::{Jbsq, JbsqConfig, JbsqVariant};
pub use stealing::{StealingConfig, WorkStealing};
pub use sweep::{
    sweep_loads, sweep_loads_parallel, throughput_at_slo, throughput_at_slo_search, SloSearch,
    SweepPoint,
};
