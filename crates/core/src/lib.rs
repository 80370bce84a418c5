//! # altocumulus — scalable scheduling for nanosecond-scale RPCs
//!
//! A faithful reproduction of **ALTOCUMULUS** (Zhao et al., MICRO 2022): a
//! software–hardware co-design that *proactively migrates* RPC requests
//! predicted to violate their SLO from heavily-loaded to lightly-loaded
//! manager cores, using register-level hardware messaging over the NoC.
//!
//! The system is organized exactly as the paper's Fig. 5:
//!
//! - an **offline component** calibrates the queueing-theory threshold model
//!   (`queueing::ThresholdModel`, Eq. 1–2);
//! - the **software runtime** ([`runtime`], Algorithm 1) runs on each
//!   decentralized manager core: it monitors the local NetRX queue, predicts
//!   violations every period, classifies Hill/Valley/Pairing patterns and
//!   triggers migrations;
//! - the **hardware messaging mechanism** ([`hw`], Fig. 6/8) moves 14 B
//!   descriptors between manager tiles at NoC speed, bounded by the
//!   16-entry send/receive FIFOs, exposed to user space through custom
//!   `altom_*` instructions (or slower x86 MSRs);
//! - the **system model** ([`system`]) wires everything into a
//!   discrete-event simulation comparable head-to-head with the baselines in
//!   the `schedulers` crate. One run executes on one thread; sweeps and
//!   racks get their parallelism across independent runs;
//! - [`accounting`] reproduces the paper's migration-effectiveness and
//!   prediction-accuracy analyses (Fig. 12/13).
//!
//! # Examples
//!
//! Run ACint on the paper's Bimodal workload and inspect migrations:
//!
//! ```
//! use altocumulus::{AcConfig, Altocumulus};
//! use schedulers::common::RpcSystem;
//! use workload::{PoissonProcess, ServiceDistribution, TraceBuilder};
//!
//! let dist = ServiceDistribution::bimodal_paper();
//! let rate = PoissonProcess::rate_for_load(0.5, 64, dist.mean());
//! let trace = TraceBuilder::new(PoissonProcess::new(rate), dist)
//!     .requests(5_000)
//!     .connections(8) // few connections -> RSS imbalance
//!     .seed(1)
//!     .build();
//!
//! let mut ac = Altocumulus::new(AcConfig::ac_int(4, 16, dist.mean()));
//! let result = ac.run_detailed(&trace);
//! assert_eq!(result.system.completions.len(), 5_000);
//! println!("p99 = {}, migrated = {}", result.system.p99(), result.stats.migrated_requests);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accounting;
pub mod config;
pub mod hw;
pub mod rack;
pub mod runtime;
pub mod system;
pub mod telemetry;
pub mod tenancy;

pub use accounting::{
    classify_effectiveness, prediction_accuracy, EffectivenessBreakdown, PredictedSet,
};
pub use config::{AcConfig, Attachment, ControlPlane};
pub use hw::interface::Interface;
pub use rack::{
    RackConfig, RackResult, RackWorld, RoutePolicy, RoutingStats, ServerDeath, ServerSpec,
    TorConfig,
};
pub use runtime::predictor::ThresholdPolicy;
pub use system::{event_kind_names, AcResult, Altocumulus, MigrationStats, RngDraws};
pub use telemetry::{Telemetry, TelemetrySink};
pub use tenancy::Tenancy;
