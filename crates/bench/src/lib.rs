//! # bench — experiment harness regenerating the paper's tables and figures
//!
//! Each `src/bin/figNN_*.rs` binary reproduces one figure of the paper's
//! evaluation and prints its series as an aligned table (see
//! `EXPERIMENTS.md` for the recorded paper-vs-measured comparison). This
//! library holds the shared sweep scaffolding.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod record;

use altocumulus::telemetry::{chrome_trace, Telemetry};
use altocumulus::{AcConfig, Altocumulus};
use rpcstack::stack::StackModel;
use schedulers::central::{CentralConfig, CentralDispatch};
use schedulers::common::{RpcSystem, SystemResult};
use schedulers::dfcfs::{DFcfs, DFcfsConfig};
use schedulers::jbsq::{Jbsq, JbsqVariant};
use schedulers::stealing::{StealingConfig, WorkStealing};
use simcore::time::SimDuration;
use std::path::{Path, PathBuf};
use workload::ServiceDistribution;

/// Builds a Poisson trace for `dist` at `load` on `cores` cores:
/// [`workload::poisson_trace`], compiled in this crate. A re-export would
/// compile the trace loop inside `workload`, where it measured about 1.65×
/// slower (altobench `steady_16x16` `workload.gen_ms_p50`: 2.9 against
/// 1.75 ms, x86-64, 2 hardware threads).
pub fn poisson_trace(
    dist: ServiceDistribution,
    load: f64,
    cores: usize,
    requests: usize,
    connections: u32,
    seed: u64,
) -> workload::Trace {
    workload::poisson_trace(dist, load, cores, requests, connections, seed)
}

/// Cores of every Fig. 10 system.
pub const FIG10_CORES: usize = 16;

/// The Fig. 10 line-up, in the figure's row order.
pub const FIG10_SYSTEMS: [&str; 7] = [
    "IX", "ZygOS", "Shinjuku", "RPCValet", "Nebula", "nanoPU", "AC_rss",
];

/// Requests offered to each Fig. 10 cell.
pub fn fig10_requests(quick: bool) -> usize {
    if quick {
        20_000
    } else {
        250_000
    }
}

/// Offered loads of the Fig. 10 sweep.
pub fn fig10_loads(quick: bool) -> &'static [f64] {
    if quick {
        &[0.05, 0.2, 0.5, 0.8]
    } else {
        &[
            0.02, 0.05, 0.08, 0.1, 0.13, 0.16, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
        ]
    }
}

/// The Fig. 10 workload at `load`: `requests` Bimodal requests over 128
/// connections on [`FIG10_CORES`] cores, trace seed 10.
pub fn fig10_trace(load: f64, requests: usize) -> workload::Trace {
    let dist = ServiceDistribution::bimodal_paper();
    poisson_trace(dist, load, FIG10_CORES, requests, 128, 10)
}

/// The Fig. 10 AC_rss configuration. One 16-core group: the paper's
/// group-size exploration (§VIII-B) picks 16; on a 16-core machine
/// inter-group migration is moot and AC degenerates to its local c-FCFS
/// tier.
pub fn fig10_ac_rss() -> AcConfig {
    let mut cfg = AcConfig::ac_rss(1, FIG10_CORES, ServiceDistribution::bimodal_paper().mean());
    // Paired with a hardware-terminated (nanoRPC-class) stack as in the
    // paper's end-to-end configuration (§IX-A).
    cfg.stack = StackModel::nano_rpc();
    cfg
}

/// Builds the Fig. 10 system `name` (one of [`FIG10_SYSTEMS`]) on
/// [`FIG10_CORES`] cores, configured for the Bimodal workload.
///
/// # Panics
///
/// Panics on a name outside [`FIG10_SYSTEMS`].
pub fn fig10_system(name: &str) -> Box<dyn RpcSystem> {
    // Per §VII-A, the software systems (IX, ZygOS, Shinjuku) "rely on
    // traditional network stacks, such as TCP/UDP" — most of their gap to
    // the hardware schedulers is stack processing, not scheduling.
    let tcp = StackModel::tcp_ip();
    match name {
        "IX" => Box::new(DFcfs::new(DFcfsConfig {
            stack: tcp,
            ..DFcfsConfig::ix(FIG10_CORES)
        })),
        "ZygOS" => Box::new(WorkStealing::new(StealingConfig {
            stack: tcp,
            ..StealingConfig::zygos(FIG10_CORES)
        })),
        "Shinjuku" => Box::new(CentralDispatch::new(CentralConfig {
            stack: tcp,
            ..CentralConfig::shinjuku(FIG10_CORES)
        })),
        "RPCValet" => Box::new(Jbsq::new(JbsqVariant::RpcValet, FIG10_CORES)),
        "Nebula" => Box::new(Jbsq::new(JbsqVariant::Nebula, FIG10_CORES)),
        "nanoPU" => Box::new(Jbsq::new(JbsqVariant::NanoPu, FIG10_CORES)),
        "AC_rss" => Box::new(Altocumulus::new(fig10_ac_rss())),
        other => panic!("unknown system {other}"),
    }
}

/// One measured point of a comparison sweep.
#[derive(Debug, Clone)]
pub struct MeasuredPoint {
    /// Offered load used for the trace.
    pub load: f64,
    /// Achieved throughput in MRPS.
    pub mrps: f64,
    /// 99th-percentile latency.
    pub p99: SimDuration,
    /// Fraction violating the SLO.
    pub violation_ratio: f64,
}

/// Converts a [`SystemResult`] into a [`MeasuredPoint`].
pub fn point_from(r: &SystemResult, load: f64, slo: SimDuration) -> MeasuredPoint {
    MeasuredPoint {
        load,
        mrps: r.throughput_rps() / 1e6,
        p99: r.p99(),
        violation_ratio: r.violation_ratio(slo),
    }
}

/// True iff the process arguments contain the exact flag `name`
/// (e.g. `--csv`).
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Parses `--trace-out <path>` (or `--trace-out=<path>`) from the process
/// arguments: the opt-in for telemetry capture on the figure binaries.
pub fn trace_out_arg() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            return args.next().map(PathBuf::from);
        }
        if let Some(path) = a.strip_prefix("--trace-out=") {
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// Builds a [`Telemetry`] recorder pre-sized for a trace of `requests`
/// requests: enough span points for every lifecycle transition (ring growth
/// only under unusually migration-heavy runs) and a per-series probe ring
/// deep enough for the figure configurations' tick counts.
pub fn capture_telemetry(requests: usize) -> Telemetry {
    Telemetry::with_capacity(requests * 8 + 1024, 16_384)
}

/// Writes the capture's Chrome-trace JSON to `path` and its probe series
/// as JSON Lines next to it (extension replaced with `probes.jsonl`, so
/// `trace.json` pairs with `trace.probes.jsonl`). Returns the probe path.
///
/// # Panics
///
/// Panics if either file cannot be written — the figure binaries treat an
/// unwritable `--trace-out` destination as a fatal usage error.
pub fn export_trace(tel: &Telemetry, path: &Path) -> PathBuf {
    let spans = chrome_trace(tel);
    std::fs::write(path, spans)
        .unwrap_or_else(|e| panic!("cannot write trace to {}: {e}", path.display()));
    let probe_path = path.with_extension("probes.jsonl");
    std::fs::write(&probe_path, tel.probes.to_jsonl())
        .unwrap_or_else(|e| panic!("cannot write probes to {}: {e}", probe_path.display()));
    probe_path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_trace_targets_load() {
        let d = ServiceDistribution::Fixed(SimDuration::from_us(1));
        let t = poisson_trace(d, 0.7, 16, 50_000, 64, 1);
        assert!((t.offered_load(16) - 0.7).abs() < 0.05);
    }
}
