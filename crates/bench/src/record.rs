//! Record/replay plumbing for the figure binaries.
//!
//! A figure run recorded with `--record-out` produces a versioned
//! `TRACE/1.0` artifact (see [`simcore::trace`]) capturing the run's full
//! identity — configuration fingerprint, seed, engine label, per-stream
//! RNG draw counts — plus the executed event sequence at a configurable
//! granularity. The `replay` binary reconstructs the same runs from the
//! scenario registry below, re-records them at full granularity, and fails
//! at the *first divergent event* with a readable diff.
//!
//! The registry mirrors the exact cell construction of the figure binaries
//! for the Altocumulus cells worth gating (the stochastic baselines have no
//! event recorder). Construction drift between a binary and the registry is
//! caught, not silent: the configuration and workload fingerprints recorded
//! in each run header are re-derived at replay, and a mismatch reports as a
//! provenance divergence before any event comparison.

use crate::poisson_trace;
use altocumulus::config::Resilience;
use altocumulus::rack::ServerSpec;
use altocumulus::{
    event_kind_names, AcConfig, AcResult, Altocumulus, RackConfig, RackWorld, ServerDeath,
};
use rpcstack::stack::StackModel;
use simcore::faults::FaultPlan;
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{
    first_divergence, fnv1a64_fold, parse_artifact, render_divergence, write_artifact_meta,
    write_run_section, Granularity, ParsedRun, Recorder, RunMeta, RunTotals,
};
use std::path::PathBuf;
use workload::trace::Trace;
use workload::ServiceDistribution;

/// Parses `--record-out <path>` (or `--record-out=<path>`) from the process
/// arguments: the opt-in for `TRACE/1.0` run recording on the figure
/// binaries. Like `--trace-out`, recording writes files and stderr only —
/// stdout stays byte-identical with or without the flag.
pub fn record_out_arg() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--record-out" {
            return args.next().map(PathBuf::from);
        }
        if let Some(path) = a.strip_prefix("--record-out=") {
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// Parses `--record-granularity=<full|spans|summary>`; defaults to
/// `summary`, the golden-trace format (digest checkpoints every
/// [`simcore::trace::DEFAULT_CHECKPOINT_EVERY`] events, tens of kilobytes
/// per artifact instead of hundreds of megabytes).
pub fn record_granularity_arg() -> Granularity {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        let v = if a == "--record-granularity" {
            args.next()
        } else {
            a.strip_prefix("--record-granularity=").map(String::from)
        };
        if let Some(v) = v {
            return Granularity::parse(&v)
                .unwrap_or_else(|| panic!("unknown granularity '{v}' (full|spans|summary)"));
        }
    }
    Granularity::Summary
}

/// Content fingerprint of a workload trace: FNV-1a 64 over every request's
/// arrival, service time, connection and wire size. Recorded into run
/// headers so a replay whose workload generation drifted fails at
/// provenance instead of producing a misleading event diff.
pub fn trace_fingerprint(trace: &Trace) -> u64 {
    let mut h = fnv1a64_fold(0, trace.len() as u64);
    for r in trace.requests() {
        h = fnv1a64_fold(h, r.arrival.as_ps());
        h = fnv1a64_fold(h, r.service.as_ps());
        h = fnv1a64_fold(h, r.conn.0 as u64);
        h = fnv1a64_fold(h, r.size_bytes as u64);
    }
    h
}

/// Sweep shape of the `rack_sweep` scenario, shared by the bin and this
/// registry so construction drift between them is caught at provenance
/// (the recorded config/trace fingerprints re-derive from these).
pub mod rack_shape {
    /// `(servers, groups, group_size)` of the quick configuration.
    pub const QUICK: (usize, usize, usize) = (4, 2, 8);
    /// `(servers, groups, group_size)` of the *recordable* full
    /// configuration (the bin's 64-server cells are reported but not
    /// recorded — replaying 64 × 256-core worlds is not CI material).
    pub const FULL: (usize, usize, usize) = (16, 16, 16);
    /// Requests offered to the whole rack per cell.
    pub fn requests(quick: bool) -> usize {
        if quick {
            12_000
        } else {
            160_000
        }
    }
    /// Offered loads swept.
    pub fn loads(quick: bool) -> &'static [f64] {
        if quick {
            &[0.5, 0.8]
        } else {
            &[0.5, 0.7, 0.9]
        }
    }
    /// Load of the whole-server-death cell.
    pub const DEATH_LOAD: f64 = 0.7;
}

/// Cores a stress plan may fail on an ALTOCUMULUS mesh of `groups` groups
/// of `group_size` tiles: every tile but the group managers' (tile 0 of
/// each group). Shared by `fault_sweep` and its recorded runs.
pub fn ac_worker_cores(groups: usize, group_size: usize) -> Vec<usize> {
    (0..groups * group_size)
        .filter(|c| c % group_size != 0)
        .collect()
}

/// Builds the `rack_sweep` AC rack and its workload for one cell. `shape`
/// is `(servers, groups, group_size)`; `death` hardens the per-server
/// resilience policy, installs a per-server [`FaultPlan::stress`] plan and
/// kills server `servers/2` halfway through the arrival span.
pub fn rack_sweep_cell(
    shape: (usize, usize, usize),
    load: f64,
    requests: usize,
    death: bool,
) -> (RackConfig, Trace) {
    let (servers, groups, group_size) = shape;
    // The paper's Bimodal workload — dispersed service times are where
    // intra-server migration earns its keep, and (unlike the coherence-
    // bounded JBSQ baselines) AC's NoC mesh spans a full 256-core server.
    let dist = ServiceDistribution::bimodal_paper();
    let cores = groups * group_size;
    let trace = poisson_trace(
        dist,
        load,
        servers * cores,
        requests,
        (4 * servers * cores) as u32,
        11,
    );
    let mut rack = RackConfig::ac(servers, groups, group_size, dist.mean());
    rack.seed = 0xAC5;
    if death {
        let ServerSpec::Ac(cfg) = &mut rack.template else {
            unreachable!("RackConfig::ac builds an AC template")
        };
        cfg.resilience = Resilience::hardened();
        let horizon = trace.requests().last().map_or(SimTime::ZERO, |r| r.arrival);
        let workers: Vec<usize> = (0..cores).filter(|c| c % group_size != 0).collect();
        rack.server_faults = (0..servers)
            .map(|s| FaultPlan::stress(0xAC50 + s as u64, &workers, 0.25, horizon))
            .collect();
        rack.deaths = vec![ServerDeath {
            server: servers / 2,
            at: SimTime::from_ps(horizon.as_ps() / 2),
        }];
    }
    (rack, trace)
}

/// How one recordable run builds its system and workload.
enum SpecKind {
    /// The Fig. 10 AC_rss cell at one load point.
    Fig10 { load: f64, requests: usize },
    /// The fault-sweep AC_int cell at one stress intensity.
    FaultSweep { intensity: f64, requests: usize },
    /// One server's sub-run of a rack_sweep AC cell: the serial routing
    /// pass fixes the server's sub-trace, which then replays as a fully
    /// standard single-server run.
    Rack {
        load: f64,
        requests: usize,
        death: bool,
        server: usize,
    },
}

/// One recordable run of a figure scenario.
pub struct RunSpec {
    /// Unique run label within the artifact (replay keys on it).
    pub label: String,
    /// Rack topology string recorded into the run header (`None` for
    /// standalone single-server runs); compared as provenance at replay.
    pub topology: Option<String>,
    params: Vec<(String, String)>,
    kind: SpecKind,
}

impl RunSpec {
    /// Reconstructs the run's exact configuration and workload — the same
    /// construction the figure binary uses for this cell.
    pub fn build(&self) -> (AcConfig, Trace) {
        match self.kind {
            SpecKind::Fig10 { load, requests } => {
                let dist = ServiceDistribution::bimodal_paper();
                let trace = poisson_trace(dist, load, 16, requests, 128, 10);
                let mut cfg = AcConfig::ac_rss(1, 16, dist.mean());
                cfg.stack = StackModel::nano_rpc();
                (cfg, trace)
            }
            SpecKind::FaultSweep {
                intensity,
                requests,
            } => {
                let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
                let trace = poisson_trace(dist, 0.7, 64, requests, 128, 10);
                let horizon = trace.requests().last().map_or(SimTime::ZERO, |r| r.arrival);
                let plan = FaultPlan::stress(0xFA_07, &ac_worker_cores(4, 16), intensity, horizon);
                let mut cfg = AcConfig::ac_int(4, 16, dist.mean());
                cfg.resilience = Resilience::hardened();
                cfg.faults = plan;
                (cfg, trace)
            }
            SpecKind::Rack {
                load,
                requests,
                death,
                server,
            } => {
                let quick = requests == rack_shape::requests(true);
                let shape = if quick {
                    rack_shape::QUICK
                } else {
                    rack_shape::FULL
                };
                let (rack, trace) = rack_sweep_cell(shape, load, requests, death);
                let mut routing = RackWorld::new(rack.clone()).route(&trace);
                let ServerSpec::Ac(cfg) = rack.server_spec(server) else {
                    unreachable!("rack_sweep records AC cells only")
                };
                (cfg, routing.sub_traces.swap_remove(server))
            }
        }
    }
}

/// The recordable runs of `bin` at the given sweep shape, or `None` for a
/// binary with no registered scenario.
pub fn scenario_runs(bin: &str, quick: bool) -> Option<Vec<RunSpec>> {
    match bin {
        "fig10_comparison" => {
            let requests = if quick { 20_000 } else { 250_000 };
            let loads: &[f64] = if quick {
                &[0.05, 0.2, 0.5, 0.8]
            } else {
                &[
                    0.02, 0.05, 0.08, 0.1, 0.13, 0.16, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                ]
            };
            Some(
                loads
                    .iter()
                    .map(|&load| RunSpec {
                        label: format!("AC_rss@{load:.2}"),
                        topology: None,
                        params: vec![
                            ("load".into(), format!("{load:.2}")),
                            ("requests".into(), requests.to_string()),
                        ],
                        kind: SpecKind::Fig10 { load, requests },
                    })
                    .collect(),
            )
        }
        "fault_sweep" => {
            let requests = if quick { 8_000 } else { 40_000 };
            let intensities: &[f64] = if quick {
                &[0.0, 0.5]
            } else {
                &[0.0, 0.1, 0.25, 0.5, 1.0]
            };
            Some(
                intensities
                    .iter()
                    .map(|&intensity| RunSpec {
                        label: format!("AC_int@{intensity:.2}"),
                        topology: None,
                        params: vec![
                            ("intensity".into(), format!("{intensity:.2}")),
                            ("requests".into(), requests.to_string()),
                        ],
                        kind: SpecKind::FaultSweep {
                            intensity,
                            requests,
                        },
                    })
                    .collect(),
            )
        }
        "rack_sweep" => {
            let shape = if quick {
                rack_shape::QUICK
            } else {
                rack_shape::FULL
            };
            let requests = rack_shape::requests(quick);
            // One spec per (cell, server): every AC server's sub-run of
            // every healthy load point, plus the whole-server-death cell.
            let cells: Vec<(f64, bool)> = rack_shape::loads(quick)
                .iter()
                .map(|&l| (l, false))
                .chain(std::iter::once((rack_shape::DEATH_LOAD, true)))
                .collect();
            Some(
                cells
                    .iter()
                    .flat_map(|&(load, death)| {
                        // The topology string needs the exact rack config
                        // (its fingerprint covers fault plans and the
                        // death schedule, which depend on the workload
                        // horizon).
                        let (rack, _) = rack_sweep_cell(shape, load, requests, death);
                        (0..shape.0).map(move |server| RunSpec {
                            label: format!(
                                "AC{}@{load:.2}/srv{server}",
                                if death { "+death" } else { "" }
                            ),
                            topology: Some(rack.topology(server)),
                            params: vec![
                                ("load".into(), format!("{load:.2}")),
                                ("requests".into(), requests.to_string()),
                                ("death".into(), death.to_string()),
                                ("server".into(), server.to_string()),
                            ],
                            kind: SpecKind::Rack {
                                load,
                                requests,
                                death,
                                server,
                            },
                        })
                    })
                    .collect(),
            )
        }
        _ => None,
    }
}

/// Records one run into a prepared [`Recorder`], returning its artifact
/// section and the (byte-identical-to-unrecorded) run result.
pub fn record_run_with(spec: &RunSpec, rec: &mut Recorder) -> (String, AcResult) {
    let (cfg, trace) = spec.build();
    let mut sys = Altocumulus::new(cfg.clone());
    let res = sys.run_recorded(&trace, rec);
    let meta = RunMeta {
        label: spec.label.clone(),
        engine: res.engine,
        seed: cfg.seed,
        config_fp: cfg.fingerprint(),
        trace_fp: trace_fingerprint(&trace),
        topology: spec.topology.clone(),
        params: spec.params.clone(),
    };
    let totals = RunTotals {
        rng: vec![
            ("nic".into(), res.rng.nic),
            ("faults".into(), res.rng.faults),
        ],
        end_ps: res.summary.end_time.as_ps(),
        completed: res.system.completions.len() as u64,
    };
    let mut out = String::new();
    write_run_section(&mut out, &meta, rec, &totals);
    (out, res)
}

/// Environment knob for exercising the replay gate: when set to an event
/// index, [`record_artifact`] perturbs that event's recorded time by +1 ps
/// in every run (see [`Recorder::with_perturb`]), so the artifact diverges
/// from an honest replay at that exact `(time, seq)`. Never set outside
/// tests and CI.
pub const PERTURB_ENV: &str = "AC_TRACE_PERTURB";

/// Records a whole scenario into one `TRACE/1.0` artifact. Each run's
/// recorder honours the [`PERTURB_ENV`] test knob, so a deliberately
/// corrupted artifact can be produced for exercising the replay gate.
pub fn record_artifact(
    bin: &str,
    quick: bool,
    granularity: Granularity,
    specs: &[RunSpec],
) -> String {
    let perturb = std::env::var(PERTURB_ENV).ok().and_then(|v| v.parse().ok());
    let mut out = String::new();
    write_artifact_meta(&mut out, bin, bin, quick, specs.len());
    for spec in specs {
        let mut rec = Recorder::new(granularity).with_perturb(perturb);
        let (section, _) = record_run_with(spec, &mut rec);
        out.push_str(&section);
    }
    out
}

/// Re-runs `spec` fresh at full granularity for replay comparison. The
/// replay never perturbs: a perturbed *recording* must diverge against an
/// honest replay, not cancel out.
fn replay_run(spec: &RunSpec) -> ParsedRun {
    let mut rec = Recorder::new(Granularity::Full);
    let (section, _) = record_run_with(spec, &mut rec);
    let mut text = String::new();
    write_artifact_meta(&mut text, "replay", "replay", false, 1);
    text.push_str(&section);
    parse_artifact(&text)
        .expect("a fresh recording always parses")
        .runs
        .remove(0)
}

/// Outcome of replaying one artifact.
pub struct ReplayReport {
    /// Human-readable per-run report (OK lines and divergence diffs).
    pub report: String,
    /// Runs replayed.
    pub runs: usize,
    /// Runs that diverged.
    pub diverged: usize,
}

/// Replays every run of a recorded artifact against a fresh re-execution
/// and reports the first divergence of each. Returns `Err` only when the
/// artifact itself is unusable (parse failure or unknown scenario).
pub fn replay_artifact(text: &str) -> Result<ReplayReport, String> {
    let parsed = parse_artifact(text)?;
    let specs = scenario_runs(&parsed.meta.bin, parsed.meta.quick).ok_or_else(|| {
        format!(
            "no replay scenario registered for bin '{}' — recordable bins: \
             fig10_comparison, fault_sweep, rack_sweep",
            parsed.meta.bin
        )
    })?;
    let mut report = String::new();
    let mut diverged = 0;
    for run in &parsed.runs {
        let Some(spec) = specs.iter().find(|s| s.label == run.label) else {
            diverged += 1;
            report.push_str(&format!(
                "run '{}': not in the '{}' scenario (labels: {}) — artifact and \
                 registry disagree; regenerate goldens if intentional\n",
                run.label,
                parsed.meta.bin,
                specs
                    .iter()
                    .map(|s| s.label.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            continue;
        };
        let actual = replay_run(spec);
        match first_divergence(run, &actual) {
            None => report.push_str(&format!(
                "run '{}': OK ({} events, {} completed, digest 0x{:x})\n",
                run.label, actual.footer.events, actual.footer.completed, actual.footer.digest
            )),
            Some(div) => {
                diverged += 1;
                report.push_str(&render_divergence(
                    &div,
                    run,
                    &actual,
                    event_kind_names(),
                    4,
                ));
            }
        }
    }
    Ok(ReplayReport {
        report,
        runs: parsed.runs.len(),
        diverged,
    })
}
