//! Fig. 13(a) — throughput@SLO and prediction accuracy scaling from 16 to
//! 256 cores, with (1) fixed 850 ns service (eRPC stack, Poisson) and (2)
//! bursty real-world traffic, comparing RSS, Nebula, AC_int_subopt (static
//! paper parameters) and AC_int_opt (tuned).
//!
//! Paper shape: AC scales near-linearly; under real-world traffic Nebula
//! and RSS flatten while AC_int keeps most of its throughput, losing only
//! ~14-15% vs. its synthetic-trace result; prediction accuracy drops from
//! ~99.8% (synthetic) to ~96% (real-world).
//!
//! ```sh
//! cargo run -p bench --release --bin fig13a_scalability
//! ```

use altocumulus::accounting::prediction_accuracy;
use altocumulus::telemetry::phase_table;
use altocumulus::{AcConfig, Altocumulus};
use bench::{capture_telemetry, export_trace, has_flag, poisson_trace, trace_out_arg};
use queueing::ThresholdModel;
use schedulers::common::RpcSystem;
use schedulers::dfcfs::{DFcfs, DFcfsConfig};
use schedulers::jbsq::{Jbsq, JbsqVariant};
use simcore::report::Table;
use simcore::time::SimDuration;
use simcore::{default_threads, parallel_map};
use workload::arrival::PoissonProcess;
use workload::realworld::clustered_bursty;
use workload::trace::{Trace, TraceBuilder};
use workload::ServiceDistribution;

const REQUESTS: usize = 200_000;

fn trace_for(cores: usize, load: f64, real_world: bool, seed: u64, requests: usize) -> Trace {
    let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
    let rate = PoissonProcess::rate_for_load(load, cores, dist.mean());
    if real_world {
        // Independently-bursty hot flows (one connection each), several per
        // group, so bursts concentrate on individual receive queues.
        let clusters = (cores / 8).max(4) as u32;
        clustered_bursty(dist, rate, clusters, 1, requests, seed)
    } else {
        TraceBuilder::new(PoissonProcess::new(rate), dist)
            .requests(requests)
            .connections((cores * 16) as u32)
            .seed(seed)
            .build()
    }
}

fn subopt(cores: usize) -> AcConfig {
    AcConfig::ac_int(cores / 16, 16, SimDuration::from_ns(850))
}

fn opt(cores: usize) -> AcConfig {
    // Tuned: faster period, bigger bulk, full concurrency, identity
    // Erlang-C threshold (catches violations earlier under bursts).
    let mut cfg = subopt(cores);
    cfg.period = SimDuration::from_ns(100);
    cfg.bulk = 32;
    cfg.concurrency = (cores / 16).clamp(1, 16).min(cfg.bulk);
    cfg.threshold = altocumulus::ThresholdPolicy::Model(ThresholdModel::identity());
    cfg
}

/// Highest measured MRPS with p99 <= SLO over a load grid.
fn tput_at_slo(mut run_at: impl FnMut(f64) -> (f64, SimDuration), slo: SimDuration) -> (f64, f64) {
    let mut best = (0.0, 0.0); // (mrps, load)
    for load in [0.1, 0.2, 0.3, 0.5, 0.65, 0.8, 0.85, 0.9, 0.95] {
        let (mrps, p99) = run_at(load);
        if p99 <= slo && mrps > best.0 {
            best = (mrps, load);
        }
    }
    best
}

fn main() {
    let slo = SimDuration::from_ns(8500); // 10 x 850ns
                                          // `--quick` shrinks the sweep to a CI-sized smoke whose stdout is
                                          // pinned by a golden sha256 fixture (see ci.sh); keep its output
                                          // deterministic and in sync with ci/golden/.
    let quick = has_flag("--quick");
    let requests = if quick { 20_000 } else { REQUESTS };
    let core_counts: &[usize] = if quick {
        &[16, 64]
    } else {
        &[16, 64, 128, 256]
    };

    for real_world in [false, true] {
        let title = if real_world {
            "(2) real-world (bursty MMPP) traffic"
        } else {
            "(1) Poisson, fixed 850ns service"
        };
        println!("--- {title}{} ---", if quick { " [quick]" } else { "" });
        // One job per (cores, system): the 256-core sweeps dominate, so
        // splitting by system (not just by core count) lets the executor
        // overlap them instead of serializing behind one giant job.
        const SYSTEMS: usize = 4;
        let jobs: Vec<(usize, usize)> = core_counts
            .iter()
            .flat_map(|&cores| (0..SYSTEMS).map(move |s| (cores, s)))
            .collect();
        let cells = parallel_map(jobs, default_threads(), |_, (cores, s)| {
            let mut sys: Box<dyn RpcSystem> = match s {
                0 => Box::new(DFcfs::new(DFcfsConfig::rss(cores))),
                1 => Box::new(Jbsq::new(JbsqVariant::Nebula, cores)),
                2 => Box::new(Altocumulus::new(subopt(cores))),
                _ => Box::new(Altocumulus::new(opt(cores))),
            };
            tput_at_slo(
                |load| {
                    let t = trace_for(cores, load, real_world, 51, requests);
                    let r = sys.run(&t);
                    (r.throughput_rps() / 1e6, r.p99())
                },
                slo,
            )
        });

        // Prediction accuracy of AC_int_opt at its operating point,
        // measured on a predict-only run (predictions on the unperturbed
        // trajectory, the paper's metric). One independent job per count.
        let acc_jobs: Vec<(usize, f64)> = core_counts
            .iter()
            .enumerate()
            .map(|(i, &cores)| (cores, cells[i * SYSTEMS + 3].1))
            .collect();
        let accs = parallel_map(acc_jobs, default_threads(), |_, (cores, opt_load)| {
            if opt_load > 0.0 {
                let t = trace_for(cores, opt_load, real_world, 51, requests);
                let mut po = opt(cores);
                po.predict_only = true;
                let run = Altocumulus::new(po).run_detailed(&t);
                prediction_accuracy(&run.system, &run.stats.predicted, t.len(), slo)
            } else {
                f64::NAN
            }
        });

        let rows: Vec<(usize, f64, f64, f64, f64, f64)> = core_counts
            .iter()
            .enumerate()
            .map(|(i, &cores)| {
                let row = &cells[i * SYSTEMS..(i + 1) * SYSTEMS];
                (cores, row[0].0, row[1].0, row[2].0, row[3].0, accs[i])
            })
            .collect();

        let mut t = Table::new(&[
            "cores",
            "RSS",
            "Nebula",
            "AC_int_subopt",
            "AC_int_opt",
            "AC_opt pred.accuracy",
        ]);
        for (cores, rss, neb, sub, opt, acc) in rows {
            t.row(&[
                &cores.to_string(),
                &format!("{rss:.1}"),
                &format!("{neb:.1}"),
                &format!("{sub:.1}"),
                &format!("{opt:.1}"),
                &if acc.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.1}%", acc * 100.0)
                },
            ]);
        }
        t.print();
        println!("(all throughput columns in MRPS with p99 <= {slo})\n");
    }

    // Optional telemetry export: one traced AC_int_opt run at 64 cores on a
    // shortened Poisson trace (20k requests), a configuration where the
    // migration machinery is actually exercised. Files + stderr only, so
    // stdout stays byte-identical with or without the flag.
    if let Some(path) = trace_out_arg() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let trace = poisson_trace(dist, 0.8, 64, 20_000, 64 * 16, 51);
        let mut tel = capture_telemetry(trace.len());
        let r = Altocumulus::new(opt(64)).run_traced(&trace, &mut tel);
        let probes = export_trace(&tel, &path);
        eprintln!(
            "trace (AC_int_opt 64c, load 0.80, {} reqs, {} migrated): {} span points -> {} | {} probe samples -> {}",
            trace.len(),
            r.stats.migrated_requests,
            tel.spans.len(),
            path.display(),
            tel.probes.sample_count(),
            probes.display()
        );
        eprintln!("{}", phase_table(&tel).render());
    }
}
