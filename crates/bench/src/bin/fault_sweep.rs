//! Fault sweep — SLO-violation vs fault-intensity curves for Altocumulus
//! against the non-resilient baselines.
//!
//! Every system runs the *same* healthy workload (64 cores, fixed 850 ns
//! service, load 0.7) under [`simcore::faults::FaultPlan::stress`] plans of
//! increasing intensity: straggler intervals, permanent worker-core deaths
//! and (for Altocumulus, the only system with a modelled NoC) message
//! drop/delay on the gossip channel. Altocumulus runs the hardened
//! resilience policy — NACK/timeout backoff, staged-migration timeouts,
//! manager takeover — so dead cores' requests are resteered; the baselines
//! lose whatever a dead core held (d-FCFS additionally loses everything the
//! RSS hash keeps steering at the dead queue).
//!
//! A request that never completes is an SLO violation by definition, so the
//! reported violation ratio is `(late + lost) / offered` — comparable
//! across systems with different loss behavior.
//!
//! Output is deterministic (fixed seeds, deterministic parallel sweep):
//! byte-identical across invocations and thread counts. CI runs
//! `--quick` twice and diffs the bytes.
//!
//! ```sh
//! cargo run -p bench --release --bin fault_sweep            # full curve
//! cargo run -p bench --release --bin fault_sweep -- --quick # CI smoke
//! ```

use altocumulus::Altocumulus;
use bench::has_flag;
use bench::record::fault_shape::{CORES, GROUPS, GROUP_SIZE, LOAD};
use bench::record::{
    ac_worker_cores, fault_shape, fault_sweep_ac, fault_sweep_cell, record_artifact,
    record_granularity_arg, record_out_arg, scenario_runs,
};
use schedulers::common::RpcSystem;
use schedulers::dfcfs::{DFcfs, DFcfsConfig};
use schedulers::jbsq::{Jbsq, JbsqConfig, JbsqVariant};
use simcore::report::Table;
use simcore::time::SimDuration;
use simcore::{default_threads, parallel_map};

struct Cell {
    system: &'static str,
    intensity: f64,
    completed: usize,
    offered: usize,
    p99: SimDuration,
    violations: usize,
    fault_note: String,
}

/// `(late + lost) / offered`: a request that never completed violates any
/// SLO.
fn violations(r: &schedulers::common::SystemResult, offered: usize, slo: SimDuration) -> usize {
    let late = r.completions.iter().filter(|c| c.latency() > slo).count();
    late + (offered - r.completions.len())
}

/// Worker cores eligible to fail under each system's core map. Altocumulus
/// reserves one manager tile per group; the flat baselines use every core.
fn worker_cores(system: &str) -> Vec<usize> {
    match system {
        "AC_int" => ac_worker_cores(GROUPS, GROUP_SIZE),
        _ => (0..CORES).collect(),
    }
}

fn run_cell(system: &'static str, intensity: f64, quick: bool, slo: SimDuration) -> Cell {
    let requests = fault_shape::requests(quick);
    let (plan, trace) = fault_sweep_cell(&worker_cores(system), intensity, requests);
    let (r, note) = match system {
        "AC_int" => {
            let res = Altocumulus::new(fault_sweep_ac(plan)).run_detailed(&trace);
            let f = res.faults;
            let note = if intensity == 0.0 {
                String::new()
            } else {
                format!(
                    "fail={} resteer={} timeout={} drop={}",
                    f.worker_failures, f.resteered_requests, f.migrate_timeouts, f.updates_dropped
                )
            };
            (res.system, note)
        }
        "d-FCFS" => {
            let cfg = DFcfsConfig {
                faults: plan,
                ..DFcfsConfig::rss(CORES)
            };
            (DFcfs::new(cfg).run(&trace), String::new())
        }
        "Nebula" => {
            let cfg = JbsqConfig {
                faults: plan,
                ..JbsqConfig::of(JbsqVariant::Nebula, CORES)
            };
            (
                Jbsq::with_config(JbsqVariant::Nebula, cfg).run(&trace),
                String::new(),
            )
        }
        other => panic!("unknown system {other}"),
    };
    Cell {
        system,
        intensity,
        completed: r.completions.len(),
        offered: requests,
        p99: r.p99(),
        violations: violations(&r, requests, slo),
        fault_note: note,
    }
}

fn main() {
    let quick = has_flag("--quick");
    let slo = SimDuration::from_us(10);
    let systems = ["AC_int", "d-FCFS", "Nebula"];
    let intensities = fault_shape::intensities(quick);

    println!(
        "Fault sweep: {CORES} cores, Fixed(850ns), load {LOAD:.1}, SLO p99 <= {}us{}",
        slo.as_us_f64(),
        if quick { " [quick]" } else { "" }
    );
    println!("violations count late + never-completed requests\n");

    let jobs: Vec<(&'static str, f64)> = systems
        .iter()
        .flat_map(|&s| intensities.iter().map(move |&i| (s, i)))
        .collect();
    let cells = parallel_map(jobs, default_threads(), |_, (s, i)| {
        run_cell(s, i, quick, slo)
    });

    let csv = has_flag("--csv");
    let mut t = Table::new(&[
        "system",
        "intensity",
        "completed%",
        "p99_us",
        "viol%",
        "fault_actions",
    ]);
    for c in &cells {
        t.row(&[
            c.system,
            &format!("{:.2}", c.intensity),
            &format!("{:.1}", 100.0 * c.completed as f64 / c.offered as f64),
            &format!("{:.1}", c.p99.as_us_f64()),
            &format!("{:.1}", 100.0 * c.violations as f64 / c.offered as f64),
            &c.fault_note,
        ]);
    }
    if csv {
        print!("{}", t.to_csv());
    } else {
        t.print();
    }

    // Headline: graceful degradation means AC's violation curve stays at or
    // below the baselines' at every injected intensity.
    let viol = |sys: &str, i: f64| {
        cells
            .iter()
            .find(|c| c.system == sys && c.intensity == i)
            .map(|c| c.violations as f64 / c.offered as f64)
            .unwrap_or(1.0)
    };
    let worst = intensities
        .iter()
        .map(|&i| viol("AC_int", i) - viol("d-FCFS", i).min(viol("Nebula", i)))
        .fold(f64::MIN, f64::max);
    println!(
        "\nAC_int worst-case violation gap vs best baseline: {:+.1} pp ({})",
        worst * 100.0,
        if worst <= 0.0 {
            "degrades no worse at every intensity"
        } else {
            "degrades worse somewhere"
        }
    );

    // Optional run recording (see fig10_comparison): re-executes the
    // AC_int cells with a `TRACE/1.0` recorder attached. Files + stderr
    // only — stdout stays byte-identical.
    if let Some(path) = record_out_arg() {
        let gran = record_granularity_arg();
        let specs = scenario_runs("fault_sweep", quick).unwrap();
        let artifact = record_artifact("fault_sweep", quick, gran, &specs);
        std::fs::write(&path, &artifact).expect("write record artifact");
        eprintln!(
            "record ({} AC_int runs, {} granularity): {} bytes -> {}",
            specs.len(),
            gran.label(),
            artifact.len(),
            path.display()
        );
    }
}
