//! Fig. 10 — tail latency vs throughput against prior work: IX, ZygOS,
//! Shinjuku, RPCValet, Nebula, nanoPU and AC_rss on 16 cores with the
//! Bimodal(99.5% 0.5 µs / 0.5% 500 µs) workload, SLO = 300 µs p99.
//!
//! Paper shape: IX/ZygOS collapse earliest (head-of-line blocking),
//! Shinjuku ~5× better than ZygOS, Nebula/nanoPU another ~4× up, and
//! AC_rss lands within a few percent of the best hardware scheduler while
//! beating Nebula's tail by an order of magnitude at moderate load.
//!
//! ```sh
//! cargo run -p bench --release --bin fig10_comparison
//! ```

use altocumulus::telemetry::phase_table;
use altocumulus::Altocumulus;
use bench::record::{record_artifact, record_granularity_arg, record_out_arg, scenario_runs};
use bench::{
    capture_telemetry, export_trace, fig10_ac_rss, fig10_loads, fig10_requests, fig10_system,
    fig10_trace, has_flag, point_from, trace_out_arg, FIG10_CORES as CORES, FIG10_SYSTEMS,
};
use simcore::report::Table;
use simcore::time::SimDuration;
use simcore::{default_threads, parallel_map};
use workload::ServiceDistribution;

fn main() {
    let dist = ServiceDistribution::bimodal_paper();
    let slo = SimDuration::from_us(300);
    let systems = FIG10_SYSTEMS;
    // `--quick` shrinks the sweep to a CI-sized smoke whose stdout is
    // pinned by a golden sha256 fixture (see ci.sh); keep its output
    // deterministic and in sync with ci/golden/.
    let quick = has_flag("--quick");
    let requests = fig10_requests(quick);
    let loads = fig10_loads(quick);

    println!(
        "Fig. 10: p99 vs throughput, {CORES} cores, {dist}, SLO p99 <= 300us{}\n",
        if quick { " [quick]" } else { "" }
    );

    // One job per (system, load) cell. Every `RpcSystem::run` reseeds its
    // RNG streams from config, so a fresh system per cell yields the same
    // numbers as one system swept across loads — while letting the
    // deterministic executor balance slow high-load cells across workers.
    let jobs: Vec<(&str, f64)> = systems
        .iter()
        .flat_map(|&name| loads.iter().map(move |&load| (name, load)))
        .collect();
    let cells = parallel_map(jobs, default_threads(), move |_, (name, load)| {
        let trace = fig10_trace(load, requests);
        let mut sys = fig10_system(name);
        let r = sys.run(&trace);
        point_from(&r, load, slo)
    });
    let all: Vec<(&str, Vec<bench::MeasuredPoint>)> = systems
        .iter()
        .zip(cells.chunks(loads.len()))
        .map(|(&name, pts)| (name, pts.to_vec()))
        .collect();

    // `--csv` switches the data tables to machine-readable CSV so scripts
    // stop re-parsing aligned text.
    let csv = has_flag("--csv");
    let mut t = Table::new(&["system", "load", "MRPS", "p99_us", "viol%"]);
    for (name, pts) in &all {
        for p in pts {
            t.row(&[
                name,
                &format!("{:.2}", p.load),
                &format!("{:.2}", p.mrps),
                &format!("{:.1}", p.p99.as_us_f64()),
                &format!("{:.2}", p.violation_ratio * 100.0),
            ]);
        }
    }
    if csv {
        print!("{}", t.to_csv());
    } else {
        t.print();
    }

    println!("\nthroughput@SLO (highest measured MRPS with p99 <= 300us):");
    let mut t2 = Table::new(&["system", "MRPS@SLO"]);
    let mut best: Vec<(String, f64)> = Vec::new();
    for (name, pts) in &all {
        let mrps = pts
            .iter()
            .filter(|p| p.p99 <= slo)
            .map(|p| p.mrps)
            .fold(0.0f64, f64::max);
        best.push((name.to_string(), mrps));
        t2.row(&[name, &format!("{mrps:.2}")]);
    }
    if csv {
        print!("{}", t2.to_csv());
    } else {
        t2.print();
    }

    let get = |n: &str| {
        best.iter()
            .find(|(b, _)| b == n)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let (zygos, nebula, ac) = (get("ZygOS"), get("Nebula"), get("AC_rss"));
    if zygos > 0.0 && nebula > 0.0 {
        println!(
            "\nAC_rss vs ZygOS: {:.1}x (paper: 24.6x) | AC_rss vs Nebula: {:.2}x (paper: 1.05x)",
            ac / zygos,
            ac / nebula
        );
    }

    // Optional run recording: re-executes the AC_rss cells with a
    // `TRACE/1.0` recorder attached and writes the artifact (replayable
    // with the `replay` binary; Summary granularity is the golden-trace
    // format). Files + stderr only — stdout stays byte-identical.
    if let Some(path) = record_out_arg() {
        let gran = record_granularity_arg();
        let specs = scenario_runs("fig10_comparison", quick).unwrap();
        let artifact = record_artifact("fig10_comparison", quick, gran, &specs);
        std::fs::write(&path, &artifact).expect("write record artifact");
        eprintln!(
            "record ({} AC_rss runs, {} granularity): {} bytes -> {}",
            specs.len(),
            gran.label(),
            artifact.len(),
            path.display()
        );
    }

    // Optional telemetry export: one traced AC_rss run on a shortened trace
    // (the figure itself is already printed; this is a debugging artifact).
    // Files + stderr only, so stdout stays byte-identical with or without
    // the flag.
    if let Some(path) = trace_out_arg() {
        let trace = fig10_trace(0.3, requests / 10);
        let mut tel = capture_telemetry(trace.len());
        Altocumulus::new(fig10_ac_rss()).run_traced(&trace, &mut tel);
        let probes = export_trace(&tel, &path);
        eprintln!(
            "trace (AC_rss, load 0.30, {} reqs): {} span points -> {} | {} probe samples -> {}",
            trace.len(),
            tel.spans.len(),
            path.display(),
            tel.probes.sample_count(),
            probes.display()
        );
        eprintln!("{}", phase_table(&tel).render());
    }
}
