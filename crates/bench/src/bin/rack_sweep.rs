//! Rack sweep — rack-level SLO violations and p99 vs offered load for
//! AC-per-server against d-FCFS/JBSQ-per-server, plus a whole-server-death
//! takeover cell.
//!
//! Every cell runs the *same* rack-wide workload (the paper's Bimodal mix)
//! through [`altocumulus::rack::RackWorld`]: a RackSched-style two-level
//! scheduler (power-of-k least-load + per-connection affinity at the ToR,
//! the intra-server scheduler under test inside each server) behind a
//! modeled ToR hop (500 ns, 100 Gbit/s downlinks). The death cell hardens
//! AC's resilience policy, installs per-server stress fault plans and kills
//! one server halfway through the run — its unfinished requests retry
//! through the ToR onto the survivors, so `lost` must stay 0 and every
//! request completes exactly once.
//!
//! Latency is rack-side: ToR arrival → handler finish, so it includes the
//! switch hop, downlink queueing and any death/retry penalty. A request
//! that never completes is an SLO violation by definition, so the reported
//! violation ratio is `(late + lost) / offered` — comparable across
//! systems with different loss behavior.
//!
//! Output is deterministic (fixed seeds, serial routing pass, order-
//! preserving parallel sweep): byte-identical across invocations and
//! `SWEEP_THREADS` values. CI pins the `--quick` stdout by sha256 and a
//! recorded TRACE/1.0 golden of every AC server's sub-run.
//!
//! ```sh
//! cargo run -p bench --release --bin rack_sweep            # 16/64 servers
//! cargo run -p bench --release --bin rack_sweep -- --quick # CI smoke
//! ```

use altocumulus::rack::ServerSpec;
use altocumulus::{RackConfig, RackResult};
use bench::has_flag;
use bench::record::{
    rack_shape, rack_sweep_cell, record_artifact, record_granularity_arg, record_out_arg,
    scenario_runs,
};
use schedulers::dfcfs::DFcfsConfig;
use schedulers::jbsq::{JbsqConfig, JbsqVariant};
use simcore::faults::FaultPlan;
use simcore::report::Table;
use simcore::time::{SimDuration, SimTime};
use simcore::{default_threads, parallel_map};
use workload::trace::Trace;

struct Cell {
    system: &'static str,
    servers: usize,
    load: f64,
    death: bool,
    offered: usize,
    completed: usize,
    lost: u64,
    p99: SimDuration,
    violations: usize,
    rebinds: u64,
    tor_queue: SimDuration,
    events: u64,
}

/// Builds the rack + workload for one cell: the AC rack comes verbatim
/// from the shared registry constructor (so recordings replay); baselines
/// reuse its ToR, routing policy, seed and death schedule with their own
/// per-server system and (for the death cell) an all-cores stress plan.
fn rack_for(
    system: &'static str,
    shape: (usize, usize, usize),
    load: f64,
    requests: usize,
    death: bool,
) -> (RackConfig, Trace) {
    let (ac_rack, trace) = rack_sweep_cell(shape, load, requests, death);
    if system == "AC" {
        return (ac_rack, trace);
    }
    let (servers, groups, group_size) = shape;
    let cores = groups * group_size;
    let mut rack = ac_rack;
    rack.template = match system {
        "d-FCFS" => ServerSpec::DFcfs(DFcfsConfig::rss(cores)),
        "Nebula" => ServerSpec::Jbsq(
            JbsqVariant::Nebula,
            JbsqConfig::of(JbsqVariant::Nebula, cores),
        ),
        other => panic!("unknown system {other}"),
    };
    if death {
        // Same stress intensity as the AC plans, over the baselines' flat
        // core map (no manager tiles to exclude).
        let horizon = trace.requests().last().map_or(SimTime::ZERO, |r| r.arrival);
        let workers: Vec<usize> = (0..cores).collect();
        rack.server_faults = (0..servers)
            .map(|s| FaultPlan::stress(0xAC50 + s as u64, &workers, 0.25, horizon))
            .collect();
    }
    (rack, trace)
}

fn run_cell(
    system: &'static str,
    shape: (usize, usize, usize),
    load: f64,
    requests: usize,
    death: bool,
    slo: SimDuration,
) -> Cell {
    let (rack, trace) = rack_for(system, shape, load, requests, death);
    let world = altocumulus::RackWorld::new(rack);
    // Inner per-server parallelism stays off: the sweep parallelizes over
    // cells (and the result is byte-identical either way).
    let r: RackResult = world.run(&trace, 1);
    let late = r
        .system
        .completions
        .iter()
        .filter(|c| c.latency() > slo)
        .count();
    Cell {
        system,
        servers: shape.0,
        load,
        death,
        offered: r.offered,
        completed: r.system.completions.len(),
        lost: r.routing.lost,
        p99: r.system.p99(),
        violations: late + (r.offered - r.system.completions.len()),
        rebinds: r.routing.affinity_rebinds + r.routing.dead_rebinds,
        tor_queue: SimDuration::from_ps(r.routing.tor_max_queue_ps),
        events: r.events,
    }
}

fn main() {
    let quick = has_flag("--quick");
    let slo = SimDuration::from_us(300);
    let systems: [&'static str; 3] = ["AC", "d-FCFS", "Nebula"];
    // (servers, groups, group_size, requests) sweeps: the quick rack is 4
    // small servers; the full sweep spans 16 and 64 servers of 256 cores
    // (4k and 16k simulated cores).
    let shapes: Vec<((usize, usize, usize), usize)> = if quick {
        vec![(rack_shape::QUICK, rack_shape::requests(true))]
    } else {
        vec![
            (rack_shape::FULL, rack_shape::requests(false)),
            ((64, 16, 16), 480_000),
        ]
    };
    let loads = rack_shape::loads(quick);

    let total_cores = |s: (usize, usize, usize)| s.0 * s.1 * s.2;
    println!(
        "Rack sweep: {} servers, Bimodal(paper), ToR 500ns/100G, SLO p99 <= {}us{}",
        shapes
            .iter()
            .map(|&(s, _)| format!("{}x{} ({} cores)", s.0, s.1 * s.2, total_cores(s)))
            .collect::<Vec<_>>()
            .join(" + "),
        slo.as_us_f64(),
        if quick { " [quick]" } else { "" }
    );
    println!("two-level: power-of-2 least-load + connection affinity over per-server scheduling");
    println!("death cells kill server N/2 mid-run under per-server stress plans\n");

    type Job = (&'static str, (usize, usize, usize), f64, usize, bool);
    let jobs: Vec<Job> = shapes
        .iter()
        .flat_map(|&(shape, requests)| {
            systems.iter().flat_map(move |&sys| {
                loads
                    .iter()
                    .map(move |&l| (sys, shape, l, requests, false))
                    .chain(std::iter::once((
                        sys,
                        shape,
                        rack_shape::DEATH_LOAD,
                        requests,
                        true,
                    )))
            })
        })
        .collect();
    let cells = parallel_map(jobs, default_threads(), |_, (sys, shape, l, n, d)| {
        run_cell(sys, shape, l, n, d, slo)
    });

    let csv = has_flag("--csv");
    let mut t = Table::new(&[
        "system",
        "servers",
        "load",
        "death",
        "completed%",
        "lost",
        "p99_us",
        "viol%",
        "rebinds",
        "torq_ns",
        "events",
    ]);
    for c in &cells {
        t.row(&[
            c.system,
            &c.servers.to_string(),
            &format!("{:.2}", c.load),
            if c.death { "yes" } else { "no" },
            &format!("{:.1}", 100.0 * c.completed as f64 / c.offered as f64),
            &c.lost.to_string(),
            &format!("{:.2}", c.p99.as_us_f64()),
            &format!("{:.2}", 100.0 * c.violations as f64 / c.offered as f64),
            &c.rebinds.to_string(),
            &format!("{:.0}", c.tor_queue.as_ns_f64()),
            &c.events.to_string(),
        ]);
    }
    if csv {
        print!("{}", t.to_csv());
    } else {
        t.print();
    }

    // Headline: the two-level AC rack must violate no more than the best
    // baseline rack in every cell, including whole-server death.
    let viol = |sys: &str, servers: usize, l: f64, d: bool| {
        cells
            .iter()
            .find(|c| c.system == sys && c.servers == servers && c.load == l && c.death == d)
            .map(|c| c.violations as f64 / c.offered as f64)
            .unwrap_or(1.0)
    };
    let worst = cells
        .iter()
        .filter(|c| c.system == "AC")
        .map(|c| {
            viol("AC", c.servers, c.load, c.death)
                - viol("d-FCFS", c.servers, c.load, c.death)
                    .min(viol("Nebula", c.servers, c.load, c.death))
        })
        .fold(f64::MIN, f64::max);
    println!(
        "\nAC worst-case violation gap vs best baseline rack: {:+.2} pp ({})",
        worst * 100.0,
        if worst <= 0.0 {
            "no worse in every cell incl. server death"
        } else {
            "worse somewhere"
        }
    );

    // Optional run recording (see fig10_comparison): re-executes every AC
    // server's sub-run with a `TRACE/1.0` recorder attached. Files +
    // stderr only — stdout stays byte-identical.
    if let Some(path) = record_out_arg() {
        let gran = record_granularity_arg();
        let specs = scenario_runs("rack_sweep", quick).unwrap();
        let artifact = record_artifact("rack_sweep", quick, gran, &specs);
        std::fs::write(&path, &artifact).expect("write record artifact");
        eprintln!(
            "record ({} AC server sub-runs, {} granularity): {} bytes -> {}",
            specs.len(),
            gran.label(),
            artifact.len(),
            path.display()
        );
    }
}
