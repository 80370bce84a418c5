//! Fig. 3 — 99th-percentile latency vs offered load for per-request
//! scheduling overheads from 5 ns to 360 ns on a 64-core system.
//!
//! Paper shape: at a 5 µs p99 target, cutting the overhead from 360 ns
//! (a work-stealing operation) to 5 ns improves sustainable load ~3×.
//!
//! ```sh
//! cargo run -p bench --release --bin fig03_sched_overhead
//! ```

use bench::poisson_trace;
use schedulers::common::RpcSystem;
use schedulers::ideal::{CentralQueue, CentralQueueConfig};
use schedulers::sweep::throughput_at_slo;
use simcore::report::Table;
use simcore::time::SimDuration;
use simcore::{default_threads, parallel_map};
use workload::ServiceDistribution;

fn main() {
    let cores = 64;
    let dist = ServiceDistribution::Exponential {
        mean: SimDuration::from_us(1),
    };
    let overheads_ns = [5u64, 45, 90, 135, 180, 360];
    let loads = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95];
    let slo = SimDuration::from_us(5);
    let requests = 300_000;

    println!("Fig. 3: p99 (us) vs load, 64 cores, 1us mean service, overhead added per request\n");

    // One job per (overhead, load) cell: finer grain than one job per
    // overhead, so the deterministic executor can balance the expensive
    // high-load simulations across workers.
    let jobs: Vec<(u64, f64)> = overheads_ns
        .iter()
        .flat_map(|&oh| loads.iter().map(move |&load| (oh, load)))
        .collect();
    let cells = parallel_map(jobs, default_threads(), |_, (oh, load)| {
        let trace = poisson_trace(dist, load, cores, requests, 256, 90);
        let mut sys = CentralQueue::new(CentralQueueConfig {
            cores,
            sched_overhead: SimDuration::from_ns(oh),
        });
        sys.run(&trace).p99()
    });
    let series: Vec<&[SimDuration]> = cells.chunks(loads.len()).collect();

    let mut header: Vec<String> = vec!["load".into()];
    header.extend(overheads_ns.iter().map(|o| format!("p99us@{o}ns")));
    let hdr: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&hdr);
    for (li, &load) in loads.iter().enumerate() {
        let mut row: Vec<String> = vec![format!("{load:.2}")];
        for s in &series {
            row.push(format!("{:.2}", s[li].as_us_f64()));
        }
        t.row_owned(row);
    }
    t.print();

    // Throughput@SLO per overhead (the ~3x headline). Each bisection is
    // serial in itself, so fan the independent searches out instead.
    println!("\nmax load with p99 <= 5us:");
    let bests = parallel_map(overheads_ns.to_vec(), default_threads(), |_, oh| {
        throughput_at_slo(
            |load| {
                let trace = poisson_trace(dist, load, cores, requests, 256, 90);
                let mut sys = CentralQueue::new(CentralQueueConfig {
                    cores,
                    sched_overhead: SimDuration::from_ns(oh),
                });
                sys.run(&trace).p99()
            },
            slo,
            0.05,
            0.99,
            0.01,
        )
    });
    let mut t2 = Table::new(&["overhead_ns", "load@SLO"]);
    for (&oh, best) in overheads_ns.iter().zip(&bests) {
        t2.row(&[
            &oh.to_string(),
            &best.map_or("-".to_string(), |b| format!("{b:.2}")),
        ]);
    }
    t2.print();
}
