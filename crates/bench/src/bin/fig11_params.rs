//! Fig. 11 — impact of migration Bulk (8–40) and Period (10–1000 ns) on
//! SLO violations and p99 latency, on a 256-core Altocumulus (16 groups of
//! 16) at high load.
//!
//! Paper shape: Bulk=16 eliminates (nearly) all violations; periods from
//! 10–400 ns perform similarly while 1000 ns is too lazy and loses ~1/3 of
//! the migration opportunity; p99 strongly tracks the violation count.
//!
//! ```sh
//! cargo run -p bench --release --bin fig11_params
//! ```

use altocumulus::{AcConfig, Altocumulus};
use simcore::report::Table;
use simcore::time::SimDuration;
use simcore::{default_threads, parallel_map};
use workload::realworld::clustered_bursty;
use workload::ServiceDistribution;

const GROUPS: usize = 16;
const GROUP_SIZE: usize = 16;
const REQUESTS: usize = 400_000; // the paper replays 400K RPCs

fn main() {
    let cores = GROUPS * GROUP_SIZE;
    // Mean service ~630ns as in the paper's experiment (§VIII-C).
    let dist = ServiceDistribution::Exponential {
        mean: SimDuration::from_ns(630),
    };
    let slo = SimDuration::from_ns_f64(dist.mean().as_ns_f64() * 10.0);
    let load = 0.70;
    // 32 independently-bursty flows (one connection each) hashed across the
    // 16 NetRX queues: hot flows overload individual groups while the
    // system keeps headroom — the temporal imbalance migration absorbs.
    let rate = load * cores as f64 / dist.mean().as_secs_f64();
    let trace = clustered_bursty(dist, rate, 32, 1, REQUESTS, 23);
    println!(
        "Fig. 11: 256 cores (16x16), mean service 630ns, load {:.2}, SLO {}\n",
        trace.offered_load(cores),
        slo
    );

    // (a) Bulk sweep at period 200ns.
    let bulks = [8usize, 16, 24, 32, 40];
    let bulk_rows = parallel_map(bulks.to_vec(), default_threads(), |_, bulk| {
        let mut cfg = AcConfig::ac_int(GROUPS, GROUP_SIZE, dist.mean());
        cfg.bulk = bulk;
        cfg.concurrency = cfg.concurrency.min(bulk);
        let r = Altocumulus::new(cfg).run_detailed(&trace);
        (bulk, r)
    });
    println!("(a) Bulk sweep (period 200ns):");
    let mut t = Table::new(&["bulk", "violations", "viol%", "p99_us", "migrated", "msgs"]);
    for (bulk, r) in &bulk_rows {
        let v = r.system.violation_ratio(slo);
        t.row(&[
            &bulk.to_string(),
            &format!("{:.0}", v * REQUESTS as f64),
            &format!("{:.3}", v * 100.0),
            &format!("{:.2}", r.system.p99().as_us_f64()),
            &r.stats.migrated_requests.to_string(),
            &r.stats.migrate_messages.to_string(),
        ]);
    }
    t.print();

    // (b) Period sweep at bulk 16, plus the no-migration baseline; the
    // baseline rides in the same fan-out (`None` = migration disabled).
    let periods = [10u64, 40, 100, 200, 400, 1000];
    let mut period_jobs: Vec<Option<u64>> = vec![None];
    period_jobs.extend(periods.iter().map(|&p| Some(p)));
    let mut all_rows = parallel_map(period_jobs, default_threads(), |_, job| {
        let mut cfg = AcConfig::ac_int(GROUPS, GROUP_SIZE, dist.mean());
        match job {
            Some(p) => cfg.period = SimDuration::from_ns(p),
            None => cfg.migration_enabled = false,
        }
        let r = Altocumulus::new(cfg).run_detailed(&trace);
        (job, r)
    });
    let baseline = all_rows.remove(0).1;
    let period_rows: Vec<(u64, _)> = all_rows
        .into_iter()
        .map(|(job, r)| (job.expect("baseline was removed"), r))
        .collect();

    println!("\n(b) Period sweep (bulk 16):");
    let mut t2 = Table::new(&[
        "period_ns",
        "violations",
        "viol%",
        "p99_us",
        "migrated",
        "nacked",
    ]);
    let bl = baseline.system.violation_ratio(slo);
    t2.row(&[
        "no-migration",
        &format!("{:.0}", bl * REQUESTS as f64),
        &format!("{:.3}", bl * 100.0),
        &format!("{:.2}", baseline.system.p99().as_us_f64()),
        "0",
        "0",
    ]);
    for (p, r) in &period_rows {
        let v = r.system.violation_ratio(slo);
        t2.row(&[
            &p.to_string(),
            &format!("{:.0}", v * REQUESTS as f64),
            &format!("{:.3}", v * 100.0),
            &format!("{:.2}", r.system.p99().as_us_f64()),
            &r.stats.migrated_requests.to_string(),
            &r.stats.nacked_requests.to_string(),
        ]);
    }
    t2.print();
}
