//! Ablation study of Altocumulus' design choices (DESIGN.md §"Key design
//! decisions"): the Hill/Valley/Pairing pattern classifier, the Algorithm-1
//! line-8 migration guard, and the at-most-once/threshold machinery, each
//! toggled on the same bursty 256-core workload.
//!
//! ```sh
//! cargo run -p bench --release --bin ablation_design
//! ```

use altocumulus::config::PatternPolicy;
use altocumulus::{AcConfig, Altocumulus};
use simcore::report::Table;
use simcore::time::SimDuration;
use simcore::{default_threads, parallel_map};
use workload::realworld::clustered_bursty;
use workload::ServiceDistribution;

fn main() {
    let dist = ServiceDistribution::Exponential {
        mean: SimDuration::from_ns(850),
    };
    let slo = SimDuration::from_ns_f64(dist.mean().as_ns_f64() * 10.0);
    let rate = 0.70 * 256.0 / dist.mean().as_secs_f64();
    let trace = clustered_bursty(dist, rate, 32, 1, 400_000, 47);
    println!(
        "Ablations on 256 cores (16x16), bursty flows, load {:.2}, SLO {}\n",
        trace.offered_load(256),
        slo
    );

    let base = AcConfig::ac_int(16, 16, dist.mean());
    let variants: Vec<(&str, AcConfig)> = vec![
        ("full design", base.clone()),
        ("no pattern classifier (threshold only)", {
            let mut c = base.clone();
            c.patterns = PatternPolicy::ThresholdOnly;
            c
        }),
        ("no migration guard", {
            let mut c = base.clone();
            c.guard_enabled = false;
            c
        }),
        ("no patterns + no guard", {
            let mut c = base.clone();
            c.patterns = PatternPolicy::ThresholdOnly;
            c.guard_enabled = false;
            c
        }),
        ("migrations disabled", {
            let mut c = base.clone();
            c.migration_enabled = false;
            c
        }),
    ];

    let rows = parallel_map(variants, default_threads(), |_, (name, cfg)| {
        let r = Altocumulus::new(cfg).run_detailed(&trace);
        (name, r)
    });

    let mut t = Table::new(&[
        "variant",
        "p99_us",
        "viol%",
        "migrated",
        "msgs",
        "guard-blocked",
        "nacked",
    ]);
    for (name, r) in &rows {
        t.row(&[
            name,
            &format!("{:.2}", r.system.p99().as_us_f64()),
            &format!("{:.3}", r.system.violation_ratio(slo) * 100.0),
            &r.stats.migrated_requests.to_string(),
            &r.stats.migrate_messages.to_string(),
            &r.stats.guard_blocked.to_string(),
            &r.stats.nacked_requests.to_string(),
        ]);
    }
    t.print();
}
