//! Fig. 12 — (a) group-size exploration on 64 cores; (b) migration
//! effectiveness breakdown over 400 K RPCs for periods 40/200/400/1000 ns;
//! (c) false (harmful) migrations per period.
//!
//! Paper shape: 16-core groups are the sweet spot; at the best period the
//! effective ratio is ~42% with the remaining migrations harmless, and
//! false migrations are O(tens) out of 400 K.
//!
//! ```sh
//! cargo run -p bench --release --bin fig12_effectiveness
//! ```

use altocumulus::accounting::classify_effectiveness;
use altocumulus::{AcConfig, Altocumulus, Attachment};
use simcore::report::Table;
use simcore::time::SimDuration;
use simcore::{default_threads, parallel_map};
use workload::realworld::clustered_bursty;
use workload::ServiceDistribution;

const REQUESTS: usize = 400_000;

fn main() {
    let dist = ServiceDistribution::Exponential {
        mean: SimDuration::from_ns(850),
    };
    let slo = SimDuration::from_ns_f64(dist.mean().as_ns_f64() * 10.0);

    // ---- (a) group-size exploration on a 64-core system ----
    // Throughput@SLO per layout, swept per configuration because the two
    // attachments have very different per-request work (ACrss pays an
    // eRPC-class software stack; ACint is hardware-terminated) — the paper's
    // §VIII-B point that an ACrss manager caps out around 28 MRPS.
    println!("(a) group-size exploration, 64 cores, bursty flows:");
    let shapes: Vec<(usize, usize)> = vec![(16, 4), (8, 8), (4, 16), (2, 32)];
    let mut t = Table::new(&[
        "layout (groups x size)",
        "attach",
        "MRPS@SLO",
        "p99 there (us)",
    ]);
    for attach in [Attachment::Integrated, Attachment::RssPcie] {
        let rows = parallel_map(shapes.clone(), default_threads(), |_, (g, s)| {
            let mk = |g: usize, s: usize| {
                let mut cfg = match attach {
                    Attachment::Integrated => AcConfig::ac_int(g, s, dist.mean()),
                    Attachment::RssPcie => AcConfig::ac_rss(g, s, dist.mean()),
                };
                cfg.concurrency = cfg.concurrency.min(g.max(1)).min(cfg.bulk);
                cfg
            };
            // Per-request on-core work including the stack, for load scaling.
            let cfg0 = mk(g, s);
            let work = cfg0.stack.rx(300) + dist.mean() + cfg0.stack.tx(64);
            let workers = (64 - g) as f64;
            let mut best = (0.0f64, SimDuration::ZERO);
            for load in [0.3, 0.45, 0.6, 0.7, 0.8, 0.9] {
                let rate = load * workers / work.as_secs_f64();
                let trace = clustered_bursty(dist, rate, 16, 1, 250_000, 31);
                let r = Altocumulus::new(mk(g, s)).run_detailed(&trace);
                let mrps = r.system.throughput_rps() / 1e6;
                if r.system.p99() <= slo && mrps > best.0 {
                    best = (mrps, r.system.p99());
                }
            }
            ((g, s), best)
        });
        for ((g, s), (mrps, p99)) in rows {
            t.row(&[
                &format!("{g} x {s}"),
                attach.label(),
                &format!("{mrps:.1}"),
                &format!("{:.2}", p99.as_us_f64()),
            ]);
        }
    }
    t.print();

    // ---- (b)+(c) migration-effectiveness breakdown, 256 cores ----
    println!("\n(b) migration effectiveness over {REQUESTS} RPCs (256 cores, 16x16):");
    let rate256 = 0.70 * 256.0 / dist.mean().as_secs_f64();
    let trace = clustered_bursty(dist, rate256, 32, 1, REQUESTS, 37);
    let baseline = {
        let mut cfg = AcConfig::ac_int(16, 16, dist.mean());
        cfg.migration_enabled = false;
        Altocumulus::new(cfg).run_detailed(&trace)
    };
    let periods = [40u64, 200, 400, 1000];
    let runs = parallel_map(periods.to_vec(), default_threads(), |_, p| {
        let mut cfg = AcConfig::ac_int(16, 16, dist.mean());
        cfg.period = SimDuration::from_ns(p);
        let r = Altocumulus::new(cfg).run_detailed(&trace);
        (p, r)
    });

    let mut t2 = Table::new(&[
        "period_ns",
        "migrated",
        "Eff.",
        "InEff. w/o harm",
        "InEff. w/o benefit",
        "False",
        "eff.ratio",
    ]);
    let mut false_rows = Vec::new();
    for (p, r) in &runs {
        let migrated: std::collections::HashSet<usize> = r
            .system
            .completions
            .iter()
            .filter(|c| c.migrated)
            .map(|c| c.id.0 as usize)
            .collect();
        let b = classify_effectiveness(&baseline.system, &r.system, &migrated, trace.len(), slo);
        false_rows.push((*p, b.false_harmful));
        t2.row(&[
            &p.to_string(),
            &b.total().to_string(),
            &b.effective.to_string(),
            &b.ineffective_no_harm.to_string(),
            &b.ineffective_no_benefit.to_string(),
            &b.false_harmful.to_string(),
            &format!("{:.1}%", b.effective_ratio() * 100.0),
        ]);
    }
    t2.print();

    println!("\n(c) false (harmful) migrations per period:");
    let mut t3 = Table::new(&["period_ns", "false migrations"]);
    for (p, f) in false_rows {
        t3.row(&[&p.to_string(), &f.to_string()]);
    }
    t3.print();

    println!(
        "\nbaseline (no migration): p99 {:.2}us, viol {:.3}%",
        baseline.system.p99().as_us_f64(),
        baseline.system.violation_ratio(slo) * 100.0
    );
}
