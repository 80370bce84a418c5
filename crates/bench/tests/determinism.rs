//! Fixed-seed determinism regressions: a sweep must produce bit-identical
//! results no matter how many worker threads execute it, and the calendar
//! event queue must not perturb any simulated numbers.

use altocumulus::{AcConfig, AcResult, Altocumulus, Telemetry};
use bench::{capture_telemetry, poisson_trace};
use rpcstack::stack::StackModel;
use schedulers::common::RpcSystem;
use schedulers::jbsq::{Jbsq, JbsqVariant};
use schedulers::stealing::{StealingConfig, WorkStealing};
use simcore::time::SimDuration;
use workload::ServiceDistribution;

const CORES: usize = 16;
const REQUESTS: usize = 20_000;

/// A fig10-style mini sweep: three systems (including the work-stealing one,
/// whose victim selection consumes scheduler RNG) across three loads, one
/// job per (system, load) cell. Returns exact picosecond p99s and
/// completion counts so any nondeterminism shows up bit-for-bit.
fn sweep(threads: usize) -> Vec<(u64, usize)> {
    let dist = ServiceDistribution::Exponential {
        mean: SimDuration::from_us(1),
    };
    let loads = [0.5, 0.7, 0.9];
    let jobs: Vec<(usize, f64)> = (0..3)
        .flat_map(|s| loads.iter().map(move |&l| (s, l)))
        .collect();
    simcore::parallel_map(jobs, threads, |_, (s, load)| {
        let trace = poisson_trace(dist, load, CORES, REQUESTS, 64, 33);
        let mut sys: Box<dyn RpcSystem> = match s {
            0 => Box::new(Jbsq::new(JbsqVariant::Nebula, CORES)),
            1 => Box::new(WorkStealing::new(StealingConfig::zygos(CORES))),
            _ => Box::new(Altocumulus::new(AcConfig::ac_rss(1, CORES, dist.mean()))),
        };
        let r = sys.run(&trace);
        (r.p99().as_ps(), r.completions.len())
    })
}

#[test]
fn sweep_identical_across_thread_counts() {
    let one = sweep(1);
    assert_eq!(one.len(), 9);
    for threads in [2, 4, 8] {
        assert_eq!(one, sweep(threads), "results diverged at {threads} threads");
    }
}

/// Asserts every simulated number of two runs is identical — completions
/// (exact latencies, cores, migrated flags), migration counters, and the
/// event-loop summary. Any perturbation from telemetry shows up here.
fn assert_runs_identical(off: &AcResult, on: &AcResult) {
    assert_eq!(off.system.completions, on.system.completions);
    assert_eq!(off.system.end_time, on.system.end_time);
    assert_eq!(
        off.summary.events, on.summary.events,
        "event count diverged"
    );
    assert_eq!(off.summary.peak_queue, on.summary.peak_queue);
    assert_eq!(off.summary.end_time, on.summary.end_time);
    assert_eq!(off.stats.ticks, on.stats.ticks);
    assert_eq!(off.stats.migrate_messages, on.stats.migrate_messages);
    assert_eq!(off.stats.migrated_requests, on.stats.migrated_requests);
    assert_eq!(off.stats.nacked_messages, on.stats.nacked_messages);
    assert_eq!(off.stats.nacked_requests, on.stats.nacked_requests);
    assert_eq!(off.stats.update_messages, on.stats.update_messages);
    assert_eq!(off.stats.guard_blocked, on.stats.guard_blocked);
}

/// The issue's determinism regression: the fig10 configuration (AC_rss,
/// nanoRPC stack, bimodal-paper workload) run with telemetry off vs. on
/// (full spans + probes) must produce byte-identical figure output — same
/// completions, same stats, same event counts.
#[test]
fn fig10_config_identical_with_telemetry_on() {
    let dist = ServiceDistribution::bimodal_paper();
    let trace = poisson_trace(dist, 0.8, CORES, 40_000, 128, 10);
    let mut cfg = AcConfig::ac_rss(1, CORES, dist.mean());
    cfg.stack = StackModel::nano_rpc();

    let off = Altocumulus::new(cfg.clone()).run_detailed(&trace);
    let mut tel = capture_telemetry(trace.len());
    let on = Altocumulus::new(cfg).run_traced(&trace, &mut tel);

    assert_runs_identical(&off, &on);
    assert!(!tel.spans.is_empty(), "the traced run must capture spans");
    // One group => the periodic runtime never runs (nothing to migrate to),
    // so the probe samplers — which ride the tick — correctly stay silent.
    assert_eq!(tel.probes.sample_count(), 0);
}

/// Same invariant under the fig13a flavor: multi-group AC_int where the
/// migration machinery (MIGRATE/ACK/NACK, staging, dormancy wakes) is
/// exercised, so every telemetry hook sits on a taken code path.
#[test]
fn fig13a_config_identical_with_telemetry_on() {
    let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
    let trace = poisson_trace(dist, 0.85, 64, 40_000, 5, 77);
    let mut cfg = AcConfig::ac_int(4, 16, dist.mean());
    cfg.period = SimDuration::from_ns(100);

    let off = Altocumulus::new(cfg.clone()).run_detailed(&trace);
    let mut tel: Telemetry = capture_telemetry(trace.len());
    let on = Altocumulus::new(cfg).run_traced(&trace, &mut tel);

    assert_runs_identical(&off, &on);
    assert!(
        tel.probes.sample_count() > 0,
        "multi-group runs tick, so probes must sample"
    );
    assert!(
        on.stats.migrated_requests > 0,
        "config must exercise migration for the hooks to be covered"
    );
    assert_eq!(
        on.stats.migrated_per_group.iter().sum::<u64>(),
        on.stats.migrated_requests
    );
}
