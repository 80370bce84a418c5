//! The full offline→online pipeline of the paper's Fig. 5: measure
//! first-violation thresholds in simulation, fit the Eq. 2 model, feed it to
//! the Altocumulus runtime, and verify it behaves sensibly online.

use altocumulus::{AcConfig, Altocumulus, ThresholdPolicy};
use queueing::erlang::expected_queue_len;
use queueing::threshold::ThresholdModel;
use schedulers::ideal::{CentralQueue, CentralQueueConfig};
use simcore::time::SimDuration;
use workload::{poisson_trace, ServiceDistribution};

fn measure_threshold_points(cores: usize, loads: &[f64]) -> Vec<(f64, f64)> {
    let dist = ServiceDistribution::Fixed(SimDuration::from_us(1));
    let slo = SimDuration::from_us(10);
    let mut pts = Vec::new();
    for &load in loads {
        let trace = poisson_trace(dist, load, cores, 250_000, 64, 5);
        let offered = trace.offered_load(cores) * cores as f64;
        let r = CentralQueue::new(CentralQueueConfig::ideal(cores)).run_instrumented(&trace);
        if let Some(t) = r.first_violation_queue_len(&trace, slo) {
            pts.push((offered, t as f64));
        }
    }
    pts
}

#[test]
fn offline_calibration_produces_usable_model() {
    let cores = 16;
    let pts = measure_threshold_points(cores, &[0.97, 0.98, 0.99, 0.995]);
    assert!(pts.len() >= 2, "need violating loads to calibrate");
    let model = ThresholdModel::fit(cores, &pts);

    // The fitted threshold must land between 1 and the naive upper bound
    // over the calibrated range, and track E[Nq].
    for &(offered, measured) in &pts {
        let t = model.expected_threshold(cores, offered);
        assert!(t >= 1.0);
        assert!(
            t < queueing::naive_upper_bound(cores, 10.0) as f64,
            "threshold {t} should undercut k*L+1"
        );
        // Within 3x of the measurement (linear fit over few points).
        assert!(
            t / measured < 3.0 && measured / t < 3.0,
            "t={t} vs measured={measured}"
        );
    }
    // And correlate positively with E[Nq].
    let lo = model.expected_threshold(cores, pts[0].0);
    let hi = model.expected_threshold(cores, pts[pts.len() - 1].0);
    assert!(hi >= lo);
    assert!(expected_queue_len(cores, pts[pts.len() - 1].0) >= expected_queue_len(cores, pts[0].0));
}

#[test]
fn calibrated_model_drives_runtime() {
    let cores = 16;
    let pts = measure_threshold_points(cores, &[0.97, 0.98, 0.99, 0.995]);
    let model = ThresholdModel::fit(cores, &pts);

    let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
    let trace = poisson_trace(dist, 0.85, 64, 50_000, 6, 9);

    let mut cfg = AcConfig::ac_int(4, 16, dist.mean());
    cfg.threshold = ThresholdPolicy::Model(model);
    let with_model = Altocumulus::new(cfg.clone()).run_detailed(&trace);
    let mut off = cfg;
    off.migration_enabled = false;
    let baseline = Altocumulus::new(off).run_detailed(&trace);

    assert!(with_model.stats.migrated_requests > 0);
    assert!(
        with_model.system.p99() <= baseline.system.p99(),
        "calibrated model should not hurt the tail: {} vs {}",
        with_model.system.p99(),
        baseline.system.p99()
    );
}

#[test]
fn accuracy_and_effectiveness_are_consistent() {
    let dist = ServiceDistribution::Exponential {
        mean: SimDuration::from_ns(850),
    };
    let trace = poisson_trace(dist, 0.9, 64, 80_000, 8, 11);
    let slo = SimDuration::from_ns_f64(dist.mean().as_ns_f64() * 10.0);

    let cfg = AcConfig::ac_int(4, 16, dist.mean());
    let with = Altocumulus::new(cfg.clone()).run_detailed(&trace);
    let mut off = cfg;
    off.migration_enabled = false;
    let base = Altocumulus::new(off).run_detailed(&trace);

    let acc =
        altocumulus::prediction_accuracy(&base.system, &with.stats.predicted, trace.len(), slo);
    assert!((0.0..=1.0).contains(&acc), "accuracy {acc} out of range");

    let migrated: std::collections::HashSet<usize> = with
        .system
        .completions
        .iter()
        .filter(|c| c.migrated)
        .map(|c| c.id.0 as usize)
        .collect();
    let b = altocumulus::classify_effectiveness(
        &base.system,
        &with.system,
        &migrated,
        trace.len(),
        slo,
    );
    assert_eq!(
        b.total() as usize,
        migrated.len(),
        "every migration classified"
    );
}
