//! Cross-crate integration: every system consumes the identical trace and
//! produces complete, deterministic, sanely-ordered results.

use altocumulus::{AcConfig, Altocumulus};
use schedulers::central::{CentralConfig, CentralDispatch};
use schedulers::common::RpcSystem;
use schedulers::dfcfs::{DFcfs, DFcfsConfig};
use schedulers::ideal::{CentralQueue, CentralQueueConfig};
use schedulers::jbsq::{Jbsq, JbsqVariant};
use schedulers::stealing::{StealingConfig, WorkStealing};
use simcore::time::SimDuration;
use workload::{poisson_trace, PoissonProcess, ServiceDistribution, TraceBuilder};

fn systems(cores: usize, mean: SimDuration) -> Vec<Box<dyn RpcSystem>> {
    vec![
        Box::new(DFcfs::new(DFcfsConfig::rss(cores))),
        Box::new(WorkStealing::new(StealingConfig::zygos(cores))),
        Box::new(CentralDispatch::new(CentralConfig::shinjuku(cores))),
        Box::new(Jbsq::new(JbsqVariant::RpcValet, cores)),
        Box::new(Jbsq::new(JbsqVariant::Nebula, cores)),
        Box::new(Jbsq::new(JbsqVariant::NanoPu, cores)),
        Box::new(CentralQueue::new(CentralQueueConfig::ideal(cores))),
        Box::new(Altocumulus::new(AcConfig::ac_int(cores / 8, 8, mean))),
        Box::new(Altocumulus::new(AcConfig::ac_rss(cores / 8, 8, mean))),
    ]
}

#[test]
fn every_system_completes_every_request() {
    let dist = ServiceDistribution::bimodal_paper();
    let trace = poisson_trace(dist, 0.5, 16, 8_000, 64, 101);
    for mut sys in systems(16, dist.mean()) {
        let r = sys.run(&trace);
        assert_eq!(
            r.completions.len(),
            trace.len(),
            "{} lost requests",
            sys.name()
        );
        // Every request id completes exactly once.
        let mut seen = vec![false; trace.len()];
        for c in &r.completions {
            let i = c.id.0 as usize;
            assert!(!seen[i], "{}: request {i} completed twice", sys.name());
            seen[i] = true;
        }
        // Latency is bounded below by the pre-drawn service time.
        for c in &r.completions {
            let req = &trace.requests()[c.id.0 as usize];
            assert!(
                c.latency() >= req.service,
                "{}: latency {} below service {}",
                sys.name(),
                c.latency(),
                req.service
            );
        }
    }
}

#[test]
fn identical_traces_identical_results() {
    let dist = ServiceDistribution::Exponential {
        mean: SimDuration::from_us(1),
    };
    let rate = PoissonProcess::rate_for_load(0.7, 16, dist.mean());
    let mk = || {
        TraceBuilder::new(PoissonProcess::new(rate), dist)
            .requests(5_000)
            .seed(55)
            .build()
    };
    let (a, b) = (mk(), mk());
    assert_eq!(a, b, "trace generation must be deterministic");
    for (mut s1, mut s2) in systems(16, dist.mean())
        .into_iter()
        .zip(systems(16, dist.mean()))
    {
        let r1 = s1.run(&a);
        let r2 = s2.run(&b);
        assert_eq!(r1.p99(), r2.p99(), "{} not deterministic", s1.name());
        assert_eq!(r1.end_time, r2.end_time);
    }
}

#[test]
fn preemptive_systems_bound_the_bimodal_tail() {
    // With dispersed service times, the preemptive/pooled systems must beat
    // plain RSS by a wide margin at the tail.
    let dist = ServiceDistribution::bimodal_paper();
    let trace = poisson_trace(dist, 0.55, 16, 40_000, 64, 7);
    let rss = DFcfs::new(DFcfsConfig::rss(16)).run(&trace);
    let nanopu = Jbsq::new(JbsqVariant::NanoPu, 16).run(&trace);
    let slo = SimDuration::from_us(300);
    assert!(
        rss.violation_ratio(slo) > 5.0 * nanopu.violation_ratio(slo).max(0.005),
        "RSS {} vs nanoPU {}",
        rss.violation_ratio(slo),
        nanopu.violation_ratio(slo)
    );
}

#[test]
fn altocumulus_beats_rss_under_connection_skew() {
    let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
    let rate = PoissonProcess::rate_for_load(0.75, 64, dist.mean());
    let trace = TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(60_000)
        .connections(6) // heavy skew across 4 groups
        .seed(13)
        .build();
    let rss = DFcfs::new(DFcfsConfig::rss(64)).run(&trace);
    let ac = Altocumulus::new(AcConfig::ac_int(4, 16, dist.mean())).run(&trace);
    assert!(
        ac.p99() < rss.p99(),
        "AC p99 {} should beat skewed RSS {}",
        ac.p99(),
        rss.p99()
    );
}

#[test]
fn throughput_never_exceeds_capacity() {
    let dist = ServiceDistribution::Fixed(SimDuration::from_us(1));
    let trace = poisson_trace(dist, 0.9, 16, 30_000, 64, 17);
    let capacity_rps = 16.0 / dist.mean().as_secs_f64();
    for mut sys in systems(16, dist.mean()) {
        let r = sys.run(&trace);
        assert!(
            r.throughput_rps() <= capacity_rps * 1.01,
            "{} throughput {} exceeds capacity {}",
            sys.name(),
            r.throughput_rps(),
            capacity_rps
        );
    }
}
