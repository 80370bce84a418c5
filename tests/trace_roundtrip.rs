//! Persistence round-trips: traces written to disk drive identical
//! simulations after reload.

use schedulers::common::RpcSystem;
use schedulers::jbsq::{Jbsq, JbsqVariant};
use simcore::time::SimDuration;
use workload::trace::Trace;
use workload::{poisson_trace, PoissonProcess, ServiceDistribution, TraceBuilder};

#[test]
fn saved_trace_reproduces_simulation() {
    let dist = ServiceDistribution::bimodal_paper();
    let trace = poisson_trace(dist, 0.6, 16, 5_000, 64, 23);

    let mut buf = Vec::new();
    trace.save(&mut buf).expect("in-memory save");
    let reloaded = Trace::load(&buf[..]).expect("reload");
    assert_eq!(trace, reloaded);

    let a = Jbsq::new(JbsqVariant::Nebula, 16).run(&trace);
    let b = Jbsq::new(JbsqVariant::Nebula, 16).run(&reloaded);
    assert_eq!(a.p99(), b.p99());
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.completions.len(), b.completions.len());
}

#[test]
fn saved_trace_survives_tempfile() {
    let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
    let trace = TraceBuilder::new(PoissonProcess::new(5e6), dist)
        .requests(2_000)
        .seed(29)
        .classify_kvs(SimDuration::from_us(10))
        .build();
    let path = std::env::temp_dir().join(format!("ac_trace_{}.txt", std::process::id()));
    trace
        .save(std::fs::File::create(&path).expect("create"))
        .expect("save");
    let reloaded = Trace::load(std::fs::File::open(&path).expect("open")).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(trace, reloaded);
}

#[test]
fn merged_traces_drive_simulations() {
    let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
    let trace = workload::clustered_bursty(dist, 20e6, 4, 8, 20_000, 31);
    let r = Jbsq::new(JbsqVariant::NanoPu, 32).run(&trace);
    assert_eq!(r.completions.len(), trace.len());
}
