//! Hot-path measurement harness: wall time, events/sec and peak event-queue
//! population of whole runs — ALTOCUMULUS and Nebula on 64 cores (20 k
//! requests), the 16×16 and 32×32 meshes, the rack tier and the Fig. 10
//! line-up — emitted as `BENCH_hotpath.json` for before/after comparison
//! (see `bench_hotpath.sh`).
//!
//! Each case runs several iterations and reports the *fastest* wall time —
//! best-of is far more stable than a mean on a shared/noisy machine, and the
//! minimum is the closest observable to the true cost of the code.

use altocumulus::telemetry::phase_table;
use altocumulus::{AcConfig, Altocumulus, ControlPlane, RackResult, RackWorld};
use bench::record::{rack_shape, rack_sweep_cell};
use bench::{
    capture_telemetry, export_trace, fig10_system, poisson_trace, trace_out_arg, FIG10_CORES,
    FIG10_SYSTEMS,
};
use schedulers::common::RpcSystem;
use schedulers::jbsq::{Jbsq, JbsqVariant};
use simcore::time::SimDuration;
use std::time::Instant;
use workload::ServiceDistribution;

const ITERS: usize = 7;

struct Measured {
    wall_ms: f64,
    events: u64,
    peak_queue: usize,
}

fn trace(cores: usize, requests: usize, load: f64) -> workload::Trace {
    let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
    trace_of(dist, cores, requests, load, 16)
}

fn trace_of(
    dist: ServiceDistribution,
    cores: usize,
    requests: usize,
    load: f64,
    connections: u32,
) -> workload::Trace {
    poisson_trace(dist, load, cores, requests, connections, 1)
}

fn measure(cfg: &AcConfig, t: &workload::Trace) -> Measured {
    let mut best = Measured {
        wall_ms: f64::MAX,
        events: 0,
        peak_queue: 0,
    };
    for _ in 0..ITERS {
        let mut sys = Altocumulus::new(cfg.clone());
        let start = Instant::now();
        let r = sys.run_detailed(t);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r.system.completions.len(), t.len());
        best.wall_ms = best.wall_ms.min(ms);
        best.events = r.summary.events;
        best.peak_queue = r.summary.peak_queue;
    }
    best
}

/// Best-of-[`ITERS`] wall time of one whole rack run (routing pass, every
/// server simulation, merge) on one thread, with the run's result.
fn measure_rack(world: &RackWorld, t: &workload::Trace) -> (Measured, RackResult) {
    let mut best = f64::MAX;
    let mut last = None;
    for _ in 0..ITERS {
        let start = Instant::now();
        let r = world.run(t, 1);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    let r = last.expect("ITERS > 0");
    let m = Measured {
        wall_ms: best,
        events: r.events,
        peak_queue: r.peak_queue,
    };
    (m, r)
}

fn hw_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn emit(label: &str, m: &Measured, trailing_comma: bool) {
    let eps = m.events as f64 / (m.wall_ms / 1e3);
    println!("  \"{label}\": {{");
    println!("    \"wall_ms\": {:.2},", m.wall_ms);
    println!("    \"events\": {},", m.events);
    println!("    \"events_per_sec\": {eps:.0},");
    // Per-event cost in nanoseconds — the flatness metric: a size-independent
    // hot path keeps this constant as the mesh grows.
    println!(
        "    \"ns_per_event\": {:.1},",
        m.wall_ms * 1e6 / m.events as f64
    );
    println!("    \"peak_event_queue\": {},", m.peak_queue);
    // Recorded per row (not just globally) so a row carries the host
    // shape it was measured on.
    println!("    \"hw_threads\": {}", hw_threads());
    println!("  }}{}", if trailing_comma { "," } else { "" });
}

fn main() {
    let mean = SimDuration::from_ns(850);

    // Case 1: the historical 64-core configuration (4 groups x 16).
    let t64 = trace(64, 20_000, 0.8);
    let small = measure(&AcConfig::ac_int(4, 16, mean), &t64);

    // Case 2: the paper-scale 256-core mesh (16 groups x 16). Measured with
    // the elided control plane (the default: manager mailboxes and idle-tick
    // fast-forward) and fully event-driven (the pre-elision baseline: one
    // event per UPDATE, tick, delivery and completion), so the
    // manager-plane elision win stays recorded head-to-head.
    let t256 = trace(256, 40_000, 0.6);
    let big_cfg = AcConfig::ac_int(16, 16, mean);
    let big = measure(&big_cfg, &t256);
    let mut legacy_cfg = big_cfg.clone();
    legacy_cfg.control_plane = ControlPlane::EventDriven;
    let big_legacy = measure(&legacy_cfg, &t256);

    // The same mesh on the benchmark's traffic shape: Exponential service
    // over many connections. Fixed service is the one shape where every
    // worker's completions arrive in FIFO order; this row keeps the
    // out-of-order completion stream measured too.
    let exp = ServiceDistribution::Exponential { mean };
    let t256_exp = trace_of(exp, 256, 40_000, 0.6, 4096);
    let big_exp = measure(&big_cfg, &t256_exp);

    // The 1024-core case: a 32x32 mesh, 64 groups x 16.
    let t1024 = trace(1024, 60_000, 0.6);
    let huge = measure(&AcConfig::ac_int(64, 16, mean), &t1024);

    // Rack tier: the CI quick shape (4 AC servers x 16 cores) behind the
    // two-level scheduler, healthy, at the top quick load. One iteration is
    // the full stack — serial ToR routing pass, four server simulations,
    // deterministic merge — so this row moves when any rack layer does.
    let (rack_cfg, rack_trace) =
        rack_sweep_cell(rack_shape::QUICK, 0.8, rack_shape::requests(true), false);
    let (rack, r) = measure_rack(&RackWorld::new(rack_cfg), &rack_trace);
    assert_eq!(r.system.completions.len(), rack_trace.len());

    // The same rack in the benchmark's `rack_faults_4x64` shape: a stress
    // fault plan at 0.25 per server, hardened resilience and server 2 dying
    // halfway through the arrivals. The only row that runs client retries,
    // the dying server's eager simulation and the merge's death cut.
    let (faults_cfg, faults_trace) = rack_sweep_cell(
        rack_shape::QUICK,
        rack_shape::DEATH_LOAD,
        rack_shape::requests(true),
        true,
    );
    let (rack_faults, r) = measure_rack(&RackWorld::new(faults_cfg), &faults_trace);
    assert_eq!(r.routing.lost, 0, "retries reach a live server");

    // Nebula baseline: wall time only (RpcSystem::run has no summary).
    let mut nb_best_ms = f64::MAX;
    for _ in 0..ITERS {
        let mut sys = Jbsq::new(JbsqVariant::Nebula, 64);
        let start = Instant::now();
        let r = sys.run(&t64);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r.completions.len(), t64.len());
        nb_best_ms = nb_best_ms.min(ms);
    }

    // The sparse regime: the Fig. 10 line-up on 16 cores at a light, a
    // medium and a heavy load. At load 0.1 arrivals sit microseconds apart
    // and the bimodal longs complete 500 µs out, so this row moves with
    // the event queue's far-future path, which the dense mesh rows above
    // barely touch. Best of ITERS sweeps, each summing all 21 cells.
    let lineup_traces: Vec<workload::Trace> = [0.1, 0.5, 0.8]
        .iter()
        .map(|&load| {
            let dist = ServiceDistribution::bimodal_paper();
            poisson_trace(dist, load, FIG10_CORES, 50_000, 128, 1)
        })
        .collect();
    let mut lineup_best_ms = f64::MAX;
    for _ in 0..ITERS {
        let mut sweep_ms = 0.0;
        for name in FIG10_SYSTEMS {
            for t in &lineup_traces {
                let mut sys = fig10_system(name);
                let start = Instant::now();
                let r = sys.run(t);
                sweep_ms += start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(r.completions.len(), t.len());
            }
        }
        lineup_best_ms = lineup_best_ms.min(sweep_ms);
    }

    let mgr_cut = 100.0 * (1.0 - big.events as f64 / big_legacy.events as f64);

    // Hand-rolled JSON (no serde in the workspace). The "prior" block holds
    // the pre-change numbers measured on the same machine for this trace:
    // criterion medians from the PR-1 build, and the upfront pre-push queue
    // population (every arrival resident at t=0), the faulted rack row
    // before its threshold/routing/merge speed-up, the mesh rows before
    // branch-free hot-path selection, and every row before the sliding
    // calendar window.
    println!("{{");
    println!(
        "  \"config_64\": \"20k requests, 64 cores, load 0.8, fixed 850ns, 16 conns, seed 1\","
    );
    println!("  \"config_256\": \"40k requests, 256 cores (16x16), load 0.6, fixed 850ns, 16 conns, seed 1\",");
    println!("  \"config_256_exp\": \"40k requests, 256 cores (16x16), load 0.6, exponential 850ns, 4096 conns, seed 1\",");
    println!("  \"config_1024\": \"60k requests, 1024 cores (32x32 mesh, 64 groups x 16), load 0.6, fixed 850ns, 16 conns, seed 1\",");
    println!("  \"config_rack\": \"12k requests, 4 AC servers x 16 cores, load 0.8, bimodal(paper), two-level ToR routing\",");
    println!("  \"config_rack_faults\": \"12k requests, 4 AC servers x 16 cores, load 0.7, bimodal(paper), stress faults 0.25/server, hardened, server 2 dies at half the arrival span\",");
    println!("  \"config_fig10_lineup\": \"IX, ZygOS, Shinjuku, RPCValet, Nebula, nanoPU, AC_rss on 16 cores at loads 0.1/0.5/0.8, 50k requests each, bimodal(paper), 128 conns, seed 1; wall_ms sums the 21 cells\",");
    println!("  \"iters_best_of\": {ITERS},");
    println!("  \"hw_threads\": {},", hw_threads());
    emit("altocumulus_int_4x16", &small, true);
    emit("altocumulus_int_16x16_elided", &big, true);
    emit("altocumulus_int_16x16_exp", &big_exp, true);
    emit("altocumulus_int_32x32_elided", &huge, true);
    emit("altocumulus_int_16x16_event_driven", &big_legacy, true);
    emit("rack_4x16_ac", &rack, true);
    emit("rack_4x16_ac_faults", &rack_faults, true);
    println!("  \"manager_plane_event_cut_pct\": {mgr_cut:.1},");
    println!("  \"nebula_jbsq\": {{ \"wall_ms\": {nb_best_ms:.2} }},");
    println!(
        "  \"fig10_lineup_16c\": {{ \"wall_ms\": {lineup_best_ms:.2}, \"hw_threads\": {} }},",
        hw_threads()
    );
    println!("  \"prior\": {{");
    println!(
        "    \"altocumulus_int_4x16\": {{ \"wall_ms\": 12.54, \"peak_event_queue\": 20004 }},"
    );
    println!("    \"nebula_jbsq\": {{ \"wall_ms\": 7.88 }},");
    println!("    \"rack_4x16_ac_faults\": {{ \"wall_ms\": 13.33, \"events\": 78459, \"hw_threads\": 2 }},");
    println!("    \"rack_4x16_ac_faults_note\": \"before the tick's threshold skip, allocation-free ToR routing and the k-way rack merge: best of 3 runs x 7 on the same host\",");
    println!("    \"before_branch_free\": {{");
    println!("      \"altocumulus_int_4x16\": {{ \"wall_ms\": 8.08, \"ns_per_event\": 119.6 }},");
    println!("      \"altocumulus_int_16x16_elided\": {{ \"wall_ms\": 17.79, \"ns_per_event\": 129.1 }},");
    println!(
        "      \"altocumulus_int_16x16_exp\": {{ \"wall_ms\": 17.36, \"ns_per_event\": 127.0 }},"
    );
    println!("      \"altocumulus_int_32x32_elided\": {{ \"wall_ms\": 55.74, \"ns_per_event\": 225.2 }},");
    println!("      \"altocumulus_int_16x16_event_driven\": {{ \"wall_ms\": 40.77, \"ns_per_event\": 107.4 }},");
    println!("      \"rack_4x16_ac\": {{ \"wall_ms\": 9.58, \"ns_per_event\": 123.9 }},");
    println!("      \"rack_4x16_ac_faults\": {{ \"wall_ms\": 9.46, \"ns_per_event\": 120.6 }},");
    println!("      \"nebula_jbsq\": {{ \"wall_ms\": 6.55 }},");
    println!("      \"hw_threads\": 2,");
    println!("      \"note\": \"before the u128-key bucket minimum, the idle-bitset OccTable, the count-based planner inserts and the libm-free rounding: best of 3 runs x 7, interleaved with the change on the same host\"");
    println!("    }},");
    println!("    \"before_sliding_window\": {{");
    println!(
        "      \"altocumulus_int_4x16\": {{ \"wall_ms\": 6.07, \"peak_event_queue\": 1093 }},"
    );
    println!("      \"altocumulus_int_16x16_elided\": {{ \"wall_ms\": 12.73, \"peak_event_queue\": 1246 }},");
    println!("      \"altocumulus_int_16x16_exp\": {{ \"wall_ms\": 11.84, \"peak_event_queue\": 1246 }},");
    println!("      \"altocumulus_int_32x32_elided\": {{ \"wall_ms\": 49.43, \"peak_event_queue\": 1458 }},");
    println!("      \"altocumulus_int_16x16_event_driven\": {{ \"wall_ms\": 30.94, \"peak_event_queue\": 1483 }},");
    println!("      \"rack_4x16_ac\": {{ \"wall_ms\": 8.45, \"peak_event_queue\": 1036 }},");
    println!("      \"rack_4x16_ac_faults\": {{ \"wall_ms\": 8.94, \"peak_event_queue\": 1048 }},");
    println!("      \"nebula_jbsq\": {{ \"wall_ms\": 4.39 }},");
    println!("      \"fig10_lineup_16c\": {{ \"wall_ms\": 337.11 }},");
    println!("      \"hw_threads\": 2,");
    println!("      \"note\": \"before the sliding calendar window, window-bounded arrival injection and Shinjuku's one-event dispatch: best of 11 runs x 7, alternating with the change on the same host\"");
    println!("    }},");
    println!("    \"note\": \"criterion medians before streaming arrivals + scratch reuse; peak queue was O(trace): all 20k arrivals pre-pushed\"");
    println!("  }}");
    println!("}}");

    // Optional telemetry export of the 64-core case. Stdout is the bench
    // JSON consumed by bench_hotpath.sh, so everything here goes to files
    // and stderr. The traced run must reproduce the measured run exactly
    // (the non-perturbation invariant) — asserted, not assumed.
    if let Some(path) = trace_out_arg() {
        let mut tel = capture_telemetry(t64.len());
        let mut sys = Altocumulus::new(AcConfig::ac_int(4, 16, mean));
        let r = sys.run_traced(&t64, &mut tel);
        assert_eq!(
            r.summary.events, small.events,
            "telemetry perturbed the run"
        );
        assert_eq!(
            r.summary.peak_queue, small.peak_queue,
            "telemetry perturbed the run"
        );
        let probes = export_trace(&tel, &path);
        eprintln!(
            "trace: {} span points -> {} | {} probe samples -> {}",
            tel.spans.len(),
            path.display(),
            tel.probes.sample_count(),
            probes.display()
        );
        eprintln!("\nphase latency breakdown (64-core case):");
        eprintln!("{}", phase_table(&tel).render());
    }
}
