//! altobench: one benchmark for the simulator's host speed and for its
//! simulated results. See `README.md` next to this package.
//!
//! The parent process times fresh child processes for `setup_s`, then runs
//! each workload's measurement in a child of its own, so set-up time and
//! peak memory belong to one workload. It prints every metric as one JSON
//! line and, last, one summary object.

mod calib;
mod compare;
mod heap;
mod measure;
mod spans;
mod spec;
mod stats;
mod workloads;

use measure::{Kind, Metric, Plan, Report};
use simcore::telemetry::{parse_json, Json};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::Workload;

const USAGE: &str = "usage:
  altobench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
  altobench --compare BASE CHANGE
workloads: steady_16x16 bursty_16x16 rack_faults_4x64 baselines_16c";

/// Environment knobs that silently switch the simulator's engine.
const ENGINE_KNOBS: [&str; 2] = ["PAR_THREADS", "WORKER_PLANE"];
/// Environment knobs recorded with every run.
const RECORDED_KNOBS: [&str; 2] = ["SWEEP_THREADS", "AC_TRACE_PERTURB"];
/// Fresh processes timed for `setup_s`; their median is reported.
const SETUP_PROBES: usize = 9;
/// Seed of the set-up probe's cells. The probe measures start-up time and
/// memory on one fixed input, so neither moves with `--seed`, and its
/// output is checked against a pin on every run.
const PROBE_SEED: u64 = 1;

#[global_allocator]
static HEAP: heap::PeakAlloc = heap::PeakAlloc::new();

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String], default_seconds: f64) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: default_seconds,
        trace: false,
        child: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--child" => a.child = Some(value()?),
            "--compare" => a.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && workloads::by_name(&a.workload).is_none() {
        return Err(format!("unknown workload {}", a.workload));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let spec = spec::Spec::embedded();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args, spec.run_seconds) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("altobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, change)) = &a.compare {
        return compare::main(&spec, base, change);
    }
    if let Some(k) = ENGINE_KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!("altobench: refusing to run with {k} set: it switches the simulator's engine");
        return ExitCode::from(2);
    }
    let result = match a.child.as_deref() {
        None => parent(&a, &spec),
        Some("setup") => child_setup(&a),
        Some("measure") => child_measure(&a),
        Some(other) => Err(format!("unknown child mode {other}")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("altobench: {e}");
        ExitCode::FAILURE
    })
}

fn workload(a: &Args) -> Result<&'static Workload, String> {
    workloads::by_name(&a.workload)
        .ok_or_else(|| format!("child needs one workload, not {}", a.workload))
}

fn hex(d: u64) -> String {
    format!("0x{d:016x}")
}

/// A JSON string, or null. Control characters are dropped, not escaped.
fn json_str(s: Option<&str>) -> String {
    s.map_or("null".to_string(), |s| {
        let body: String = s
            .chars()
            .filter(|c| !c.is_control())
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                c => vec![c],
            })
            .collect();
        format!("\"{body}\"")
    })
}

/// One metric as one JSON line.
fn metric_line(workload: &str, m: &Metric) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"metric\":\"{}\",\"value\":{:?},\"unit\":\"{}\",\"kind\":\"{}\",\"iqr\":{}}}",
        m.name,
        m.value,
        m.unit,
        m.kind.label(),
        m.iqr.map_or("null".to_string(), |v| format!("{v:?}"))
    )
}

/// Where a traced run leaves its span files: under the cargo target
/// directory, inside the working tree.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("altobench")
}

/// A fresh process runs one cycle of the workload's mix cold (one cell, or
/// all 21 baseline pairs) from `PROBE_SEED`, then prints the cells' output
/// digest and the process's peak live heap.
fn child_setup(a: &Args) -> Result<ExitCode, String> {
    let w = workload(a)?;
    let mut digest = 0;
    let mut ok = true;
    for i in 0..w.cycle() {
        let cell = catch_unwind(AssertUnwindSafe(|| workloads::run_cell(w, PROBE_SEED + i)))
            .map_err(|_| format!("set-up cell {i} panicked"))?;
        let (d, conserved) =
            workloads::check(cell.offered, cell.outcome.lost(), cell.outcome.system());
        ok &= conserved;
        digest = simcore::trace::fnv1a64_fold(digest, d);
    }
    println!("{} {:?}", hex(digest), HEAP.peak_mb());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn child_measure(a: &Args) -> Result<ExitCode, String> {
    let w = workload(a)?;
    let plan = Plan {
        seed: a.seed,
        seconds: a.seconds,
        rounds: measure::ROUNDS,
        sim_cells: measure::SIM_CELLS,
        trace: a.trace,
        pin: spec::pin(w.name).filter(|_| a.seed == 1),
    };
    let report = measure::measure(w, &plan);
    for m in &report.metrics {
        println!("{}", metric_line(w.name, m));
    }
    println!("{}", check_line(w, &plan, &report));
    if a.trace {
        write_spans(w.name, &report, &out_dir())?;
    }
    Ok(ExitCode::SUCCESS)
}

fn check_line(w: &Workload, plan: &Plan, r: &Report) -> String {
    let knobs: Vec<String> = RECORDED_KNOBS
        .iter()
        .map(|k| format!("\"{k}\":{}", json_str(std::env::var(k).ok().as_deref())))
        .collect();
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\":\"{}\",\"check\":{{\"seed\":{},\"attempted\":{},\"failed\":{},\"sim_cells\":{},\"digest\":\"{}\",\"warm_digest\":\"{}\",\"deterministic\":{},\"pin\":\"{}\",\"ref_ms\":{:?},\"hw_threads\":{hw_threads},\"fanout_threads\":{},{}}}}}",
        w.name,
        plan.seed,
        r.attempted,
        r.failed,
        plan.sim_cells,
        hex(r.digest),
        hex(r.warm_digest),
        r.deterministic,
        match (plan.pin, r.pin_ok) {
            (None, _) => "unchecked",
            (Some(_), true) => "match",
            (Some(_), false) => "MISMATCH",
        },
        r.ref_ms,
        workloads::FANOUT_THREADS,
        knobs.join(",")
    )
}

fn write_spans(workload: &str, r: &Report, dir: &Path) -> Result<(), String> {
    let chrome = r.spans.to_chrome_trace();
    simcore::telemetry::validate_chrome_trace(&chrome)
        .map_err(|e| format!("host spans form an invalid Chrome trace: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (name, body) in [
        (format!("{workload}.spans.jsonl"), r.spans.to_jsonl()),
        (format!("{workload}.trace.json"), chrome),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    eprintln!("altobench: {workload} spans in {}", dir.display());
    Ok(())
}

/// What the parent learned about one workload.
struct Measured {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Metric name → (value, unit).
    metrics: Vec<(String, f64, String)>,
}

fn run_child(exe: &Path, args: &[&str]) -> Result<(bool, String), String> {
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    Ok((
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    ))
}

/// Set-up probes of one workload: fresh processes timed end to end.
#[derive(Default)]
struct Probes {
    secs: Vec<f64>,
    digests: Vec<String>,
    heap_mb: Vec<f64>,
    failed: bool,
}

impl Probes {
    fn run(&mut self, exe: &Path, w: &str, count: usize) -> Result<(), String> {
        for _ in 0..count {
            let t = Instant::now();
            let (ok, out) = run_child(exe, &["--child", "setup", "--workload", w])?;
            self.secs.push(t.elapsed().as_secs_f64());
            let mut words = out.split_whitespace();
            self.digests
                .push(words.next().unwrap_or_default().to_string());
            let heap = words.next().and_then(|v| v.parse::<f64>().ok());
            self.failed |= !ok || heap.is_none();
            self.heap_mb.extend(heap);
        }
        Ok(())
    }

    /// Prints the probes' digest check and metrics, with set-up time
    /// scaled by the measuring process's kernel time `ref_ms`; returns
    /// whether every probe succeeded and matched the pin.
    fn report(&self, w: &str, ref_ms: f64, metrics: &mut Vec<(String, f64, String)>) -> bool {
        let verdict = match spec::setup_pin(w).map(hex) {
            _ if self.digests.windows(2).any(|p| p[0] != p[1]) => "DISAGREE",
            Some(p) if self.digests.first() != Some(&p) => "MISMATCH",
            Some(_) => "match",
            None => "unchecked",
        };
        println!(
            "{{\"workload\":\"{w}\",\"setup_check\":{{\"seed\":{PROBE_SEED},\"digest\":{},\"pin\":\"{verdict}\"}}}}",
            json_str(self.digests.first().map(String::as_str))
        );
        let scale = calib::scale(ref_ms);
        for m in [
            Metric {
                name: "setup_s".to_string(),
                value: stats::median(&self.secs) * scale,
                unit: "s",
                kind: Kind::E2e,
                iqr: Some(stats::iqr(&self.secs) * scale),
            },
            Metric {
                name: "peak_heap_mb".to_string(),
                value: stats::median(&self.heap_mb),
                unit: "MB",
                kind: Kind::E2e,
                iqr: Some(stats::iqr(&self.heap_mb)),
            },
        ] {
            println!("{}", metric_line(w, &m));
            metrics.push((m.name, m.value, m.unit.to_string()));
        }
        !self.failed && matches!(verdict, "match" | "unchecked")
    }
}

fn run_workload(exe: &Path, w: &str, a: &Args) -> Result<Measured, String> {
    let mut probes = Probes::default();
    // Slow spells of a few hundred milliseconds hit set-up probes in a row,
    // so they are split around the measurement.
    probes.run(exe, w, SETUP_PROBES.div_ceil(2))?;
    let (seed, seconds) = (a.seed.to_string(), a.seconds.to_string());
    let trace = if a.trace { "1" } else { "0" };
    let (ok, out) = run_child(
        exe,
        &[
            "--child",
            "measure",
            "--workload",
            w,
            "--seed",
            &seed,
            "--seconds",
            &seconds,
            "--trace",
            trace,
        ],
    )?;
    probes.run(exe, w, SETUP_PROBES / 2)?;

    let mut o = Measured {
        correct: ok,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let mut checked = false;
    let mut ref_ms = 0.0;
    for line in out.lines() {
        println!("{line}");
        let Ok(j) = parse_json(line) else {
            o.correct = false;
            continue;
        };
        if let (Some(name), Some(value), Some(unit)) = (
            j.get("metric").and_then(Json::as_str),
            j.get("value").and_then(Json::as_f64),
            j.get("unit").and_then(Json::as_str),
        ) {
            o.metrics.push((name.to_string(), value, unit.to_string()));
        }
        if let Some(c) = j.get("check") {
            checked = true;
            let num = |k: &str| c.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            o.attempted = num("attempted");
            o.failed = num("failed");
            ref_ms = c.get("ref_ms").and_then(Json::as_f64).unwrap_or(0.0);
            o.correct &= c.get("deterministic") == Some(&Json::Bool(true))
                && c.get("pin").and_then(Json::as_str) != Some("MISMATCH");
        }
    }
    o.correct &= checked && o.failed == 0;
    o.correct &= probes.report(w, ref_ms, &mut o.metrics);
    Ok(o)
}

fn parent(a: &Args, spec: &spec::Spec) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let names: Vec<&str> = if a.workload == "all" {
        workloads::WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![a.workload.as_str()]
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in &names {
        let o = run_workload(&exe, w, a)?;
        correct &= o.correct;
        attempted += o.attempted;
        failed += o.failed;
        metrics = o.metrics;
    }
    // The summary object carries the gated metrics of a single workload:
    // the end-to-end ones untraced, the per-layer ones traced. A layer a
    // workload does not run reads 0.
    let wanted: Vec<(&str, &str, bool)> = if names.len() > 1 {
        Vec::new()
    } else if a.trace {
        spec.layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str(), false))
            .collect()
    } else {
        spec.e2e
            .iter()
            .map(|g| (g.name.as_str(), g.unit.as_str(), true))
            .collect()
    };
    let mut fields = Vec::with_capacity(wanted.len());
    for (name, unit, required) in wanted {
        let value = match metrics.iter().find(|(n, _, _)| n == name) {
            Some((_, v, u)) if u == unit => *v,
            Some((_, _, u)) => {
                return Err(format!(
                    "{name} is measured in {u}, BENCHMARK.json says {unit}"
                ))
            }
            None if required => {
                correct = false;
                0.0
            }
            None => 0.0,
        };
        fields.push(format!(
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_round_trip_through_the_json_parser() {
        let m = Metric {
            name: "cell_ms_p50".to_string(),
            value: 28.123456789012345,
            unit: "ms",
            kind: Kind::E2e,
            iqr: Some(0.5),
        };
        let j = parse_json(&metric_line("steady_16x16", &m)).expect("valid JSON");
        assert_eq!(
            j.get("workload").and_then(Json::as_str),
            Some("steady_16x16")
        );
        assert_eq!(j.get("metric").and_then(Json::as_str), Some("cell_ms_p50"));
        assert_eq!(j.get("value").and_then(Json::as_f64), Some(m.value));
        assert_eq!(j.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("e2e"));
        assert_eq!(j.get("iqr").and_then(Json::as_f64), Some(0.5));
        let count = Metric {
            iqr: None,
            value: 1e-7,
            ..m
        };
        let j = parse_json(&metric_line("w", &count)).expect("valid JSON");
        assert_eq!(j.get("iqr"), Some(&Json::Null));
        assert_eq!(j.get("value").and_then(Json::as_f64), Some(1e-7));
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(
            &args("--workload steady_16x16 --seed 9 --seconds 3 --trace 1"),
            10.0,
        )
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        assert_eq!(parse_args(&[], 10.0).expect("defaults").seconds, 10.0);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seed x",
            "--bogus",
        ] {
            assert!(parse_args(&args(bad), 10.0).is_err(), "{bad}");
        }
    }
}
