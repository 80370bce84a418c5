//! `altobench --compare BASE CHANGE`: applies `BENCHMARK.json`'s bounds to
//! every (workload, end-to-end metric) pair of two saved runs.
//!
//! A saved run is the standard output of `altobench`, one JSON object per
//! line. Simulated metrics and digests must match exactly when both runs
//! used the same seed; host metrics are judged against their bound, and a
//! spread across rounds wider than the bound makes the pair unresolved.

use crate::spec::{Gated, Spec};
use simcore::telemetry::{parse_json, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Smallest worsening of `setup_s` that counts, in seconds: a cold start
/// of tens of milliseconds swings by more than its relative bound.
const SETUP_FLOOR_S: f64 = 0.05;
/// Deterministic for a given seed: any change is a change in behaviour.
const EXACT: [&str; 2] = ["sim_p99_us", "sim_slo_viol_pct"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric as one run reported it: median and spread across rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub median: f64,
    pub iqr: f64,
}

/// Judges `change` against `base` under `g`'s bound. `exact` demands
/// equality, for simulated metrics of two runs with the same seed.
pub fn verdict(g: &Gated, base: Reading, change: Reading, exact: bool) -> Verdict {
    let worsening = if g.lower_is_better {
        change.median - base.median
    } else {
        base.median - change.median
    };
    if exact {
        return match worsening {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    let mut allowed = g.bound * base.median.abs();
    if g.name == "setup_s" {
        allowed = allowed.max(SETUP_FLOOR_S);
    }
    if base.iqr.max(change.iqr) > allowed {
        Verdict::Unresolved
    } else if worsening > allowed {
        Verdict::Worse
    } else if worsening < -allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One saved run: metric readings and the per-workload check lines.
#[derive(Default)]
struct Run {
    metrics: BTreeMap<(String, String), Reading>,
    /// Workload → (seed, digest).
    checks: BTreeMap<String, (f64, String)>,
}

fn load(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut run = Run::default();
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let j = parse_json(line).map_err(|e| format!("{path}: {e}"))?;
        let Some(workload) = j.get("workload").and_then(Json::as_str) else {
            continue;
        };
        if let (Some(metric), Some(value)) = (
            j.get("metric").and_then(Json::as_str),
            j.get("value").and_then(Json::as_f64),
        ) {
            let iqr = j.get("iqr").and_then(Json::as_f64).unwrap_or(0.0);
            run.metrics.insert(
                (workload.to_string(), metric.to_string()),
                Reading { median: value, iqr },
            );
        }
        if let Some(c) = j.get("check") {
            let seed = c.get("seed").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let digest = c.get("digest").and_then(Json::as_str).unwrap_or("");
            run.checks
                .insert(workload.to_string(), (seed, digest.to_string()));
        }
    }
    Ok(run)
}

pub fn main(spec: &Spec, base_path: &str, change_path: &str) -> ExitCode {
    let (base, change) = match (load(base_path), load(change_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("altobench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = false;
    let mut compared = 0;
    println!(
        "{:<18} {:<18} {:<11} {:>24} {:>24} {:>6}",
        "workload", "metric", "verdict", "base median ± iqr", "change median ± iqr", "bound"
    );
    for workload in &spec.workloads {
        let same_seed = match (base.checks.get(workload), change.checks.get(workload)) {
            (Some((sb, db)), Some((sc, dc))) => {
                let same = sb == sc;
                let digests = if !same {
                    "seeds differ"
                } else if db == dc {
                    "same"
                } else {
                    regressed = true;
                    "CHANGED"
                };
                println!("{workload:<18} {:<18} {digests} ({db} vs {dc})", "digest");
                same
            }
            _ => continue,
        };
        let key = |m: &str| (workload.clone(), m.to_string());
        let (Some(fb), Some(fc)) = (
            base.metrics.get(&key("fail_frac")),
            change.metrics.get(&key("fail_frac")),
        ) else {
            continue;
        };
        if fc.median > fb.median {
            regressed = true;
        }
        for g in &spec.e2e {
            let (Some(&b), Some(&c)) = (
                base.metrics.get(&key(&g.name)),
                change.metrics.get(&key(&g.name)),
            ) else {
                println!("{workload:<18} {:<18} missing", g.name);
                regressed = true;
                continue;
            };
            let exact = same_seed && EXACT.contains(&g.name.as_str());
            let v = verdict(g, b, c, exact);
            regressed |= v == Verdict::Worse;
            compared += 1;
            println!(
                "{workload:<18} {:<18} {:<11} {:>24} {:>24} {:>6}",
                g.name,
                v.label(),
                format!("{:.4} ± {:.4}", b.median, b.iqr),
                format!("{:.4} ± {:.4}", c.median, c.iqr),
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", g.bound * 100.0)
                },
            );
        }
        println!(
            "{workload:<18} {:<18} {:<11} {:>24} {:>24}",
            "fail_frac",
            if fc.median > fb.median {
                "worse"
            } else {
                "same"
            },
            fb.median,
            fc.median
        );
    }
    if compared == 0 {
        eprintln!("altobench: no workload appears in both runs");
        return ExitCode::from(2);
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gated(name: &str, lower: bool, bound: f64) -> Gated {
        Gated {
            name: name.to_string(),
            unit: String::new(),
            lower_is_better: lower,
            bound,
        }
    }

    fn r(median: f64, iqr: f64) -> Reading {
        Reading { median, iqr }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let ms = gated("cell_ms_p50", true, 0.10);
        assert_eq!(
            verdict(&ms, r(30.0, 0.5), r(31.0, 0.5), false),
            Verdict::Same
        );
        assert_eq!(
            verdict(&ms, r(30.0, 0.5), r(34.0, 0.5), false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&ms, r(30.0, 0.5), r(26.0, 0.5), false),
            Verdict::Better
        );
        // A spread wider than the 3 ms bound leaves the pair unresolved.
        assert_eq!(
            verdict(&ms, r(30.0, 3.5), r(40.0, 0.5), false),
            Verdict::Unresolved
        );

        let rate = gated("sim_kreq_per_s", false, 0.10);
        assert_eq!(
            verdict(&rate, r(1000.0, 5.0), r(850.0, 5.0), false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&rate, r(1000.0, 5.0), r(1150.0, 5.0), false),
            Verdict::Better
        );
    }

    #[test]
    fn setup_bound_has_an_absolute_floor() {
        let setup = gated("setup_s", true, 0.25);
        // 40 ms -> 80 ms is +100%, but only 40 ms: under the 50 ms floor.
        assert_eq!(
            verdict(&setup, r(0.04, 0.004), r(0.08, 0.004), false),
            Verdict::Same
        );
        assert_eq!(
            verdict(&setup, r(0.04, 0.004), r(0.10, 0.004), false),
            Verdict::Worse
        );
        // Far above the floor the relative bound rules.
        assert_eq!(
            verdict(&setup, r(1.0, 0.01), r(1.3, 0.01), false),
            Verdict::Worse
        );
    }

    #[test]
    fn simulated_metrics_compare_exactly_on_one_seed() {
        let p99 = gated("sim_p99_us", true, 0.05);
        assert_eq!(verdict(&p99, r(9.5, 0.0), r(9.5, 0.0), true), Verdict::Same);
        assert_eq!(
            verdict(&p99, r(9.5, 0.0), r(9.5001, 0.0), true),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&p99, r(9.5, 0.0), r(9.4, 0.0), true),
            Verdict::Better
        );
        assert_eq!(
            verdict(&p99, r(9.5, 0.0), r(9.5001, 0.0), false),
            Verdict::Same
        );
    }
}
