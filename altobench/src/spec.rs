//! The benchmark's definition files, embedded at build time:
//! `BENCHMARK.json` (run length, metric names, units and bounds) and
//! `pins.json` (output digests pinned for seed 1, and one measured result
//! set with the host it came from).

use simcore::telemetry::{parse_json, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const PINS_JSON: &str = include_str!("../pins.json");

/// One end-to-end metric with its regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Gated {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub e2e: Vec<Gated>,
    /// Per-layer metric names with their units.
    pub layer: Vec<(String, String)>,
}

fn str_of<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string '{key}'"))
}

fn list<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing list '{key}'"))
}

impl Spec {
    pub fn embedded() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("the embedded BENCHMARK.json is well formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = parse_json(text)?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("missing number 'run_seconds'")?;
        let workloads = list(&doc, "workloads")?
            .iter()
            .map(|w| str_of(w, "name").map(String::from))
            .collect::<Result<_, _>>()?;
        let e2e = list(&doc, "end_to_end")?
            .iter()
            .map(|m| {
                Ok(Gated {
                    name: str_of(m, "name")?.to_string(),
                    unit: str_of(m, "unit")?.to_string(),
                    lower_is_better: str_of(m, "better")? == "lower",
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("missing number 'bound'")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let layer = list(&doc, "per_layer")?
            .iter()
            .map(|m| {
                Ok((
                    str_of(m, "name")?.to_string(),
                    str_of(m, "unit")?.to_string(),
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            run_seconds,
            workloads,
            e2e,
            layer,
        })
    }
}

fn pinned(table: &str, workload: &str) -> Option<u64> {
    let doc = parse_json(PINS_JSON).expect("the embedded pins.json is well formed");
    let hex = doc.get(table)?.get(workload)?.as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

/// The pinned output digest of `workload`'s simulated cells at seed 1,
/// with the number of cells it covers.
pub fn pin(workload: &str) -> Option<(u64, u64)> {
    let doc = parse_json(PINS_JSON).expect("the embedded pins.json is well formed");
    let cells = doc.get("sim_cells").and_then(Json::as_f64)? as u64;
    Some((cells, pinned("digests", workload)?))
}

/// The pinned output digest of the set-up probe's cells of `workload`.
pub fn setup_pin(workload: &str) -> Option<u64> {
    pinned("setup_digests", workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn benchmark_json_names_every_workload_and_a_largest_setup_bound() {
        let spec = Spec::embedded();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
        let setup = spec
            .e2e
            .iter()
            .find(|g| g.name == "setup_s")
            .expect("setup_s");
        assert!(setup.lower_is_better && setup.unit == "s");
        assert!(spec.e2e.iter().all(|g| g.bound <= setup.bound));
        assert!(spec.e2e.iter().all(|g| g.bound > 0.0 && g.bound <= 0.25));
    }

    #[test]
    fn every_workload_is_pinned_for_seed_one() {
        for w in WORKLOADS {
            let (cells, _) = pin(w.name).unwrap_or_else(|| panic!("{} unpinned", w.name));
            assert_eq!(cells, crate::measure::SIM_CELLS);
            assert_eq!(cells % w.cycle(), 0);
            assert!(setup_pin(w.name).is_some(), "{} set-up unpinned", w.name);
        }
    }
}
