//! The contract in `BENCHMARK.json`, embedded at build time: workload
//! names, metric names, units, directions and bounds have exactly one
//! source, and every run checks what it prints against it.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; absent on per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is checked by the unit tests")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key).and_then(Json::as_arr).ok_or_else(|| format!("missing list {key:?}"))
        };
        let text_of = |entry: &Json, key: &str| {
            entry.get(key).and_then(Json::as_str).map(str::to_string).ok_or(format!("no {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = text_of(m, "better")?;
                    if better != "higher" && better != "lower" {
                        return Err(format!("better must be higher or lower, not {better:?}"));
                    }
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: better == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).ok_or("no run_seconds")?
                as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let spec = Spec::load();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));

        let mut seen = BTreeSet::new();
        for name in spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
        {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "name {name:?} used twice");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "bad unit on {}", m.name);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "bound of {} out of range", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup =
            spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        for w in doc.get("workloads").unwrap().as_arr().unwrap() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn the_command_stays_inside_the_benchmark_directory() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let paths: Vec<&str> =
            doc.get("paths").unwrap().as_arr().unwrap().iter().filter_map(Json::as_str).collect();
        assert_eq!(paths, ["benchmark"]);
        let command: Vec<&str> =
            doc.get("command").unwrap().as_arr().unwrap().iter().filter_map(Json::as_str).collect();
        assert!(command.len() <= 32);
        assert!(command.iter().all(|arg| !arg.starts_with('/') && !arg.contains("..")));
        assert!(command.contains(&"benchmark/Cargo.toml"));
    }
}
