//! `benchmark compare A.json B.json`: per workload and end-to-end
//! metric, whether B improved on, matched or regressed from A, using the
//! bounds in `BENCHMARK.json`. A metric whose run-to-run spread is wider
//! than its bound is reported as unresolved, not as unchanged. Each
//! workload keeps its own row; there is no combined score.

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use crate::suite::SCHEMA;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Median and interquartile spread (as a share of the median) of one
/// metric in one result file.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub median: f64,
    pub spread: f64,
}

/// `b` against `a`. Worse by more than the bound is a regression
/// whatever the spread; otherwise a spread wider than the bound leaves
/// the metric unresolved; otherwise better by more than either spread is
/// an improvement.
pub fn verdict(metric: &MetricSpec, a: Side, b: Side) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let change = if a.median == 0.0 { 0.0 } else { (b.median - a.median) / a.median.abs() };
    let worse = if metric.higher_is_better { -change } else { change };
    let spread = a.spread.max(b.spread);
    if worse > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else if -worse > spread && worse != 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{path} is not a {SCHEMA} result file"));
    }
    Ok(doc)
}

fn side(doc: &Json, workload: &str, metric: &str) -> Option<Side> {
    let entry = doc.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    let number = |key: &str| entry.get(key).and_then(Json::as_f64);
    let median = number("median")?;
    let spread = if median == 0.0 { 0.0 } else { (number("q3")? - number("q1")?) / median.abs() };
    Some(Side { median, spread })
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: benchmark compare <A.json> <B.json>".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec = Spec::load();
    let mut regressed = false;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (Some(sa), Some(sb)) =
                (side(&a, workload, &metric.name), side(&b, workload, &metric.name))
            else {
                return Err(format!("{workload}/{} is missing from a result file", metric.name));
            };
            let v = verdict(metric, sa, sb);
            regressed |= v == Verdict::Regressed;
            println!(
                "{:<18} {:<12} {:>14.4} {:>14.4} {:>+7.2}% {:>7.2}% {:>5.0}%  {:?}",
                workload,
                metric.name,
                sa.median,
                sb.median,
                (sb.median - sa.median) / sa.median * 100.0,
                sa.spread.max(sb.spread) * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                v
            );
        }
        let failed = |doc: &Json| {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("failed"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        if failed(&b) > failed(&a) {
            println!("{workload:<18} more results failed in B ({} > {})", failed(&b), failed(&a));
            regressed = true;
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec { name: "m".into(), unit: "u".into(), higher_is_better, bound: Some(bound) }
    }

    fn s(median: f64, spread: f64) -> Side {
        Side { median, spread }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let latency = metric(false, 0.10);
        assert_eq!(verdict(&latency, s(100.0, 0.01), s(112.0, 0.01)), Verdict::Regressed);
        assert_eq!(verdict(&latency, s(100.0, 0.01), s(108.0, 0.01)), Verdict::Unchanged);
        assert_eq!(verdict(&latency, s(100.0, 0.01), s(95.0, 0.01)), Verdict::Improved);
        assert_eq!(verdict(&latency, s(100.0, 0.06), s(95.0, 0.01)), Verdict::Unchanged);
        // Spread wider than the bound: not "unchanged".
        assert_eq!(verdict(&latency, s(100.0, 0.15), s(101.0, 0.01)), Verdict::Unresolved);
        // ... but a regression beyond the bound is still a regression.
        assert_eq!(verdict(&latency, s(100.0, 0.15), s(130.0, 0.01)), Verdict::Regressed);

        let rate = metric(true, 0.05);
        assert_eq!(verdict(&rate, s(50.0, 0.01), s(47.0, 0.01)), Verdict::Regressed);
        assert_eq!(verdict(&rate, s(50.0, 0.01), s(48.0, 0.01)), Verdict::Unchanged);
        assert_eq!(verdict(&rate, s(50.0, 0.01), s(53.0, 0.01)), Verdict::Improved);
        assert_eq!(verdict(&rate, s(50.0, 0.0), s(50.0, 0.0)), Verdict::Unchanged);
    }

    #[test]
    fn sides_come_from_the_suite_result_layout() {
        let doc = Json::parse(
            r#"{"schema":"strix-benchmark-v1","workloads":{"pbs_batch":{"end_to_end":
               {"pbs_per_s":{"unit":"1/s","values":[50,52],"q1":49.5,"median":51,"q3":52.5}}}}}"#,
        )
        .unwrap();
        let side = side(&doc, "pbs_batch", "pbs_per_s").unwrap();
        assert_eq!(side.median, 51.0);
        assert!((side.spread - 3.0 / 51.0).abs() < 1e-12);
        assert!(super::side(&doc, "pbs_batch", "p50_ms").is_none());
    }
}
