//! `benchmark suite`: every workload in one command. Each run is this
//! executable started again, so set-up time and peak memory are per
//! workload; `--repeat N` makes N untraced runs per workload and records
//! median and quartiles per end-to-end metric, and one traced run gives
//! the per-layer metrics. The result file is what `compare` reads.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec::Spec;
use crate::stats::quartiles;

/// Prefix of the line a run prints its provenance and timings on.
pub const DETAIL_PREFIX: &str = "#detail ";
pub const SCHEMA: &str = "strix-benchmark-v1";

struct Args {
    seed: u64,
    seconds: u64,
    repeat: usize,
    out: String,
}

fn parse(args: &[String], spec: &Spec) -> Result<Args, String> {
    let mut parsed = Args { seed: 1, seconds: spec.run_seconds, repeat: 1, out: String::new() };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => parsed.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--out" => parsed.out = value()?.clone(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.out.is_empty() {
        return Err("suite needs --out <file>".into());
    }
    if parsed.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(parsed)
}

/// One child run: its result object and its detail object.
fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    eprintln!("suite: {workload} seed {seed} trace {}", u8::from(traced));
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout.lines().last().ok_or(format!("the {workload} run printed nothing"))?;
    let result = Json::parse(result).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .map_or(Ok(Json::Null), Json::parse)?;
    Ok((result, detail))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn count(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let spec = Spec::load();
    let args = parse(args, &spec)?;
    let mut all_correct = true;
    let mut provenance = Json::Null;
    let mut workloads = Vec::new();
    for workload in &spec.workloads {
        let mut runs = Vec::with_capacity(args.repeat);
        for _ in 0..args.repeat {
            runs.push(child(workload, args.seed, args.seconds, false)?);
        }
        let (layers, layer_detail) = child(workload, args.seed, args.seconds, true)?;
        let every = || runs.iter().map(|(r, _)| r).chain([&layers]);
        let correct = every().all(|r| r.get("correct") == Some(&Json::Bool(true)));
        all_correct &= correct;
        if provenance == Json::Null {
            provenance = runs[0].1.get("provenance").cloned().unwrap_or(Json::Null);
        }

        let end_to_end = spec
            .end_to_end
            .iter()
            .map(|m| {
                let values: Vec<f64> =
                    runs.iter().filter_map(|(r, _)| metric_value(r, &m.name)).collect();
                if values.len() != runs.len() {
                    return Err(format!("{workload}: a run did not report {}", m.name));
                }
                let [q1, median, q3] = match values.as_slice() {
                    [one] => [*one; 3],
                    many => quartiles(many),
                };
                let entry = Json::obj([
                    ("unit", Json::str(m.unit.clone())),
                    ("values", Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())),
                    ("q1", Json::Num(q1)),
                    ("median", Json::Num(median)),
                    ("q3", Json::Num(q3)),
                ]);
                Ok((m.name.clone(), entry))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let detail_of = |detail: &Json, key: &str| detail.get(key).cloned().unwrap_or(Json::Null);
        workloads.push((
            workload.clone(),
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(every().map(|r| count(r, "attempted")).sum())),
                ("failed", Json::Num(every().map(|r| count(r, "failed")).sum())),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", layers.get("metrics").cloned().unwrap_or(Json::Null)),
                ("timings", detail_of(&runs[0].1, "timings")),
                ("traced_timings", detail_of(&layer_detail, "timings")),
                ("notes", detail_of(&runs[0].1, "notes")),
                ("traced_notes", detail_of(&layer_detail, "notes")),
            ]),
        ));
    }
    let document = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("provenance", provenance),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(&args.out, document.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", args.out))?;
    eprintln!("suite: wrote {}", args.out);
    Ok(all_correct)
}
