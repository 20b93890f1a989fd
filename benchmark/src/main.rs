//! The repository's benchmark. One invocation runs one workload:
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--trace-out <file>]
//! benchmark suite --seed <u64> --out <file> [--repeat <n>] [--seconds <n>]
//! benchmark compare <A.json> <B.json>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the span recorder
//! off; `--trace 1` is the separate traced run that yields the
//! per-layer metrics. Every output is decrypted under the real client
//! key and compared with its plaintext; a wrong, failed or refused
//! result fails the run. The last line of standard output is the result
//! object `BENCHMARK.json` describes. See `README.md` beside this
//! package for the glossary and how the numbers are read.

mod compare;
mod gen;
mod json;
mod probes;
mod provenance;
mod spans;
mod spec;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

use json::Json;
use spec::{MetricSpec, Spec};
use workloads::{Ctx, Outcome};

/// Arguments of the run mode.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<String>,
}

fn parse_run(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: spec.run_seconds as f64,
        traced: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => run.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !spec.workloads.contains(&run.workload) {
        return Err(format!("--workload must be one of {:?}", spec.workloads));
    }
    Ok(run)
}

/// The metrics one run must print, in `BENCHMARK.json` order, with
/// their values. A per-layer metric of a layer the workload bypasses
/// reads 0; an end-to-end metric may not be missing.
fn select<'s>(
    specs: &'s [MetricSpec],
    outcome: &Outcome,
    traced: bool,
) -> Result<Vec<(&'s MetricSpec, f64)>, String> {
    specs
        .iter()
        .map(|m| match outcome.metrics.get(&m.name) {
            Some(&v) if v.is_finite() => Ok((m, v)),
            Some(v) => Err(format!("metric {} is not a number: {v}", m.name)),
            None if traced => Ok((m, 0.0)),
            None => Err(format!("end-to-end metric {} was not measured", m.name)),
        })
        .collect()
}

fn run(args: &[String]) -> Result<bool, String> {
    let spec = Spec::load();
    let args = parse_run(args, &spec)?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: false,
        rec: spans::Recorder::new(args.traced),
    };
    let mut outcome = workloads::run(&args.workload, &mut ctx)?;
    if !args.traced {
        let rss = provenance::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        outcome.set("peak_rss_mb", rss);
    }
    let specs = if args.traced { &spec.per_layer } else { &spec.end_to_end };
    if let Some(stray) = outcome.metrics.keys().find(|k| !specs.iter().any(|m| &m.name == *k)) {
        return Err(format!("metric {stray} is not declared in BENCHMARK.json"));
    }
    let metrics = select(specs, &outcome, args.traced)?;

    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    for (m, value) in &metrics {
        println!("  {:<44} {value:>16.4} {}", m.name, m.unit);
    }
    for s in &outcome.summaries {
        println!(
            "  timing {:<37} n={:<6} q1 {:.4}  median {:.4}  q3 {:.4} {}",
            s.name, s.count, s.q1, s.median, s.q3, s.unit
        );
    }
    if args.traced {
        for (name, total) in ctx.rec.totals() {
            println!(
                "  span {name:<39} calls {:<6} total {:>12.3} ms  self {:>12.3} ms",
                total.calls,
                total.total_us / 1e3,
                total.self_us / 1e3
            );
        }
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, ctx.rec.chrome_trace().render())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  trace written to {path} ({} spans)", ctx.rec.spans().len());
    }

    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let summaries = outcome
        .summaries
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name.clone())),
                ("unit", Json::str(s.unit)),
                ("count", Json::Num(s.count as f64)),
                ("q1", Json::Num(s.q1)),
                ("median", Json::Num(s.median)),
                ("q3", Json::Num(s.q3)),
            ])
        })
        .collect();
    let detail = Json::obj([
        ("provenance", provenance::collect(args.seed, args.seconds, &outcome.params)),
        ("timings", Json::Arr(summaries)),
        ("notes", Json::Arr(outcome.notes.iter().map(Json::str).collect())),
    ]);
    println!("{}{}", suite::DETAIL_PREFIX, detail.render());
    let metrics = metrics
        .into_iter()
        .map(|(m, value)| {
            let entry =
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit.clone()))]);
            (m.name.clone(), entry)
        })
        .collect();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("suite") => suite::main(&args[1..]),
        _ => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
