//! Static noise-budget report for the shipped Program workloads.
//!
//! Runs the `strix-runtime` program analyzer (the same abstract
//! interpreter the runtime consults at session admission) over the
//! repository's shipped dataflow workloads — the ripple-carry adder,
//! the bitwise equality circuit and the Deep-NN ReLU schedule — under
//! both PBS kernels the dispatcher can select, and prints each
//! program's budget table: request count and bootstrap depth as built
//! and after the runtime's bootstrap-minimising lowering, the
//! worst-case linear gain and the minimum decision margin in sigmas of
//! both forms. Admission runs the lowered form when it clears the
//! threshold and the program as built otherwise; the table marks which.
//!
//! ```text
//! cargo run -p strix-bench --bin analyze_program
//! cargo run -p strix-bench --bin analyze_program -- --check
//! cargo run -p strix-bench --bin analyze_program -- --check --threshold 12
//! ```
//!
//! `--check` turns the report into a gate: exit status 1 if any
//! workload's worst margin falls below the threshold (default 10σ, the
//! bound the parameter sets are documented to keep), if lowering raises
//! a workload's request count or depth, or if a lowered form is refused
//! while its program as built passes. CI runs this next to the test
//! suite so a parameter, noise-model or lowering change that erodes the
//! shipped margins or bootstrap savings fails loudly.
//!
//! The tool takes no `--backend` override: every SIMD kernel backend is
//! bit-identical to the portable scalar path, so the noise margins
//! cannot depend on which tier the CPU dispatch selects.

use std::process::ExitCode;

use strix_runtime::session::Program;
use strix_runtime::{AdmissionPolicy, KernelPolicy, ProgramAnalysis};
use strix_tfhe::{PbsKernel, TfheParameters};
use strix_workloads::gates::{equality_program, ripple_carry_adder_program};
use strix_workloads::ReluSchedule;

/// Margin every shipped workload must clear in `--check` mode.
const CHECK_THRESHOLD_SIGMAS: f64 = 10.0;

/// Adder/equality operand width: the paper's gate workloads run 8-bit
/// words.
const GATE_BITS: usize = 8;

/// Deep-NN schedule shape: depth 20 is the smallest Zama variant; the
/// width is the schedule's fan-in cap.
const NN_DEPTH: usize = 20;
const NN_WIDTH: usize = 3;
const NN_SEED: u64 = 0x5EED_AA01;

struct Row {
    workload: &'static str,
    params: String,
    kernel: PbsKernel,
    /// The program as its builder emits it.
    built: ProgramAnalysis,
    /// Its lowered form.
    lowered: ProgramAnalysis,
}

impl Row {
    fn new(
        workload: &'static str,
        program: &Program,
        params: &TfheParameters,
        kernel: PbsKernel,
    ) -> Self {
        let policy = AdmissionPolicy::new(params.clone(), KernelPolicy::uniform(kernel));
        Row {
            workload,
            params: params.name.clone(),
            kernel,
            built: policy.analyze(program),
            lowered: policy.analyze(program.lowered()),
        }
    }

    /// The form admission at `threshold` runs: the lowered one when it
    /// clears the threshold, else the program as built.
    fn runs(&self, threshold: f64) -> &ProgramAnalysis {
        if self.lowered.worst_margin_sigmas() >= threshold {
            &self.lowered
        } else {
            &self.built
        }
    }

    /// Why `--check` fails this row, if it does.
    fn failure(&self, threshold: f64) -> Option<String> {
        let (built, lowered) = (&self.built, &self.lowered);
        if self.runs(threshold).worst_margin_sigmas() < threshold {
            Some(format!(
                "worst margin {:.1} < {threshold:.1} sigmas",
                self.runs(threshold).worst_margin_sigmas()
            ))
        } else if lowered.reports.len() > built.reports.len() || lowered.pbs_depth > built.pbs_depth
        {
            Some(format!(
                "lowering raised requests {} -> {} or depth {} -> {}",
                built.reports.len(),
                lowered.reports.len(),
                built.pbs_depth,
                lowered.pbs_depth
            ))
        } else if lowered.worst_margin_sigmas() < threshold {
            Some(format!(
                "lowered form refused at {:.1} sigmas while the program as built passes",
                lowered.worst_margin_sigmas()
            ))
        } else {
            None
        }
    }
}

fn kernel_label(kernel: PbsKernel) -> String {
    match kernel {
        PbsKernel::Classical => "classical".into(),
        PbsKernel::MultiBit { grouping_factor } => format!("multi-bit g={grouping_factor}"),
    }
}

fn rows() -> Result<Vec<Row>, String> {
    let kernels = [PbsKernel::Classical, PbsKernel::MultiBit { grouping_factor: 3 }];
    let mut rows = Vec::new();

    // Gate circuits: analyzed under the headline 128-bit set (the
    // adder/equality examples and benches run set II).
    let gate_params = TfheParameters::set_ii();
    let adder = ripple_carry_adder_program(GATE_BITS);
    let equality = equality_program(GATE_BITS);
    for kernel in kernels {
        rows.push(Row::new("adder-8bit", &adder, &gate_params, kernel));
        rows.push(Row::new("equality-8bit", &equality, &gate_params, kernel));
    }

    // The Deep-NN ReLU schedule, at every polynomial size the paper
    // evaluates (Fig. 7).
    for poly in strix_workloads::nn::ZAMA_POLY_SIZES {
        let params = TfheParameters::deep_nn(poly).map_err(|e| e.to_string())?;
        let schedule = ReluSchedule::new(NN_DEPTH, NN_WIDTH, NN_SEED);
        let program = schedule.program(poly).map_err(|e| e.to_string())?;
        for kernel in kernels {
            rows.push(Row::new("deep-nn-relu", &program, &params, kernel));
        }
    }
    Ok(rows)
}

fn print_table(rows: &[Row], threshold: f64) {
    println!("# Static noise-budget analysis (threshold: {threshold:.1} sigmas)");
    println!();
    println!(
        "| workload | params | kernel | requests (built → run) | pbs depth (built → run) \
         | max gain | worst margin σ (built → run) | verdict |"
    );
    println!("|---|---|---|---:|---:|---:|---:|---|");
    for row in rows {
        let (built, runs) = (&row.built, row.runs(threshold));
        let verdict = if row.failure(threshold).is_none() { "pass" } else { "FAIL" };
        println!(
            "| {} | {} | {} | {} → {} | {} → {} | {:.0} | {:.1} → {:.1} | {} |",
            row.workload,
            row.params,
            kernel_label(row.kernel),
            built.reports.len(),
            runs.reports.len(),
            built.pbs_depth,
            runs.pbs_depth,
            runs.max_linear_gain,
            built.worst_margin_sigmas(),
            runs.worst_margin_sigmas(),
            verdict,
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut threshold = CHECK_THRESHOLD_SIGMAS;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => check = true,
            "--threshold" => {
                i += 1;
                threshold = match args.get(i).map(|s| s.parse::<f64>()) {
                    Some(Ok(t)) => t,
                    _ => {
                        eprintln!("--threshold needs a numeric argument");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: analyze_program [--check] [--threshold SIGMAS]");
                eprintln!(
                    "note: margins are SIMD-backend-independent (every STRIX_FFT_BACKEND \
                     tier is bit-identical), so there is no --backend flag here"
                );
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let rows = match rows() {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("failed to build workload programs: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&rows, threshold);

    let worst = rows.iter().min_by(|a, b| {
        let margin = |r: &Row| r.runs(threshold).worst_margin_sigmas();
        margin(a).total_cmp(&margin(b))
    });
    if let Some(row) = worst {
        println!();
        match row.runs(threshold).worst_report() {
            Some(r) => println!(
                "Tightest node overall: {} / {} node {} at {:.1} sigmas \
                 (variance {:.3e}, distance {:.3e}).",
                row.workload,
                kernel_label(row.kernel),
                r.node,
                r.margin_sigmas,
                r.decision_variance,
                r.decision_distance,
            ),
            None => println!("No program bootstraps; nothing to bound."),
        }
    }

    if check {
        let failed: Vec<(&Row, String)> =
            rows.iter().filter_map(|r| r.failure(threshold).map(|why| (r, why))).collect();
        if !failed.is_empty() {
            eprintln!();
            for (row, why) in &failed {
                eprintln!(
                    "FAIL: {} under {} ({}): {why}",
                    row.workload,
                    kernel_label(row.kernel),
                    row.params,
                );
            }
            return ExitCode::FAILURE;
        }
        println!(
            "\nanalyze_program --check: every workload clears {threshold:.1} sigmas, \
             and lowering never raises requests or depth."
        );
    }
    ExitCode::SUCCESS
}
