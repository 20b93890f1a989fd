//! Static noise-budget verification for [`Program`] DAGs.
//!
//! TFHE decryption is probabilistic: every ciphertext carries Gaussian
//! noise, linear preambles amplify it by the squared weights, and each
//! programmable bootstrap both *consumes* the accumulated noise (the
//! blind rotation decides which LUT box the phase lands in) and
//! *resets* it to the kernel's fixed output level. A program whose
//! weighted sums push the pre-bootstrap noise too close to a LUT's box
//! boundary will silently flip bits at some per-gate probability — a
//! failure mode no amount of testing on one key seed reliably catches.
//!
//! This module is an abstract interpreter over that noise semantics:
//! it walks a program's DAG once, propagating a per-wire noise
//! *variance* through the same kernel-aware model `strix-tfhe`
//! validates against measurement ([`strix_tfhe::noise`]), and reports
//! the *decision margin* of every bootstrap — the distance from the
//! encoded message to the nearest LUT box boundary, in standard
//! deviations of the predicted accumulated noise. A margin of `k`
//! sigmas bounds the per-node error probability by `erfc(k/√2)/2`
//! (≈ 1e-9 at 6σ, ≈ 7.7e-24 at 10σ).
//!
//! Per-node variance rules:
//!
//! * **input wire** — fresh encryption variance
//!   ([`noise::fresh_lwe_variance`]);
//! * **NOT** — negation preserves variance;
//! * **gate** — the recipe's linear preamble `Σ wᵢ·inᵢ + offset` over
//!   its 1–3 inputs accumulates `Σ wᵢ²·var(inᵢ)`, plus the
//!   modulus-switch rounding variance; the decision distance is the
//!   recipe's own worst-case distance to a sign-LUT boundary over all
//!   `2^k` input patterns (1/8 for the unit-weight gates and a lowered
//!   majority, 1/4 for XOR/XNOR and a lowered three-way parity — the ±2
//!   weights amplify the noise but the offsets also double the
//!   distance). The output resets to the PBS output variance of the
//!   policy's kernel plus the keyswitch tail;
//! * **linear LUT** — identically, with the node's own weights
//!   (`Σ wᵢ²·var(inputᵢ)`) and the LUT's own decision distance
//!   (`2^-(p+2)` for a `p`-bit table).
//!
//! Dead nodes (pruned by both execution paths) are skipped, so a
//! program is judged exactly on the requests it will submit.
//!
//! [`AdmissionPolicy`] packages the analysis with a rejection
//! threshold: the runtime captures one from its executor at start-up
//! ([`crate::BatchExecutor::admission`]) and every
//! [`ProgramSession`](crate::session::ProgramSession) vets its program
//! *before the first request is enqueued*, surfacing
//! [`RuntimeError::NoiseBudgetExceeded`] at admission instead of a
//! wrong decryption at the client.
//!
//! Admission also picks which form of the program runs. It analyzes
//! the bootstrap-minimised form ([`Program::lowered`]) first and admits
//! it if its worst margin clears the threshold; otherwise it judges the
//! program as built, so lowering never turns an admitted program away.
//! Collapsing gates moves margin both ways: a majority or parity over
//! fresh inputs reads less noise than the gate chain it replaces,
//! while a parity over three bootstrap outputs reads more (gain 12
//! instead of two XORs' 8). The choice is recorded on the program for
//! the session and [`Program::run_sync`] to share.

use strix_tfhe::noise;
use strix_tfhe::{PbsKernel, ServerKey, TfheParameters};

use crate::error::RuntimeError;
use crate::session::{NodeOp, Program, Wire};

/// Default minimum decision margin, in sigmas, required at every
/// bootstrap. 6σ bounds the per-node error probability at roughly
/// 1e-9 — comfortably below the per-gate failure rates published for
/// gate-bootstrapped TFHE parameter sets, while still rejecting
/// programs whose weighted preambles genuinely overdrive the budget.
pub const DEFAULT_THRESHOLD_SIGMAS: f64 = 6.0;

/// The analyzer's verdict on one request node (gate or linear LUT):
/// how much noise arrives at its bootstrap and how far the encoding
/// keeps it from a wrong LUT box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireReport {
    /// Index of the program node this report describes.
    pub node: usize,
    /// Predicted variance of the noise entering the node's blind
    /// rotation: the weighted input variances plus the modulus-switch
    /// rounding term.
    pub decision_variance: f64,
    /// Distance from the encoded message to the nearest LUT box
    /// boundary (torus units): 1/8 for gates, `2^-(p+2)` for a `p`-bit
    /// LUT.
    pub decision_distance: f64,
    /// The decision margin in standard deviations:
    /// `distance / √variance`. The analyzer's per-node figure of
    /// merit.
    pub margin_sigmas: f64,
    /// Sum of squared preamble weights — the factor by which the
    /// node's linear stage amplifies its input variance.
    pub linear_gain: f64,
    /// The PBS kernel the node runs under the policy.
    pub kernel: PbsKernel,
    /// Variance of the wire the node hands downstream (PBS output for
    /// its kernel, plus the keyswitch tail).
    pub output_variance: f64,
}

/// The full static-analysis report for one program: one [`WireReport`]
/// per live request node, plus aggregates.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramAnalysis {
    /// Per-request-node reports, in node order (NOT and dead nodes
    /// carry no bootstrap and are absent).
    pub reports: Vec<WireReport>,
    /// Position in `reports` of the node with the smallest margin,
    /// `None` for a program with no request nodes.
    pub worst: Option<usize>,
    /// Largest squared-weight gain of any live preamble.
    pub max_linear_gain: f64,
    /// Longest chain of request nodes from any input to any output —
    /// the program's critical bootstrap depth.
    pub pbs_depth: usize,
    /// The threshold the analysis was judged against.
    pub threshold_sigmas: f64,
}

impl ProgramAnalysis {
    /// The report of the tightest node, if the program bootstraps at
    /// all.
    pub fn worst_report(&self) -> Option<&WireReport> {
        self.worst.map(|i| &self.reports[i])
    }

    /// Smallest margin across the program, in sigmas; infinite for a
    /// program with no bootstraps (nothing can mis-decide).
    pub fn worst_margin_sigmas(&self) -> f64 {
        self.worst_report().map_or(f64::INFINITY, |r| r.margin_sigmas)
    }

    /// Whether every node clears the threshold.
    pub fn passes(&self) -> bool {
        self.worst_margin_sigmas() >= self.threshold_sigmas
    }
}

/// A noise-budget admission policy: the parameter set and PBS kernel
/// to analyze against, plus the margin threshold to enforce.
///
/// The kernel here is analysed as given. To predict an execution it
/// should name the kernel that runs — the kernel of the key being
/// served, which is what
/// [`TfheExecutor::admission`](crate::TfheExecutor) constructs.
#[derive(Clone, Debug, PartialEq)]
pub struct AdmissionPolicy {
    params: TfheParameters,
    kernel: PbsKernel,
    threshold_sigmas: f64,
}

impl AdmissionPolicy {
    /// A policy over `params`, every bootstrap on `kernel`, at the
    /// [`DEFAULT_THRESHOLD_SIGMAS`] threshold.
    pub fn new(params: TfheParameters, kernel: PbsKernel) -> Self {
        Self { params, kernel, threshold_sigmas: DEFAULT_THRESHOLD_SIGMAS }
    }

    /// Overrides the margin threshold (sigmas). Non-positive admits
    /// every well-formed program.
    pub fn with_threshold(mut self, sigmas: f64) -> Self {
        self.threshold_sigmas = sigmas;
        self
    }

    /// The threshold this policy enforces, in sigmas.
    pub fn threshold_sigmas(&self) -> f64 {
        self.threshold_sigmas
    }

    /// Runs the abstract interpretation and returns the full report,
    /// pass or fail.
    pub fn analyze(&self, program: &Program) -> ProgramAnalysis {
        analyze(program, &self.params, self.kernel, self.threshold_sigmas)
    }

    /// The policy a [`TfheExecutor`](crate::TfheExecutor) on `server`
    /// admits with by default: the key's own kernel, at the
    /// [`DEFAULT_THRESHOLD_SIGMAS`] threshold.
    pub(crate) fn for_server(server: &ServerKey) -> Self {
        let kernel = server.bootstrap_key().kernel();
        Self::new(server.params().clone(), kernel)
    }

    /// Picks the form of `program` to run and admits it: the lowered
    /// form ([`Program::lowered`]) if its worst margin clears the
    /// threshold, otherwise the program as built. Returns the analysis
    /// of the admitted form; see [`Self::admit`].
    ///
    /// # Errors
    ///
    /// As [`Self::admit`].
    pub(crate) fn choose<'p>(
        &self,
        program: &'p Program,
    ) -> Result<(&'p Program, ProgramAnalysis), RuntimeError> {
        let lowered = program.lowered();
        if !std::ptr::eq(lowered, program) {
            let analysis = self.analyze(lowered);
            if analysis.passes() {
                program.record_choice(true);
                return Ok((lowered, analysis));
            }
        }
        let analysis = self.analyze(program);
        match analysis.worst_report() {
            Some(worst) if worst.margin_sigmas < analysis.threshold_sigmas => {
                Err(RuntimeError::NoiseBudgetExceeded {
                    node: worst.node,
                    margin_sigmas: worst.margin_sigmas,
                    threshold_sigmas: analysis.threshold_sigmas,
                })
            }
            _ => {
                program.record_choice(false);
                Ok((program, analysis))
            }
        }
    }

    /// Admits `program` in the form that will run: its lowered form if
    /// that clears the threshold, else the program as built, so no
    /// program the as-built analysis admits is ever refused. The choice
    /// is recorded on the program, and every
    /// [`ProgramSession`](crate::session::ProgramSession) and
    /// [`Program::run_sync`] that follows runs the same form. Returns
    /// the admitted form's analysis.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoiseBudgetExceeded`] carrying the offending
    /// node of the program as built and its predicted margin when
    /// neither form clears the threshold.
    pub fn admit(&self, program: &Program) -> Result<ProgramAnalysis, RuntimeError> {
        self.choose(program).map(|(_, analysis)| analysis)
    }
}

/// Walks `program`'s DAG once, propagating per-wire noise variance
/// under `params` with every bootstrap on `kernel`, and
/// reports every live bootstrap's decision margin against
/// `threshold_sigmas`.
///
/// Builder methods guarantee every node's inputs precede it, so a
/// single forward pass visits producers before consumers.
pub fn analyze(
    program: &Program,
    params: &TfheParameters,
    kernel: PbsKernel,
    threshold_sigmas: f64,
) -> ProgramAnalysis {
    let needed = program.needed_nodes();
    let depths = program.pbs_depths();
    let input_variance = noise::fresh_lwe_variance(params);
    let ms = noise::modswitch_variance(params);
    // Per-node variance handed downstream.
    let mut variances = vec![0.0f64; program.nodes.len()];
    let mut reports = Vec::new();
    let mut max_linear_gain: f64 = 0.0;
    let mut pbs_depth = 0usize;

    let variance = |variances: &[f64], w: Wire| match w {
        Wire::Input(_) => input_variance,
        Wire::Node(n) => variances[n],
    };

    for (idx, node) in program.nodes.iter().enumerate() {
        if !needed[idx] {
            continue;
        }
        // (weights over the node's inputs, decision distance)
        let bootstrap = match &node.op {
            NodeOp::Not => {
                variances[idx] = variance(&variances, node.inputs[0]);
                None
            }
            NodeOp::Gate(recipe) => Some((recipe.weights().to_vec(), recipe.decision_distance())),
            NodeOp::LinearLut { weights, lut, .. } => {
                Some((weights.clone(), lut.decision_distance()))
            }
        };
        let Some((weights, distance)) = bootstrap else {
            continue;
        };
        let mut decision_variance = ms;
        let mut linear_gain = 0.0;
        for (&w, &input) in weights.iter().zip(&node.inputs) {
            let gain = (w as f64) * (w as f64);
            decision_variance += gain * variance(&variances, input);
            linear_gain += gain;
        }
        let output_variance = noise::lut_output_variance_for(params, kernel);
        let margin = noise::margin_sigmas(distance, decision_variance);
        variances[idx] = output_variance;
        pbs_depth = pbs_depth.max(depths[idx]);
        max_linear_gain = max_linear_gain.max(linear_gain);
        reports.push(WireReport {
            node: idx,
            decision_variance,
            decision_distance: distance,
            margin_sigmas: margin,
            linear_gain,
            kernel,
            output_variance,
        });
    }

    let worst = reports
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.margin_sigmas.total_cmp(&b.margin_sigmas))
        .map(|(i, _)| i);
    ProgramAnalysis { reports, worst, max_linear_gain, pbs_depth, threshold_sigmas }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use strix_tfhe::boolean::BinaryGate;
    use strix_tfhe::bootstrap::Lut;

    use super::*;

    fn params() -> TfheParameters {
        TfheParameters::testing_fast()
    }

    #[test]
    fn gate_program_matches_closed_form_gate_margin() {
        // A single gate over fresh inputs: the analyzer's weighted-sum
        // rule must reduce exactly to the closed-form gate model when
        // the weights are ±1 and the inputs carry bootstrap-output
        // variance — so pin the fresh-input case against the same
        // formula assembled by hand.
        let p = params();
        let mut program = Program::new(2);
        let g = program.gate(BinaryGate::And, Wire::Input(0), Wire::Input(1));
        program.output(g);
        let analysis = analyze(&program, &p, PbsKernel::Classical, DEFAULT_THRESHOLD_SIGMAS);
        assert_eq!(analysis.reports.len(), 1);
        let r = &analysis.reports[0];
        let expected = 2.0 * noise::fresh_lwe_variance(&p) + noise::modswitch_variance(&p);
        assert!((r.decision_variance - expected).abs() / expected < 1e-12);
        assert_eq!(r.decision_distance, noise::GATE_DECISION_DISTANCE);
        assert_eq!(analysis.pbs_depth, 1);
    }

    #[test]
    fn chained_gates_see_bootstrap_output_variance() {
        // Second-level gates consume keyswitched bootstrap outputs, so
        // their decision variance is exactly the closed-form
        // gate_decision_variance (2·(pbs+ks) + ms) — the model the
        // measured-noise suite validates.
        let p = params();
        let mut program = Program::new(2);
        let a = program.gate(BinaryGate::Xor, Wire::Input(0), Wire::Input(1));
        let b = program.gate(BinaryGate::Xor, Wire::Input(0), Wire::Input(1));
        let top = program.gate(BinaryGate::And, a, b);
        program.output(top);
        let analysis = analyze(&program, &p, PbsKernel::Classical, DEFAULT_THRESHOLD_SIGMAS);
        let top_report = analysis.reports.iter().find(|r| r.node == 2).unwrap();
        let expected = noise::gate_decision_variance_for(&p, PbsKernel::Classical);
        assert!((top_report.decision_variance - expected).abs() / expected < 1e-12);
        let expected_margin = noise::gate_margin_sigmas_for(&p, PbsKernel::Classical);
        assert!((top_report.margin_sigmas - expected_margin).abs() / expected_margin < 1e-12);
        assert_eq!(analysis.pbs_depth, 2);
    }

    #[test]
    fn xor_weights_amplify_variance_four_fold() {
        let p = params();
        let mut and_prog = Program::new(2);
        let g = and_prog.gate(BinaryGate::And, Wire::Input(0), Wire::Input(1));
        and_prog.output(g);
        let mut xor_prog = Program::new(2);
        let g = xor_prog.gate(BinaryGate::Xor, Wire::Input(0), Wire::Input(1));
        xor_prog.output(g);
        let and = analyze(&and_prog, &p, PbsKernel::Classical, 0.0);
        let xor = analyze(&xor_prog, &p, PbsKernel::Classical, 0.0);
        let and_input_var = and.reports[0].decision_variance - noise::modswitch_variance(&p);
        let xor_input_var = xor.reports[0].decision_variance - noise::modswitch_variance(&p);
        assert!((xor_input_var / and_input_var - 4.0).abs() < 1e-9);
        assert_eq!(xor.reports[0].linear_gain, 8.0);
        assert_eq!(and.reports[0].linear_gain, 2.0);
        // ...but the XOR offsets also double the decision distance, so
        // the two gates keep comparable margins.
        assert_eq!(xor.reports[0].decision_distance, 0.25);
        assert_eq!(and.reports[0].decision_distance, 0.125);
    }

    #[test]
    fn not_nodes_are_free_and_transparent() {
        let p = params();
        let mut program = Program::new(2);
        let g = program.gate(BinaryGate::And, Wire::Input(0), Wire::Input(1));
        let n = program.not(g);
        let top = program.gate(BinaryGate::Or, n, Wire::Input(0));
        program.output(top);
        let analysis = analyze(&program, &p, PbsKernel::Classical, DEFAULT_THRESHOLD_SIGMAS);
        // Two reports (the gates); NOT contributes no bootstrap and
        // passes its input variance through unchanged.
        assert_eq!(analysis.reports.len(), 2);
        assert_eq!(analysis.pbs_depth, 2);
        let top_report = analysis.reports.iter().find(|r| r.node == 2).unwrap();
        let expected = noise::lut_output_variance_for(&p, PbsKernel::Classical)
            + noise::fresh_lwe_variance(&p)
            + noise::modswitch_variance(&p);
        assert!((top_report.decision_variance - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn dead_nodes_are_not_analyzed() {
        let p = params();
        let mut program = Program::new(2);
        let live = program.gate(BinaryGate::And, Wire::Input(0), Wire::Input(1));
        // A dead node with absurd weights must not fail admission: the
        // session never submits it.
        let lut = Arc::new(Lut::from_function(p.polynomial_size, 2, |m| m).unwrap());
        let _dead = program.linear_lut(vec![1 << 20], vec![Wire::Input(0)], 0, lut);
        program.output(live);
        let analysis = analyze(&program, &p, PbsKernel::Classical, DEFAULT_THRESHOLD_SIGMAS);
        assert_eq!(analysis.reports.len(), 1);
        assert_eq!(analysis.reports[0].node, 0);
        assert!(analysis.passes());
    }

    #[test]
    fn passthrough_program_has_infinite_margin() {
        let p = params();
        let mut program = Program::new(1);
        program.output(Wire::Input(0));
        let analysis = analyze(&program, &p, PbsKernel::Classical, DEFAULT_THRESHOLD_SIGMAS);
        assert!(analysis.reports.is_empty());
        assert_eq!(analysis.worst, None);
        assert_eq!(analysis.worst_margin_sigmas(), f64::INFINITY);
        assert!(analysis.passes());
        assert_eq!(analysis.pbs_depth, 0);
    }

    #[test]
    fn admission_rejects_overweighted_linear_lut() {
        let p = params();
        let lut = Arc::new(Lut::from_function(p.polynomial_size, 2, |m| m).unwrap());
        let mut program = Program::new(2);
        let node = program.linear_lut(
            vec![1 << 16, 1 << 16],
            vec![Wire::Input(0), Wire::Input(1)],
            0,
            Arc::clone(&lut),
        );
        program.output(node);
        let policy = AdmissionPolicy::new(p, PbsKernel::Classical);
        let err = policy.admit(&program).unwrap_err();
        match err {
            RuntimeError::NoiseBudgetExceeded { node, margin_sigmas, threshold_sigmas } => {
                assert_eq!(node, 0);
                assert!(margin_sigmas < threshold_sigmas);
                assert_eq!(threshold_sigmas, DEFAULT_THRESHOLD_SIGMAS);
            }
            other => panic!("expected NoiseBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn multi_bit_kernel_changes_output_variance_only() {
        let p = params();
        let mut program = Program::new(2);
        let a = program.gate(BinaryGate::And, Wire::Input(0), Wire::Input(1));
        let top = program.gate(BinaryGate::And, a, Wire::Input(0));
        program.output(top);
        let mb = PbsKernel::MultiBit { grouping_factor: 3 };
        let classical_run = analyze(&program, &p, PbsKernel::Classical, 0.0);
        let mb_run = analyze(&program, &p, mb, 0.0);
        // First-level gates see fresh inputs either way...
        assert_eq!(classical_run.reports[0].decision_variance, mb_run.reports[0].decision_variance);
        // ...while the second level inherits each kernel's output
        // level, so the variances (and kernels) differ.
        assert_ne!(classical_run.reports[1].decision_variance, mb_run.reports[1].decision_variance);
        assert_eq!(mb_run.reports[1].kernel, PbsKernel::MultiBit { grouping_factor: 3 });
    }

    #[test]
    fn threshold_zero_admits_everything_well_formed() {
        let p = params();
        let lut = Arc::new(Lut::from_function(p.polynomial_size, 2, |m| m).unwrap());
        let mut program = Program::new(1);
        let node = program.linear_lut(vec![1 << 20], vec![Wire::Input(0)], 0, lut);
        program.output(node);
        let policy = AdmissionPolicy::new(p, PbsKernel::Classical).with_threshold(0.0);
        assert!(policy.admit(&program).is_ok());
    }
}
