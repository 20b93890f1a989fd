//! Integration tests of the session/dataflow layer: multi-stage
//! circuit DAGs and Deep-NN ReLU schedules streamed through the
//! runtime, epoch-occupancy gains from concurrent circuit clients, and
//! streamed-vs-synchronous equivalence (including a property test over
//! random DAGs), and the bootstrap-minimising lowering: plaintext
//! equivalence, shape, and the admission policy's fallback to the
//! program as built.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use strix::core::{BatchGeometry, Workload, WorkloadNode};
use strix::runtime::session::{Program, ProgramSession, Wire};
use strix::runtime::{AdmissionPolicy, Runtime, RuntimeConfig, TfheExecutor};
use strix::tfhe::boolean::BinaryGate;
use strix::tfhe::bootstrap::decode_bool;
use strix::tfhe::lwe::LweCiphertext;
use strix::tfhe::prelude::*;
use strix::workloads::gates::{equality_program, ripple_carry_adder_program};
use strix::workloads::nn::{ReluSchedule, RELU_MESSAGE_BITS};

fn keys() -> &'static (ClientKey, ServerKey) {
    static KEYS: OnceLock<(ClientKey, ServerKey)> = OnceLock::new();
    KEYS.get_or_init(|| generate_keys(&TfheParameters::testing_fast(), 0xDA7AF10))
}

/// Keys for the testing parameters on the multi-bit kernel (g = 2).
fn multi_bit_keys() -> &'static (ClientKey, ServerKey) {
    static KEYS: OnceLock<(ClientKey, ServerKey)> = OnceLock::new();
    KEYS.get_or_init(|| {
        let kernel = PbsKernel::MultiBit { grouping_factor: 2 };
        generate_keys(&TfheParameters::testing_fast().with_kernel(kernel), 0xDA7AF11)
    })
}

fn encrypt_bits(client: &mut ClientKey, value: u64, bits: usize) -> Vec<LweCiphertext> {
    (0..bits).map(|i| client.encrypt_bool((value >> i) & 1 == 1).into_lwe()).collect()
}

fn decode_bits(client: &ClientKey, cts: &[LweCiphertext]) -> u64 {
    cts.iter()
        .enumerate()
        .map(|(i, ct)| (decode_bool(client.decrypt_phase(ct).unwrap()) as u64) << i)
        .sum()
}

/// Runs the per-client circuit mix (3-bit adder, then 3-bit equality)
/// through one client handle and checks the decrypted results.
fn run_circuit_mix(runtime: &Runtime, mut key: ClientKey, a: u64, b: u64) {
    const BITS: usize = 3;
    let mut handle = runtime.client();

    let adder = ripple_carry_adder_program(BITS);
    let mut inputs = encrypt_bits(&mut key, a, BITS);
    inputs.extend(encrypt_bits(&mut key, b, BITS));
    let session = ProgramSession::new(&adder, inputs).unwrap();
    let sum = session.run(&mut handle).unwrap();
    assert_eq!(decode_bits(&key, &sum), a + b, "{a}+{b}");

    let eq = equality_program(BITS);
    let mut inputs = encrypt_bits(&mut key, a, BITS);
    inputs.extend(encrypt_bits(&mut key, b, BITS));
    let session = ProgramSession::new(&eq, inputs).unwrap();
    let out = session.run(&mut handle).unwrap();
    assert_eq!(decode_bool(key.decrypt_phase(&out[0]).unwrap()), a == b, "{a}=={b}");
}

#[test]
fn concurrent_circuit_clients_beat_sequential_epoch_occupancy() {
    // The acceptance bar of the session layer: 8 concurrent circuit
    // clients must fill epochs at least 1.5x better than 1 sequential
    // client running the same circuit mix, because independent stages
    // from different sessions interleave into shared epochs.
    const CLIENTS: u64 = 8;
    let (client_key, server_key) = keys().clone();
    let server_key = Arc::new(server_key);
    let config = RuntimeConfig::new(BatchGeometry::explicit(2, 8))
        .with_max_delay(Duration::from_millis(30))
        .with_workers(1);

    // One sequential client.
    let runtime = Runtime::start(config, TfheExecutor::new(Arc::clone(&server_key)));
    run_circuit_mix(&runtime, client_key.clone(), 5, 3);
    let sequential = runtime.shutdown();
    assert_eq!(sequential.requests_failed, 0);

    // Eight concurrent clients, same mix each.
    let runtime = Runtime::start(config, TfheExecutor::new(Arc::clone(&server_key)));
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let key = client_key.clone();
            let runtime = &runtime;
            scope.spawn(move || run_circuit_mix(runtime, key, (c + 2) % 8, (3 * c) % 8));
        }
    });
    let concurrent = runtime.shutdown();
    assert_eq!(concurrent.requests_failed, 0);
    assert_eq!(
        concurrent.requests_completed,
        CLIENTS as usize * sequential.requests_completed,
        "same mix per client"
    );
    // Every request in the mix carries a fused gate preamble.
    assert_eq!(concurrent.fused_linear_completed, concurrent.requests_completed);

    assert!(
        concurrent.mean_batch_occupancy >= 1.5 * sequential.mean_batch_occupancy,
        "concurrent occupancy {:.3} not >= 1.5x sequential {:.3} (histograms {:?} vs {:?})",
        concurrent.mean_batch_occupancy,
        sequential.mean_batch_occupancy,
        concurrent.occupancy_histogram,
        sequential.occupancy_histogram,
    );
}

#[test]
fn streamed_deep_nn_matches_synchronous_and_plaintext() {
    // A depth-5 quantised ReLU schedule: the streamed execution must
    // be *bit-identical* to the synchronous reference (same linear
    // preamble, deterministic PBS+KS) and both must decode to the
    // plaintext model.
    let (client_key, server_key) = keys().clone();
    let mut key = client_key;
    let params = key.params().clone();
    let nn = ReluSchedule::new(5, 2, 0xF167);
    let program = nn.program(params.polynomial_size).unwrap();
    let inputs_plain = [1u64, 2];
    let inputs: Vec<LweCiphertext> = inputs_plain
        .iter()
        .map(|&m| key.encrypt_shortint(m, RELU_MESSAGE_BITS).unwrap().as_lwe().clone())
        .collect();

    let sync = program.run_sync(&server_key, &inputs).unwrap();

    let runtime = Runtime::start(
        RuntimeConfig::new(BatchGeometry::explicit(2, 2))
            .with_max_delay(Duration::from_millis(2))
            .with_workers(2),
        TfheExecutor::new(Arc::new(server_key)),
    );
    let mut handle = runtime.client();
    let session = ProgramSession::new(&program, inputs).unwrap();
    let streamed = session.run(&mut handle).unwrap();
    let report = runtime.shutdown();
    assert_eq!(report.requests_completed, program.workload().total_pbs());
    assert_eq!(report.requests_failed, 0);

    assert_eq!(streamed, sync, "streamed Deep-NN must be bit-identical to the sync path");
    let expected = nn.infer_plain(&inputs_plain);
    for (ct, want) in streamed.iter().zip(&expected) {
        let phase = key.decrypt_phase(ct).unwrap();
        assert_eq!(strix::tfhe::torus::decode_message(phase, RELU_MESSAGE_BITS + 1), *want);
    }
}

#[test]
fn failed_session_leaves_the_handle_clean_for_the_next_one() {
    // A malformed input (wrong LWE dimension) fails its node; the
    // session must drain its other in-flight responses on the way out
    // so the same handle can run a healthy session afterwards.
    let (client_key, server_key) = keys().clone();
    let mut key = client_key;
    let runtime = Runtime::start(
        RuntimeConfig::new(BatchGeometry::explicit(2, 2))
            .with_max_delay(Duration::from_millis(2))
            .with_workers(1),
        TfheExecutor::new(Arc::new(server_key)),
    );
    let mut handle = runtime.client();

    let mut program = Program::new(2);
    // Two independent gates: one healthy, one fed the bad input, so a
    // response really is left in flight when the failure surfaces.
    let good = program.gate(BinaryGate::And, Wire::Input(0), Wire::Input(0));
    let bad = program.gate(BinaryGate::Xor, Wire::Input(0), Wire::Input(1));
    program.output(good);
    program.output(bad);
    let inputs = vec![key.encrypt_bool(true).into_lwe(), LweCiphertext::trivial(7, 0)];
    let err = ProgramSession::new(&program, inputs).unwrap().run(&mut handle).unwrap_err();
    assert!(matches!(err, strix::runtime::RuntimeError::Tfhe(_)), "got {err:?}");

    // The handle is clean: a fresh session on it completes correctly.
    let mut healthy = Program::new(2);
    let out = healthy.gate(BinaryGate::Or, Wire::Input(0), Wire::Input(1));
    healthy.output(out);
    let inputs = vec![key.encrypt_bool(false).into_lwe(), key.encrypt_bool(true).into_lwe()];
    let outputs = ProgramSession::new(&healthy, inputs).unwrap().run(&mut handle).unwrap();
    assert!(decode_bool(key.decrypt_phase(&outputs[0]).unwrap()));
    runtime.shutdown();
}

/// A compact random-DAG description: each entry appends one gate node
/// whose operands are drawn from the inputs and all earlier nodes.
fn random_program(gates: &[(u8, u8, u8)], not_mask: u8, input_count: usize) -> Program {
    let mut program = Program::new(input_count);
    let mut wires: Vec<Wire> = (0..input_count).map(Wire::Input).collect();
    for (i, &(kind, a, b)) in gates.iter().enumerate() {
        let gate = BinaryGate::ALL[kind as usize % BinaryGate::ALL.len()];
        let wa = wires[a as usize % wires.len()];
        let wb = wires[b as usize % wires.len()];
        let mut out = program.gate(gate, wa, wb);
        if not_mask & (1 << (i % 8)) != 0 {
            out = program.not(out);
        }
        wires.push(out);
    }
    // Outputs: the final node plus one earlier wire, exercising both
    // deep and shallow resolution paths.
    program.output(*wires.last().unwrap());
    program.output(wires[wires.len() / 2]);
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_dag_streams_identically_to_sync_execution(
        gates in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..8),
        not_mask in any::<u8>(),
        input_bits in any::<u8>(),
    ) {
        let (client_key, server_key) = keys().clone();
        let mut key = client_key;
        const INPUTS: usize = 3;
        let program = random_program(&gates, not_mask, INPUTS);
        let inputs: Vec<LweCiphertext> = (0..INPUTS)
            .map(|i| key.encrypt_bool(input_bits & (1 << i) != 0).into_lwe())
            .collect();

        let sync = program.run_sync(&server_key, &inputs).unwrap();

        let runtime = Runtime::start(
            RuntimeConfig::new(BatchGeometry::explicit(2, 2))
                .with_max_delay(Duration::from_millis(2))
                .with_workers(2),
            TfheExecutor::new(Arc::new(server_key)),
        );
        let mut handle = runtime.client();
        let session = ProgramSession::new(&program, inputs).unwrap();
        let streamed = session.run(&mut handle).unwrap();
        runtime.shutdown();

        prop_assert_eq!(streamed, sync, "random DAG streamed != sync");
    }
}

/// The analysis of `program` as built under the testing parameters'
/// classical kernel: live request count, depth and worst margin.
fn shape(program: &Program) -> (usize, usize, f64) {
    let params = TfheParameters::testing_fast();
    let analysis = AdmissionPolicy::new(params, PbsKernel::Classical).analyze(program);
    (analysis.reports.len(), analysis.pbs_depth, analysis.worst_margin_sigmas())
}

/// PBS per `Pbs` node of a derived workload: one entry per bootstrap
/// level.
fn pbs_levels(workload: &Workload) -> Vec<usize> {
    let pbs = workload.nodes().iter().filter(|n| matches!(n, WorkloadNode::Pbs { .. }));
    pbs.map(WorkloadNode::pbs_count).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lowering never changes what a gate program computes, and never
    /// costs more bootstraps or a deeper chain than the program as
    /// built.
    #[test]
    fn lowered_random_dags_are_plaintext_equivalent_and_never_costlier(
        gates in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..12),
        not_mask in any::<u8>(),
    ) {
        const INPUTS: usize = 3;
        let program = random_program(&gates, not_mask, INPUTS);
        let lowered = program.lowered();
        for pattern in 0..1u8 << INPUTS {
            let bits: Vec<bool> = (0..INPUTS).map(|i| pattern & (1 << i) != 0).collect();
            prop_assert_eq!(
                lowered.evaluate_plain(&bits),
                program.evaluate_plain(&bits),
                "inputs {:?}", bits
            );
        }
        let (built_requests, built_depth, _) = shape(&program);
        let (requests, depth, _) = shape(lowered);
        prop_assert!(requests <= built_requests, "{} > {} requests", requests, built_requests);
        prop_assert!(depth <= built_depth, "depth {} > {}", depth, built_depth);
        prop_assert_eq!(program.bootstraps_removed(), built_requests - requests);
        // The simulator's graph, derived from either form, prices
        // exactly the requests the analyzer counts, one level per depth.
        let graph = |p: &Program| (pbs_levels(&p.workload()).len(), p.workload().total_pbs());
        prop_assert_eq!(graph(&program), (built_depth, built_requests));
        prop_assert_eq!(graph(lowered), (depth, requests));
    }
}

#[test]
fn lowered_adder_runs_eight_requests_at_depth_four_and_equality_keeps_seven() {
    let adder = ripple_carry_adder_program(4);
    let (requests, depth, _) = shape(&adder);
    assert_eq!((requests, depth), (17, 7), "the builder is unchanged");
    let (requests, depth, _) = shape(adder.lowered());
    assert_eq!((requests, depth), (8, 4), "half adder + three MAJ/parity pairs");
    assert_eq!(adder.bootstraps_removed(), 9);

    let workload = adder.lowered().workload();
    assert_eq!(pbs_levels(&workload), [2, 2, 2, 2], "8 PBS over the 4 levels of the analyzer");

    let equality = equality_program(4);
    assert_eq!(shape(equality.lowered()).0, 7, "no three-leaf cone is a sign-LUT function");
    assert_eq!(equality.bootstraps_removed(), 0);
    let workload = equality.lowered().workload();
    assert_eq!(pbs_levels(&workload), [4, 2, 1]);
    assert_eq!(pbs_levels(&workload).len(), shape(&equality).1);
}

/// Runs `program` once streamed through a runtime on `keys` admitting
/// at `threshold` and once through `run_sync`, on the same inputs;
/// returns both outputs and the runtime report.
fn streamed_and_sync(
    keys: &(ClientKey, ServerKey),
    program: &Program,
    threshold: f64,
    bits: &[bool],
) -> (Vec<LweCiphertext>, Vec<LweCiphertext>, strix::runtime::RuntimeReport) {
    let (client_key, server_key) = keys.clone();
    let mut key = client_key;
    let inputs: Vec<LweCiphertext> = bits.iter().map(|&b| key.encrypt_bool(b).into_lwe()).collect();
    let runtime = Runtime::start(
        RuntimeConfig::new(BatchGeometry::explicit(2, 2))
            .with_max_delay(Duration::from_millis(2))
            .with_workers(1),
        TfheExecutor::new(Arc::new(server_key.clone())).with_admission_threshold(threshold),
    );
    let mut handle = runtime.client();
    let streamed = ProgramSession::new(program, inputs.clone()).unwrap().run(&mut handle).unwrap();
    let report = runtime.shutdown();
    let sync = program.run_sync(&server_key, &inputs).unwrap();
    for (ct, want) in streamed.iter().zip(program.evaluate_plain(bits).unwrap()) {
        assert_eq!(decode_bool(key.decrypt_phase(ct).unwrap()), want);
    }
    (streamed, sync, report)
}

#[test]
fn admission_runs_the_lowered_form_and_counts_the_bootstraps_it_saves() {
    let adder = ripple_carry_adder_program(2);
    let bits = [true, true, false, true];
    let (streamed, sync, report) = streamed_and_sync(keys(), &adder, 6.0, &bits);
    assert_eq!(streamed, sync, "streamed lowered adder must be bit-identical to run_sync");
    assert_eq!(report.requests_completed, shape(adder.lowered()).0);
    // The simulator's graph of the admitted form prices what streamed.
    assert_eq!(report.requests_completed, adder.lowered().workload().total_pbs());
    assert_eq!(report.bootstraps_lowered_away, adder.bootstraps_removed() as u64);
    assert!(report.summary().contains("bootstraps removed"));
}

#[test]
fn a_threshold_between_the_margins_falls_back_to_the_program_as_built() {
    // Three-way parity over bootstrapped wires: the lowered parity
    // reads three bootstrap outputs at gain 12 where the as-built XORs
    // read two at gain 8, so lowering *costs* margin here.
    let mut program = Program::new(6);
    let g: Vec<Wire> = (0..3)
        .map(|i| program.gate(BinaryGate::And, Wire::Input(2 * i), Wire::Input(2 * i + 1)))
        .collect();
    let x = program.gate(BinaryGate::Xor, g[0], g[1]);
    let parity = program.gate(BinaryGate::Xor, x, g[2]);
    program.output(parity);
    let (built_requests, _, built_margin) = shape(&program);
    let (lowered_requests, _, lowered_margin) = shape(program.lowered());
    assert!(lowered_requests < built_requests);
    assert!(
        lowered_margin < built_margin,
        "lowered {lowered_margin:.2} vs built {built_margin:.2} sigmas"
    );
    let threshold = (lowered_margin + built_margin) / 2.0;

    let bits = [true, true, false, true, true, true];
    let (streamed, sync, report) = streamed_and_sync(keys(), &program, threshold, &bits);
    assert_eq!(report.requests_completed, built_requests, "the program as built ran");
    assert_eq!(report.bootstraps_lowered_away, 0);
    assert_eq!(streamed, sync, "fallback run must be bit-identical to run_sync");
}

#[test]
fn multi_bit_streamed_lowered_adder_is_bit_identical_to_run_sync() {
    // `run_sync` bootstraps on the kernel the executor resolves, so on
    // a multi-bit key both paths run the grouped kernel.
    let adder = ripple_carry_adder_program(2);
    let bits = [true, false, true, true];
    let (streamed, sync, report) = streamed_and_sync(multi_bit_keys(), &adder, 6.0, &bits);
    assert_eq!(report.requests_completed, shape(adder.lowered()).0, "the lowered form ran");
    assert_eq!(report.pbs_jobs_multi_bit, report.requests_completed);
    assert_eq!(report.pbs_jobs_classical, 0);
    assert_eq!(streamed, sync, "multi-bit streamed adder must be bit-identical to run_sync");
}
