//! Session/dataflow bench: epoch occupancy and PBS/s as concurrent
//! circuit clients stream multi-stage programs through the runtime.
//!
//! One client executing a circuit DAG alone keeps only its dependency
//! frontier in flight, so its epochs go out undersized — the
//! fragmentation cost of the paper's Fig. 2. This harness sweeps
//! the concurrent-client count over the same per-client circuit mix
//! (a 4-bit ripple-carry adder plus a 4-bit equality comparator
//! compiled to dataflow programs) and prints how interleaved sessions
//! recover full `TvLP × core_batch` epochs.
//!
//! ```sh
//! cargo bench -p strix-bench --bench session_dataflow
//! ```

use std::sync::Arc;
use std::time::Duration;

use strix_core::BatchGeometry;
use strix_runtime::session::ProgramSession;
use strix_runtime::{Runtime, RuntimeConfig, RuntimeReport, TfheExecutor};
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::prelude::*;
use strix_workloads::gates::{equality_program, ripple_carry_adder_program};

const BITS: usize = 4;
const CLIENT_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn encrypt_bits(key: &mut ClientKey, value: u64) -> Vec<LweCiphertext> {
    (0..BITS).map(|i| key.encrypt_bool((value >> i) & 1 == 1).into_lwe()).collect()
}

fn run_mix(runtime: &Runtime, key: &mut ClientKey, a: u64, b: u64) {
    let mut handle = runtime.client();
    for program in [ripple_carry_adder_program(BITS), equality_program(BITS)] {
        let mut inputs = encrypt_bits(key, a);
        inputs.extend(encrypt_bits(key, b));
        let session = ProgramSession::new(&program, inputs).expect("input arity");
        session.run(&mut handle).expect("program completes");
    }
}

fn sweep(clients: usize, client_key: &ClientKey, server_key: &Arc<ServerKey>) -> RuntimeReport {
    let runtime = Runtime::start(
        RuntimeConfig::new(BatchGeometry::explicit(2, 8))
            .with_max_delay(Duration::from_millis(10))
            .with_workers(1),
        TfheExecutor::new(Arc::clone(server_key)),
    );
    std::thread::scope(|scope| {
        for c in 0..clients as u64 {
            let mut key = client_key.clone();
            let runtime = &runtime;
            scope.spawn(move || run_mix(runtime, &mut key, (c + 5) % 16, (3 * c + 1) % 16));
        }
    });
    runtime.shutdown()
}

fn main() {
    let params = TfheParameters::testing_fast();
    let (client_key, server_key) = generate_keys(&params, 0x5e5510);
    let server_key = Arc::new(server_key);

    println!("## Session dataflow: concurrent circuit clients vs epoch occupancy");
    println!();
    println!(
        "per-client mix: {BITS}-bit adder + {BITS}-bit equality \
         ({} fused-gate requests as built, {} after lowering), epoch capacity 16",
        ripple_carry_adder_program(BITS).request_count() + equality_program(BITS).request_count(),
        ripple_carry_adder_program(BITS).lowered().request_count()
            + equality_program(BITS).lowered().request_count()
    );
    println!();
    println!("| clients | requests | epochs | mean occupancy | PBS/s | p99 ms |");
    println!("|---------|----------|--------|----------------|-------|--------|");
    let mut baseline = None;
    for clients in CLIENT_SWEEP {
        let report = sweep(clients, &client_key, &server_key);
        assert_eq!(report.requests_failed, 0, "bench run must not fail requests");
        let occ = report.mean_batch_occupancy;
        let baseline_occ = *baseline.get_or_insert(occ);
        println!(
            "| {clients} | {} | {} | {:.1}% ({:.2}x) | {:.0} | {:.2} |",
            report.requests_completed,
            report.epochs,
            occ * 100.0,
            occ / baseline_occ,
            report.achieved_pbs_per_s,
            report.p99_latency_us as f64 / 1e3,
        );
    }
    println!();
    println!(
        "(testing_fast parameters; the occupancy ratio, not the absolute \
         PBS/s, is the figure of merit on shared CI hardware)"
    );
}
