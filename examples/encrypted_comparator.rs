//! Yao's millionaires' problem on TFHE gate bootstrapping: compare two
//! encrypted fortunes without revealing either — the kind of
//! relational operation Table I highlights as TFHE's strength over
//! CKKS.
//!
//! ```sh
//! cargo run --release -p strix --example encrypted_comparator
//! ```

use strix::core::{StrixConfig, StrixSimulator};
use strix::tfhe::bootstrap::decode_bool;
use strix::tfhe::prelude::*;
use strix::workloads::gates::{equality_program, greater_than_program};

const BITS: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One parameter set for the CPU run and the simulated accelerator,
    // so the two timings compare like with like.
    let params = TfheParameters::set_i();
    let (mut client, server) = generate_keys(&params, 0xA11CE);
    println!("Parameter set: {} (CPU run and Strix simulation)", params.name);

    let alice = 173u64;
    let bob = 152u64;
    println!("Alice's fortune (secret): {alice}");
    println!("Bob's fortune   (secret): {bob}");

    // Both comparators take Alice's bits, then Bob's, little-endian.
    let inputs: Vec<LweCiphertext> = [alice, bob]
        .iter()
        .flat_map(|v| (0..BITS).map(move |i| (v >> i) & 1 == 1))
        .map(|bit| client.encrypt_bool(bit).into_lwe())
        .collect();

    let sim = StrixSimulator::new(StrixConfig::paper_default(), params.clone())?;
    for (relation, program, expected) in [
        ("alice > bob ", greater_than_program(BITS), alice > bob),
        ("alice == bob", equality_program(BITS), alice == bob),
    ] {
        let t0 = std::time::Instant::now();
        let outs = program.run_sync(&server, &inputs)?;
        let elapsed = t0.elapsed();
        let answer = decode_bool(client.decrypt_phase(&outs[0])?);
        assert_eq!(answer, expected, "{relation}");

        // The circuit as a workload graph on the accelerator, derived
        // from the program that just ran.
        let report = sim.run_graph(&program.lowered().workload());
        println!(
            "{relation} (homomorphic): {answer}  — {:.1} ms on this CPU; Strix would run its \
             {}-PBS graph in {:.3} ms",
            elapsed.as_secs_f64() * 1e3,
            report.total_pbs,
            report.total_time_s * 1e3,
        );
    }
    Ok(())
}
