//! Boolean circuits as dataflow [`Program`]s for the streaming runtime,
//! executed with `strix-tfhe` gate bootstrapping.
//!
//! Each circuit is written once. The runtime streams the program, the
//! analyzer vets its noise budget, [`Program::run_sync`] is its
//! synchronous reference, and the simulator's computational graph is
//! derived from it ([`Program::workload`]), so the PBS count the
//! simulator prices is the count the runtime runs. As built, every
//! two-input gate costs one PBS (+ keyswitch); the runtime runs the
//! lowered form ([`Program::lowered`]) whenever admission clears it.

use strix_runtime::session::{Program, Wire};
use strix_tfhe::boolean::BinaryGate;

/// Compiles a `bits`-bit ripple-carry adder into a dataflow
/// [`Program`] for the streaming runtime: inputs are `a[0..bits]` then
/// `b[0..bits]` (little-endian boolean ciphertexts), outputs are the
/// `bits + 1` sum bits. The first bit position is a half adder; later
/// positions are the 5-gate full adder (2 XOR, 2 AND, 1 OR).
///
/// Each bit level exposes 2–3 independent gates, and independent
/// levels from *concurrent* sessions interleave into shared epochs —
/// the whole point of streaming circuits instead of running them
/// synchronously.
///
/// The builder emits one request per gate — 17 at depth 7 for 4 bits,
/// 37 at depth 15 for 8 — but the runtime runs the program's lowered
/// form ([`Program::lowered`]) whenever admission clears it: each full
/// adder becomes one majority and one three-way parity bootstrap, 8
/// requests at depth 4 for 4 bits, 16 at depth 8 for 8.
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn ripple_carry_adder_program(bits: usize) -> Program {
    let mut p = Program::new(2 * bits);
    let mut carry: Option<Wire> = None;
    for i in 0..bits {
        let a = Wire::Input(i);
        let b = Wire::Input(bits + i);
        let ab = p.gate(BinaryGate::Xor, a, b);
        match carry {
            None => {
                // Half adder: no carry-in at bit 0.
                p.output(ab);
                carry = Some(p.gate(BinaryGate::And, a, b));
            }
            Some(cin) => {
                let sum = p.gate(BinaryGate::Xor, ab, cin);
                p.output(sum);
                let t1 = p.gate(BinaryGate::And, a, b);
                let t2 = p.gate(BinaryGate::And, ab, cin);
                carry = Some(p.gate(BinaryGate::Or, t1, t2));
            }
        }
    }
    p.output(carry.expect("adder needs at least one bit"));
    p
}

/// Compiles a `bits`-bit equality comparator into a dataflow
/// [`Program`]: inputs are `a[0..bits]` then `b[0..bits]`, the single
/// output is `a == b`. One XNOR per bit (all independent — a full
/// level of parallel epoch slots), then a balanced AND-reduction tree:
/// `2·bits − 1` requests, 15 for 8 bits as levels of 8, 4, 2 and 1.
/// No cone of the tree collapses, so lowering leaves it as built.
///
/// # Panics
///
/// Panics if `bits == 0` (there is no constant-true wire).
pub fn equality_program(bits: usize) -> Program {
    let mut p = Program::new(2 * bits);
    let mut level: Vec<Wire> = (0..bits)
        .map(|i| p.gate(BinaryGate::Xnor, Wire::Input(i), Wire::Input(bits + i)))
        .collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len() / 2 + 1);
        for pair in level.chunks(2) {
            match pair {
                [x, y] => next.push(p.gate(BinaryGate::And, *x, *y)),
                [x] => next.push(*x),
                _ => unreachable!("chunks(2) yields 1 or 2 wires"),
            }
        }
        level = next;
    }
    match level.first() {
        Some(&w) => p.output(w),
        // Zero-width comparison is trivially true, but there is no
        // constant wire; keep the degenerate case out of the DAG by
        // requiring at least one bit.
        None => panic!("equality comparator needs at least one bit"),
    }
    p
}

/// Compiles a `bits`-bit unsigned greater-than comparator into a
/// dataflow [`Program`]: inputs are `a[0..bits]` then `b[0..bits]`, the
/// single output is `a > b`. From the least significant bit it runs the
/// recurrence `gt = (a_i AND NOT b_i) OR (gt AND (a_i XNOR b_i))`, with
/// `gt = a_0 AND NOT b_0` at bit 0: `4·bits − 3` requests at depth
/// `2·bits − 1` as built. Each step is the majority of `a_i`, `NOT b_i`
/// and the previous `gt`, which lowering finds: `bits` requests at depth
/// `bits`.
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn greater_than_program(bits: usize) -> Program {
    let mut p = Program::new(2 * bits);
    let mut gt: Option<Wire> = None;
    for i in 0..bits {
        let (a, b) = (Wire::Input(i), Wire::Input(bits + i));
        let not_b = p.not(b);
        let a_above_b = p.gate(BinaryGate::And, a, not_b);
        gt = Some(match gt {
            None => a_above_b,
            Some(below) => {
                let eq = p.gate(BinaryGate::Xnor, a, b);
                let keep = p.gate(BinaryGate::And, below, eq);
                p.gate(BinaryGate::Or, a_above_b, keep)
            }
        });
    }
    p.output(gt.expect("comparator needs at least one bit"));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use strix_core::Workload;
    use strix_tfhe::bootstrap::decode_bool;
    use strix_tfhe::prelude::*;

    /// `a`'s then `b`'s little-endian bits: the input order of every
    /// program here.
    fn operand_bits(a: u64, b: u64, bits: usize) -> Vec<bool> {
        [a, b].iter().flat_map(|v| (0..bits).map(move |i| (v >> i) & 1 == 1)).collect()
    }

    /// The four little-endian bits of the sum of two 3-bit operands.
    fn sum_bits(a: u64, b: u64) -> Vec<bool> {
        (0..4).map(|i| ((a + b) >> i) & 1 == 1).collect()
    }

    fn pbs_per_level(w: &Workload) -> Vec<usize> {
        w.nodes().iter().map(|n| n.pbs_count()).collect()
    }

    /// Checks `program` and its lowered form against `expected` on
    /// every pair of 3-bit operands, in plaintext.
    fn exhaustive_3bit(program: &Program, expected: impl Fn(u64, u64) -> Vec<bool>) {
        for (a, b) in (0..8u64).flat_map(|a| (0..8u64).map(move |b| (a, b))) {
            for form in [program, program.lowered()] {
                let out = form.evaluate_plain(&operand_bits(a, b, 3)).unwrap();
                assert_eq!(out, expected(a, b), "({a}, {b})");
            }
        }
    }

    /// Runs `program` with `run_sync` on encrypted operands: the
    /// decryptions match its plaintext gate evaluation and `expected`.
    fn check_encrypted(
        program: &Program,
        bits: usize,
        cases: &[(u64, u64)],
        expected: impl Fn(u64, u64) -> Vec<bool>,
    ) {
        let (mut client, server) = generate_keys(&TfheParameters::testing_fast(), 1234);
        for &(a, b) in cases {
            let plain = operand_bits(a, b, bits);
            let inputs: Vec<LweCiphertext> =
                plain.iter().map(|&bit| client.encrypt_bool(bit).into_lwe()).collect();
            let outs = program.run_sync(&server, &inputs).unwrap();
            let decrypted: Vec<bool> =
                outs.iter().map(|ct| decode_bool(client.decrypt_phase(ct).unwrap())).collect();
            assert_eq!(decrypted, program.evaluate_plain(&plain).unwrap(), "({a}, {b})");
            assert_eq!(decrypted, expected(a, b), "({a}, {b})");
        }
    }

    #[test]
    fn adder_workload_counts() {
        // As built the carry chain adds two levels per bit: 37 PBS over
        // 15 levels. Lowered: a majority and a parity per full adder.
        let adder = ripple_carry_adder_program(8);
        let built = adder.workload();
        assert_eq!((built.total_pbs(), built.len()), (37, 15));
        assert_eq!(pbs_per_level(&adder.lowered().workload()), [2; 8]);
    }

    #[test]
    fn comparator_workload_counts() {
        // 8 XNOR, then 4 + 2 + 1 AND; lowering keeps every gate.
        let equality = equality_program(8);
        assert_eq!(pbs_per_level(&equality.workload()), [8, 4, 2, 1]);
        assert_eq!(equality.lowered().workload(), equality.workload());
    }

    #[test]
    fn ripple_carry_adds_correctly() {
        exhaustive_3bit(&ripple_carry_adder_program(3), sum_bits);
    }

    #[test]
    fn equality_test() {
        exhaustive_3bit(&equality_program(3), |a, b| vec![a == b]);
    }

    #[test]
    fn greater_than_test() {
        let gt = greater_than_program(3);
        exhaustive_3bit(&gt, |a, b| vec![a > b]);
        let built = gt.workload();
        assert_eq!((built.total_pbs(), built.len()), (9, 5));
        assert_eq!(pbs_per_level(&gt.lowered().workload()), [1, 1, 1], "one majority per bit");
        check_encrypted(&gt, 3, &[(5, 3), (3, 5), (4, 4), (7, 0)], |a, b| vec![a > b]);
    }

    #[test]
    fn adder_program_shape_matches_gate_counts() {
        let p = ripple_carry_adder_program(4);
        assert_eq!(p.input_count(), 8);
        assert_eq!(p.outputs().len(), 5);
        // Half adder (2 gates) + 3 full adders (5 gates each).
        assert_eq!(p.request_count(), 2 + 3 * 5);
    }

    #[test]
    fn equality_program_shape_matches_comparator_workload() {
        for bits in [1usize, 2, 5, 8] {
            let p = equality_program(bits);
            assert_eq!(p.input_count(), 2 * bits, "{bits} bits");
            assert_eq!(p.outputs().len(), 1);
            let w = p.workload();
            assert_eq!((p.request_count(), w.total_pbs()), (2 * bits - 1, 2 * bits - 1));
            let tree_levels = bits.next_power_of_two().trailing_zeros() as usize;
            assert_eq!(w.len(), 1 + tree_levels, "{bits} bits");
        }
    }

    #[test]
    fn adder_program_run_sync_matches_gate_execution() {
        check_encrypted(
            &ripple_carry_adder_program(3),
            3,
            &[(5, 3), (7, 7), (6, 7), (0, 0)],
            sum_bits,
        );
    }

    #[test]
    fn equality_program_run_sync_matches_equals() {
        check_encrypted(&equality_program(4), 4, &[(9, 9), (9, 10)], |a, b| vec![a == b]);
    }
}
