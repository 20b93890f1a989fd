//! Boolean-circuit workloads: abstract graphs for the simulator and
//! real homomorphic circuits executed with `strix-tfhe`.
//!
//! TFHE's gate bootstrapping makes every two-input gate cost one PBS
//! (+ keyswitch); a circuit's simulator workload is therefore a PBS
//! batch per topological level. The executable counterparts below are
//! used by integration tests and examples to demonstrate end-to-end
//! correctness of the same circuits the graphs describe.

use strix_core::Workload;
use strix_runtime::session::{Program, Wire};
use strix_tfhe::boolean::{BinaryGate, BoolCiphertext};
use strix_tfhe::{ServerKey, TfheError};

/// Simulator workload of a `bits`-bit ripple-carry adder: each bit
/// position costs 5 gates (2 XOR, 2 AND, 1 OR), dependent level by
/// level.
pub fn adder_workload(bits: usize) -> Workload {
    let mut w = Workload::new(format!("ripple-carry-{bits}"));
    for b in 0..bits {
        w = w.pbs(5, format!("bit-{b} full adder"));
    }
    w
}

/// Simulator workload of a `bits × bits` array multiplier:
/// `bits²` partial-product ANDs plus `bits − 1` ripple additions of
/// 5 gates per bit position.
pub fn multiplier_workload(bits: usize) -> Workload {
    let mut w = Workload::new(format!("array-multiplier-{bits}"));
    w = w.pbs(bits * bits, "partial products (AND)");
    for row in 1..bits {
        w = w.pbs(5 * bits, format!("row-{row} adder"));
    }
    w
}

/// Simulator workload of one AES S-box over gate bootstrapping, using
/// the Boyar–Peralta circuit size (32 AND, 83 XOR/XNOR) — every gate
/// one PBS in TFHE.
pub fn aes_sbox_workload() -> Workload {
    Workload::new("aes-sbox").pbs(83, "linear layers (XOR/XNOR)").pbs(32, "nonlinear core (AND)")
}

/// Simulator workload of one fetch–decode–execute cycle of an
/// encrypted `word_bits`-bit processor, the "emulating the CPU, which
/// can run encrypted programs" application of §II-C (VSP, the paper's
/// \[42\]). Gate counts are first-order estimates: an ALU (adder +
/// logic unit), a 16-register file read via MUX trees, and the
/// program-counter increment.
pub fn processor_cycle_workload(word_bits: usize) -> Workload {
    let regfile_muxes = 2 * (16 - 1) * word_bits; // two read ports
    Workload::new(format!("encrypted-cpu-{word_bits}bit"))
        .pbs(regfile_muxes, "register-file read (MUX tree)")
        .pbs(5 * word_bits, "ALU adder")
        .pbs(3 * word_bits, "ALU logic unit")
        .pbs(word_bits, "writeback select")
        .pbs(5 * word_bits, "PC increment")
}

/// Simulator workload of a `bits`-bit equality comparator: one XNOR
/// per bit, then an AND-reduction tree.
pub fn comparator_workload(bits: usize) -> Workload {
    let mut w = Workload::new(format!("comparator-{bits}"));
    w = w.pbs(bits, "bitwise XNOR");
    let mut width = bits;
    let mut level = 0;
    while width > 1 {
        let pairs = width / 2;
        w = w.pbs(pairs, format!("AND reduce level {level}"));
        width = pairs + (width % 2);
        level += 1;
    }
    w
}

/// Homomorphic full adder: returns `(sum, carry_out)`.
///
/// # Errors
///
/// Propagates [`TfheError`] from the underlying gates.
pub fn full_adder(
    server: &ServerKey,
    a: &BoolCiphertext,
    b: &BoolCiphertext,
    carry_in: &BoolCiphertext,
) -> Result<(BoolCiphertext, BoolCiphertext), TfheError> {
    let ab = server.xor(a, b)?;
    let sum = server.xor(&ab, carry_in)?;
    let t1 = server.and(a, b)?;
    let t2 = server.and(&ab, carry_in)?;
    let carry = server.or(&t1, &t2)?;
    Ok((sum, carry))
}

/// Homomorphic ripple-carry addition of two little-endian bit vectors;
/// returns `bits + 1` output bits (the last is the carry out).
///
/// # Errors
///
/// Returns [`TfheError::ParameterMismatch`] if the operand lengths
/// differ, and propagates gate errors.
pub fn ripple_carry_add(
    server: &ServerKey,
    a: &[BoolCiphertext],
    b: &[BoolCiphertext],
) -> Result<Vec<BoolCiphertext>, TfheError> {
    if a.len() != b.len() {
        return Err(TfheError::ParameterMismatch {
            what: "operand bit width",
            left: a.len(),
            right: b.len(),
        });
    }
    let n = server.params().lwe_dimension;
    let mut carry = BoolCiphertext::trivial(n, false);
    let mut out = Vec::with_capacity(a.len() + 1);
    for (x, y) in a.iter().zip(b) {
        let (sum, c) = full_adder(server, x, y, &carry)?;
        out.push(sum);
        carry = c;
    }
    out.push(carry);
    Ok(out)
}

/// Homomorphic equality test of two little-endian bit vectors.
///
/// # Errors
///
/// Returns [`TfheError::ParameterMismatch`] on width mismatch and
/// propagates gate errors.
pub fn equals(
    server: &ServerKey,
    a: &[BoolCiphertext],
    b: &[BoolCiphertext],
) -> Result<BoolCiphertext, TfheError> {
    if a.len() != b.len() {
        return Err(TfheError::ParameterMismatch {
            what: "operand bit width",
            left: a.len(),
            right: b.len(),
        });
    }
    let mut acc: Option<BoolCiphertext> = None;
    for (x, y) in a.iter().zip(b) {
        let eq = server.xnor(x, y)?;
        acc = Some(match acc {
            None => eq,
            Some(prev) => server.and(&prev, &eq)?,
        });
    }
    Ok(acc.unwrap_or_else(|| BoolCiphertext::trivial(server.params().lwe_dimension, true)))
}

/// Homomorphic unsigned greater-than of two little-endian bit vectors:
/// `a > b`.
///
/// Iterates from the least significant bit with the classic recurrence
/// `gt = (a_i AND NOT b_i) OR (gt AND NOT (a_i XOR b_i))`.
///
/// # Errors
///
/// Returns [`TfheError::ParameterMismatch`] on width mismatch and
/// propagates gate errors.
pub fn greater_than(
    server: &ServerKey,
    a: &[BoolCiphertext],
    b: &[BoolCiphertext],
) -> Result<BoolCiphertext, TfheError> {
    if a.len() != b.len() {
        return Err(TfheError::ParameterMismatch {
            what: "operand bit width",
            left: a.len(),
            right: b.len(),
        });
    }
    let n = server.params().lwe_dimension;
    let mut gt = BoolCiphertext::trivial(n, false);
    for (x, y) in a.iter().zip(b) {
        let not_y = server.not(y);
        let x_gt_y = server.and(x, &not_y)?;
        let eq = server.xnor(x, y)?;
        let keep = server.and(&gt, &eq)?;
        gt = server.or(&x_gt_y, &keep)?;
    }
    Ok(gt)
}

/// Compiles a `bits`-bit ripple-carry adder into a dataflow
/// [`Program`] for the streaming runtime: inputs are `a[0..bits]` then
/// `b[0..bits]` (little-endian boolean ciphertexts), outputs are the
/// `bits + 1` sum bits. The first bit position is a half adder; later
/// positions are the 5-gate full adder of [`full_adder`], so the
/// decrypted outputs match [`ripple_carry_add`].
///
/// Each bit level exposes 2–3 independent gates, and independent
/// levels from *concurrent* sessions interleave into shared epochs —
/// the whole point of streaming circuits instead of running them
/// synchronously.
///
/// The builder emits one request per gate — 17 at depth 7 for 4 bits —
/// but the runtime runs the program's lowered form
/// ([`Program::lowered`]) whenever admission clears it: each full adder
/// becomes one majority and one three-way parity bootstrap, 8 requests
/// at depth 4 for 4 bits.
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
/// level of parallel epoch slots), then a balanced AND-reduction tree
/// mirroring [`comparator_workload`]'s level structure.
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

#[cfg(test)]
mod tests {
    use super::*;
    use strix_tfhe::prelude::*;

    fn keys() -> (ClientKey, ServerKey) {
        generate_keys(&TfheParameters::testing_fast(), 1234)
    }

    fn encrypt_bits(client: &mut ClientKey, value: u64, bits: usize) -> Vec<BoolCiphertext> {
        (0..bits).map(|i| client.encrypt_bool((value >> i) & 1 == 1)).collect()
    }

    fn decrypt_bits(client: &ClientKey, cts: &[BoolCiphertext]) -> u64 {
        cts.iter().enumerate().map(|(i, c)| (client.decrypt_bool(c) as u64) << i).sum()
    }

    #[test]
    fn adder_workload_counts() {
        let w = adder_workload(8);
        assert_eq!(w.total_pbs(), 40);
        assert_eq!(w.len(), 8);
    }

    #[test]
    fn comparator_workload_counts() {
        // 8 XNOR + 4 + 2 + 1 AND = 15 gates.
        let w = comparator_workload(8);
        assert_eq!(w.total_pbs(), 15);
    }

    #[test]
    fn multiplier_workload_counts() {
        // 8² partial products + 7 rows × 40 adder gates.
        let w = multiplier_workload(8);
        assert_eq!(w.total_pbs(), 64 + 7 * 40);
    }

    #[test]
    fn aes_sbox_is_boyar_peralta_sized() {
        assert_eq!(aes_sbox_workload().total_pbs(), 115);
    }

    #[test]
    fn processor_cycle_scales_with_word_size() {
        let w16 = processor_cycle_workload(16);
        let w32 = processor_cycle_workload(32);
        assert_eq!(w16.total_pbs() * 2, w32.total_pbs());
        // A 16-bit encrypted CPU cycle costs several hundred PBS — the
        // scale that motivates throughput-oriented accelerators.
        assert!(w16.total_pbs() > 500, "{}", w16.total_pbs());
    }

    #[test]
    fn ripple_carry_adds_correctly() {
        let (mut client, server) = keys();
        for (a, b) in [(3u64, 5u64), (7, 1), (0, 0), (6, 7)] {
            let ca = encrypt_bits(&mut client, a, 3);
            let cb = encrypt_bits(&mut client, b, 3);
            let sum = ripple_carry_add(&server, &ca, &cb).unwrap();
            assert_eq!(sum.len(), 4);
            assert_eq!(decrypt_bits(&client, &sum), a + b, "{a}+{b}");
        }
    }

    #[test]
    fn equality_test() {
        let (mut client, server) = keys();
        let a = encrypt_bits(&mut client, 0b101, 3);
        let b = encrypt_bits(&mut client, 0b101, 3);
        let c = encrypt_bits(&mut client, 0b100, 3);
        assert!(client.decrypt_bool(&equals(&server, &a, &b).unwrap()));
        assert!(!client.decrypt_bool(&equals(&server, &a, &c).unwrap()));
    }

    #[test]
    fn greater_than_test() {
        let (mut client, server) = keys();
        for (a, b) in [(5u64, 3u64), (3, 5), (4, 4), (7, 0)] {
            let ca = encrypt_bits(&mut client, a, 3);
            let cb = encrypt_bits(&mut client, b, 3);
            let gt = greater_than(&server, &ca, &cb).unwrap();
            assert_eq!(client.decrypt_bool(&gt), a > b, "{a}>{b}");
        }
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let (mut client, server) = keys();
        let a = encrypt_bits(&mut client, 1, 2);
        let b = encrypt_bits(&mut client, 1, 3);
        assert!(ripple_carry_add(&server, &a, &b).is_err());
        assert!(equals(&server, &a, &b).is_err());
        assert!(greater_than(&server, &a, &b).is_err());
    }

    #[test]
    fn empty_equality_is_trivially_true() {
        let (client, server) = keys();
        let e = equals(&server, &[], &[]).unwrap();
        assert!(client.decrypt_bool(&e));
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
            assert_eq!(p.request_count(), comparator_workload(bits).total_pbs(), "{bits} bits");
        }
    }

    #[test]
    fn adder_program_run_sync_matches_gate_execution() {
        let (mut client, server) = keys();
        const BITS: usize = 3;
        for (a, b) in [(5u64, 3u64), (7, 7)] {
            let ca = encrypt_bits(&mut client, a, BITS);
            let cb = encrypt_bits(&mut client, b, BITS);
            let inputs: Vec<_> = ca.iter().chain(&cb).map(|c| c.as_lwe().clone()).collect();
            let program = ripple_carry_adder_program(BITS);
            let outs = program.run_sync(&server, &inputs).unwrap();
            let decoded: u64 = outs
                .iter()
                .enumerate()
                .map(|(i, ct)| {
                    let phase = client.decrypt_phase(ct).unwrap();
                    (strix_tfhe::bootstrap::decode_bool(phase) as u64) << i
                })
                .sum();
            assert_eq!(decoded, a + b, "{a}+{b}");
            // ...and agrees with the synchronous ServerKey circuit.
            let reference = ripple_carry_add(&server, &ca, &cb).unwrap();
            let ref_decoded = decrypt_bits(&client, &reference);
            assert_eq!(decoded, ref_decoded);
        }
    }

    #[test]
    fn equality_program_run_sync_matches_equals() {
        let (mut client, server) = keys();
        const BITS: usize = 4;
        for (a, b) in [(9u64, 9u64), (9, 10)] {
            let ca = encrypt_bits(&mut client, a, BITS);
            let cb = encrypt_bits(&mut client, b, BITS);
            let inputs: Vec<_> = ca.iter().chain(&cb).map(|c| c.as_lwe().clone()).collect();
            let outs = equality_program(BITS).run_sync(&server, &inputs).unwrap();
            let phase = client.decrypt_phase(&outs[0]).unwrap();
            assert_eq!(strix_tfhe::bootstrap::decode_bool(phase), a == b, "{a}=={b}");
        }
    }
}
