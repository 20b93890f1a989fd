//! Gate bootstrapping: boolean logic with one PBS (+ keyswitch) per gate.
//!
//! Booleans are encoded as `±1/8` on the torus. A gate computes a small
//! linear combination of its input ciphertexts plus a constant offset,
//! then applies a sign-LUT PBS that maps positive phases to `+1/8` and
//! negative phases to `−1/8` (via negacyclic wrap-around), and finally
//! keyswitches back to the `n`-dimension key. This is the workload of
//! the paper's Fig. 1 breakdown and the gate-level benchmarks.

use crate::bootstrap::{decode_bool, encode_bool, Lut};
use crate::keys::{ClientKey, ServerKey};
use crate::lwe::LweCiphertext;
use crate::profiler::{PbsStage, StageTimings};
use crate::torus::encode_fraction;
use crate::TfheError;

/// An encrypted boolean (LWE ciphertext of dimension `n` with `±1/8`
/// encoding).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoolCiphertext {
    pub(crate) ct: LweCiphertext,
}

impl BoolCiphertext {
    /// A trivial (noiseless, insecure) encryption of a known boolean.
    pub fn trivial(dimension: usize, value: bool) -> Self {
        Self { ct: LweCiphertext::trivial(dimension, encode_bool(value)) }
    }

    /// Borrow of the underlying LWE ciphertext.
    #[inline]
    pub fn as_lwe(&self) -> &LweCiphertext {
        &self.ct
    }

    /// Consumes into the underlying LWE ciphertext.
    #[inline]
    pub fn into_lwe(self) -> LweCiphertext {
        self.ct
    }
}

impl ClientKey {
    /// Encrypts a boolean.
    pub fn encrypt_bool(&mut self, value: bool) -> BoolCiphertext {
        BoolCiphertext { ct: self.encrypt_torus(encode_bool(value)) }
    }

    /// Decrypts a boolean.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension matches neither client key
    /// (programming error in the pipeline).
    pub fn decrypt_bool(&self, ct: &BoolCiphertext) -> bool {
        // lint:allow(panic) ciphertext was produced under this key's dimension
        let phase = self.decrypt_phase(&ct.ct).expect("boolean ciphertext dimension");
        decode_bool(phase)
    }
}

/// The most boolean inputs one sign-LUT gate recipe combines.
pub const MAX_RECIPE_INPUTS: usize = 3;

/// Largest weight magnitude [`GateRecipe::for_truth_table`] tries: the
/// linear gain `Σ wᵢ²` grows with the square, so wider weights buy
/// nothing a three-input table needs.
const MAX_RECIPE_WEIGHT: i64 = 2;

/// The linear pre-processing of a sign-LUT gate over 1–3 boolean
/// inputs: `Σ wᵢ·cᵢ + offset`, the offset in eighths of the torus.
///
/// Recipes are public so schedulers can evaluate a gate as one batched
/// runtime request (linear preamble, then the shared [`gate_sign_lut`]
/// bootstrap, then keyswitch) instead of calling [`ServerKey`] methods
/// synchronously. Every [`BinaryGate`] has a two-input recipe; a
/// program lowering pass can match wider ones (majority, three-way
/// parity) with [`GateRecipe::for_truth_table`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GateRecipe {
    weights: [i64; MAX_RECIPE_INPUTS],
    arity: usize,
    offset_eighths: i64,
}

impl GateRecipe {
    const fn pair(w1: i64, w2: i64, offset_eighths: i64) -> Self {
        Self { weights: [w1, w2, 0], arity: 2, offset_eighths }
    }

    /// The per-input weights, one per input ciphertext.
    #[inline]
    pub fn weights(&self) -> &[i64] {
        &self.weights[..self.arity]
    }

    /// The constant offset, in eighths of the torus.
    #[inline]
    pub fn offset_eighths(&self) -> i64 {
        self.offset_eighths
    }

    /// The recipe's constant offset as a torus element.
    #[inline]
    pub fn offset(&self) -> u64 {
        encode_fraction(self.offset_eighths, 3)
    }

    /// `Σ wᵢ²`: the factor by which the preamble amplifies the noise
    /// variance of (equally noisy, independent) inputs.
    pub fn linear_gain(&self) -> i64 {
        self.weights().iter().map(|w| w * w).sum()
    }

    /// Noiseless preamble phase, in eighths of the torus, for the
    /// input pattern whose bit `i` is input `i` (inputs encode at
    /// ±1/8).
    fn phase_eighths(&self, pattern: usize) -> i64 {
        let sum: i64 = self
            .weights()
            .iter()
            .enumerate()
            .map(|(i, w)| if (pattern >> i) & 1 == 1 { *w } else { -*w })
            .sum();
        sum + self.offset_eighths
    }

    /// The plaintext value the sign-LUT bootstrap decides for one
    /// input pattern: true iff the noiseless phase lies in the
    /// positive half-torus `(0, 1/2)`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the recipe's arity.
    pub fn eval(&self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.arity, "one boolean per recipe input");
        let pattern = inputs.iter().enumerate().map(|(i, &b)| usize::from(b) << i).sum();
        self.eval_pattern(pattern)
    }

    fn eval_pattern(&self, pattern: usize) -> bool {
        matches!(self.phase_eighths(pattern).rem_euclid(8), 1..=3)
    }

    /// Worst-case distance from this recipe's noiseless output phase to
    /// the nearest sign-LUT decision boundary, in torus units — the
    /// numerator of the recipe's noise margin.
    ///
    /// The sign LUT decides on half-torus boxes, so its boundaries sit
    /// at 0 and 1/2. Unit-weight recipes (AND, OR, NAND, NOR, majority)
    /// place every outcome ±1/8 from a boundary; the ±2-weight recipes
    /// (XOR, XNOR, three-way parity) amplify the noise but also place
    /// their outcomes ±1/4 from a boundary. Computed by enumerating
    /// every input pattern rather than hard-coded, so a new recipe is
    /// automatically scored by what its offsets actually achieve.
    pub fn decision_distance(&self) -> f64 {
        let eighths = (0..1usize << self.arity)
            .map(|p| {
                // Distance to the nearest multiple of 1/2 (= 4 eighths).
                let within_box = self.phase_eighths(p).rem_euclid(4);
                within_box.min(4 - within_box)
            })
            .min()
            .unwrap_or(0);
        eighths as f64 / 8.0
    }

    /// The best recipe computing a boolean function of `arity` inputs,
    /// given as a truth table whose bit `p` is the output for the input
    /// pattern `p` (bit `i` of `p` is input `i`).
    ///
    /// Searches integer weights `1 ≤ |wᵢ| ≤ 2` and every offset in
    /// eighths. A candidate is accepted only if each output value's
    /// phases lie strictly inside that value's half-torus box, so no
    /// pattern sits on a decision boundary; a function whose true (or
    /// false) patterns would have to spread over more than half the
    /// torus — AND3, OR3 — has no recipe and is refused. Among the
    /// accepted candidates the one with the largest noise margin for
    /// equally noisy inputs (`distance² / Σ wᵢ²`) wins, ties going to
    /// the smaller gain.
    ///
    /// Returns `None` if `arity` is outside `1..=MAX_RECIPE_INPUTS`,
    /// the table has bits beyond `2^arity`, or no recipe exists.
    pub fn for_truth_table(arity: usize, table: u8) -> Option<Self> {
        if arity == 0 || arity > MAX_RECIPE_INPUTS || u32::from(table) >> (1u32 << arity) != 0 {
            return None;
        }
        let span = 2 * MAX_RECIPE_WEIGHT + 1;
        let mut best: Option<(Self, f64)> = None;
        for code in 0..span.pow(arity as u32) {
            let mut weights = [0i64; MAX_RECIPE_INPUTS];
            let mut rest = code;
            for w in weights.iter_mut().take(arity) {
                *w = rest % span - MAX_RECIPE_WEIGHT;
                rest /= span;
            }
            if weights[..arity].contains(&0) {
                continue;
            }
            for offset_eighths in -4..4 {
                let recipe = Self { weights, arity, offset_eighths };
                let matches = (0..1usize << arity).all(|p| {
                    recipe.phase_eighths(p).rem_euclid(4) != 0
                        && recipe.eval_pattern(p) == ((table >> p) & 1 == 1)
                });
                if !matches {
                    continue;
                }
                let distance = recipe.decision_distance();
                let score = distance * distance / recipe.linear_gain() as f64;
                let better = best.is_none_or(|(b, s)| {
                    score > s || (score == s && recipe.linear_gain() < b.linear_gain())
                });
                if better {
                    best = Some((recipe, score));
                }
            }
        }
        best.map(|(recipe, _)| recipe)
    }
}

/// The two-input boolean gates evaluable with one sign-LUT bootstrap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinaryGate {
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Logical NAND.
    Nand,
    /// Logical NOR.
    Nor,
    /// Logical XOR.
    Xor,
    /// Logical XNOR.
    Xnor,
}

impl BinaryGate {
    /// Every gate, in a fixed order (useful for exhaustive tests).
    pub const ALL: [BinaryGate; 6] = [
        BinaryGate::And,
        BinaryGate::Or,
        BinaryGate::Nand,
        BinaryGate::Nor,
        BinaryGate::Xor,
        BinaryGate::Xnor,
    ];

    /// The gate's linear pre-processing recipe.
    pub fn recipe(self) -> GateRecipe {
        match self {
            BinaryGate::And => GateRecipe::pair(1, 1, -1),
            BinaryGate::Or => GateRecipe::pair(1, 1, 1),
            BinaryGate::Nand => GateRecipe::pair(-1, -1, 1),
            BinaryGate::Nor => GateRecipe::pair(-1, -1, -1),
            BinaryGate::Xor => GateRecipe::pair(2, 2, 2),
            BinaryGate::Xnor => GateRecipe::pair(-2, -2, -2),
        }
    }

    /// The plaintext truth table.
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            BinaryGate::And => a & b,
            BinaryGate::Or => a | b,
            BinaryGate::Nand => !(a & b),
            BinaryGate::Nor => !(a | b),
            BinaryGate::Xor => a ^ b,
            BinaryGate::Xnor => !(a ^ b),
        }
    }
}

impl std::fmt::Display for BinaryGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            BinaryGate::And => "and",
            BinaryGate::Or => "or",
            BinaryGate::Nand => "nand",
            BinaryGate::Nor => "nor",
            BinaryGate::Xor => "xor",
            BinaryGate::Xnor => "xnor",
        };
        f.write_str(name)
    }
}

/// The sign LUT shared by every gate bootstrap: positive phases map to
/// `+1/8`, negative phases to `−1/8` (negacyclic wrap-around).
pub fn gate_sign_lut(poly_size: usize) -> Lut {
    Lut::sign(poly_size, encode_fraction(1, 3))
}

impl ServerKey {
    fn sign_lut(&self) -> Lut {
        gate_sign_lut(self.params.polynomial_size)
    }

    fn gate_linear(
        &self,
        recipe: GateRecipe,
        a: &BoolCiphertext,
        b: &BoolCiphertext,
    ) -> Result<LweCiphertext, TfheError> {
        let mut acc = a.ct.clone();
        acc.scalar_mul_assign(recipe.weights[0]);
        acc.add_scaled_assign(&b.ct, recipe.weights[1])?;
        acc.plaintext_add_assign(recipe.offset());
        Ok(acc)
    }

    /// Evaluates any two-input [`BinaryGate`]: the recipe's linear
    /// combination, the shared sign-LUT bootstrap, then a keyswitch
    /// back to the `n`-dimension key.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if the inputs come from
    /// a different parameter set.
    pub fn binary_gate(
        &self,
        gate: BinaryGate,
        a: &BoolCiphertext,
        b: &BoolCiphertext,
    ) -> Result<BoolCiphertext, TfheError> {
        let sum = self.gate_linear(gate.recipe(), a, b)?;
        let boot = self.bsk.bootstrap(&sum, &self.sign_lut())?;
        Ok(BoolCiphertext { ct: self.ksk.keyswitch(&boot)? })
    }

    /// Homomorphic AND.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if the inputs come from
    /// a different parameter set.
    pub fn and(&self, a: &BoolCiphertext, b: &BoolCiphertext) -> Result<BoolCiphertext, TfheError> {
        self.binary_gate(BinaryGate::And, a, b)
    }

    /// Homomorphic OR.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on parameter mismatch.
    pub fn or(&self, a: &BoolCiphertext, b: &BoolCiphertext) -> Result<BoolCiphertext, TfheError> {
        self.binary_gate(BinaryGate::Or, a, b)
    }

    /// Homomorphic NAND (the universal gate of the original TFHE demo).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on parameter mismatch.
    pub fn nand(
        &self,
        a: &BoolCiphertext,
        b: &BoolCiphertext,
    ) -> Result<BoolCiphertext, TfheError> {
        self.binary_gate(BinaryGate::Nand, a, b)
    }

    /// Homomorphic NOR.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on parameter mismatch.
    pub fn nor(&self, a: &BoolCiphertext, b: &BoolCiphertext) -> Result<BoolCiphertext, TfheError> {
        self.binary_gate(BinaryGate::Nor, a, b)
    }

    /// Homomorphic XOR.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on parameter mismatch.
    pub fn xor(&self, a: &BoolCiphertext, b: &BoolCiphertext) -> Result<BoolCiphertext, TfheError> {
        self.binary_gate(BinaryGate::Xor, a, b)
    }

    /// Homomorphic XNOR.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on parameter mismatch.
    pub fn xnor(
        &self,
        a: &BoolCiphertext,
        b: &BoolCiphertext,
    ) -> Result<BoolCiphertext, TfheError> {
        self.binary_gate(BinaryGate::Xnor, a, b)
    }

    /// Homomorphic NOT — a negation of the ciphertext, with no
    /// bootstrap (and therefore no noise refresh).
    pub fn not(&self, a: &BoolCiphertext) -> BoolCiphertext {
        let mut ct = a.ct.clone();
        ct.negate();
        BoolCiphertext { ct }
    }

    /// Homomorphic multiplexer: `if sel { a } else { b }`, using two PBS
    /// and one shared keyswitch (the standard TFHE MUX circuit).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on parameter mismatch.
    pub fn mux(
        &self,
        sel: &BoolCiphertext,
        a: &BoolCiphertext,
        b: &BoolCiphertext,
    ) -> Result<BoolCiphertext, TfheError> {
        let lut = self.sign_lut();
        // u1 = sel AND a (pre-keyswitch), u2 = (NOT sel) AND b.
        let u1_in = self.gate_linear(BinaryGate::And.recipe(), sel, a)?;
        let u1 = self.bsk.bootstrap(&u1_in, &lut)?;
        let not_sel = self.not(sel);
        let u2_in = self.gate_linear(BinaryGate::And.recipe(), &not_sel, b)?;
        let u2 = self.bsk.bootstrap(&u2_in, &lut)?;
        // sel·a and ¬sel·b are mutually exclusive: their sum plus 1/8
        // re-centres onto the ±1/8 encoding.
        let mut sum = u1;
        sum.add_assign(&u2)?;
        sum.plaintext_add_assign(encode_fraction(1, 3));
        Ok(BoolCiphertext { ct: self.ksk.keyswitch(&sum)? })
    }

    /// A profiled NAND gate, recording the Fig.-1 stage breakdown
    /// (linear ops, blind-rotation stages, sample extract, keyswitch).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on parameter mismatch.
    pub fn nand_profiled(
        &self,
        a: &BoolCiphertext,
        b: &BoolCiphertext,
        timings: &mut StageTimings,
    ) -> Result<BoolCiphertext, TfheError> {
        let t0 = std::time::Instant::now();
        let sum = self.gate_linear(BinaryGate::Nand.recipe(), a, b)?;
        timings.add(PbsStage::LinearOps, t0.elapsed());
        let boot = self.bsk.bootstrap_profiled(&sum, &self.sign_lut(), timings)?;
        let switched = self.ksk.keyswitch_profiled(&boot, timings)?;
        Ok(BoolCiphertext { ct: switched })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::generate_keys;
    use crate::params::{PbsKernel, TfheParameters};

    fn fixture() -> (ClientKey, ServerKey) {
        generate_keys(&TfheParameters::testing_fast(), 555)
    }

    #[test]
    fn truth_tables_two_input_gates() {
        let (mut client, server) = fixture();
        type Gate =
            fn(&ServerKey, &BoolCiphertext, &BoolCiphertext) -> Result<BoolCiphertext, TfheError>;
        type GateRow = (&'static str, Gate, fn(bool, bool) -> bool);
        let gates: [GateRow; 6] = [
            ("and", ServerKey::and, |x, y| x & y),
            ("or", ServerKey::or, |x, y| x | y),
            ("nand", ServerKey::nand, |x, y| !(x & y)),
            ("nor", ServerKey::nor, |x, y| !(x | y)),
            ("xor", ServerKey::xor, |x, y| x ^ y),
            ("xnor", ServerKey::xnor, |x, y| !(x ^ y)),
        ];
        for (name, gate, model) in gates {
            for x in [false, true] {
                for y in [false, true] {
                    let cx = client.encrypt_bool(x);
                    let cy = client.encrypt_bool(y);
                    let out = gate(&server, &cx, &cy).unwrap();
                    assert_eq!(client.decrypt_bool(&out), model(x, y), "{name}({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn binary_gate_dispatch_matches_eval_model() {
        let (mut client, server) = fixture();
        for gate in BinaryGate::ALL {
            for x in [false, true] {
                for y in [false, true] {
                    let cx = client.encrypt_bool(x);
                    let cy = client.encrypt_bool(y);
                    let out = server.binary_gate(gate, &cx, &cy).unwrap();
                    assert_eq!(client.decrypt_bool(&out), gate.eval(x, y), "{gate}({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn recipe_offsets_encode_eighths() {
        let and = BinaryGate::And.recipe();
        assert_eq!(and.weights(), [1, 1]);
        assert_eq!(and.offset(), (1u64 << 61).wrapping_neg());
        assert_eq!(BinaryGate::Or.recipe().offset(), 1u64 << 61);
        assert_eq!(BinaryGate::Xor.to_string(), "xor");
    }

    /// Truth table of a three-input function, bit `p` = `f(pattern p)`.
    fn table3(f: impl Fn(bool, bool, bool) -> bool) -> u8 {
        (0..8).filter(|&p| f(p & 1 == 1, p & 2 == 2, p & 4 == 4)).map(|p| 1u8 << p).sum()
    }

    #[test]
    fn majority_and_parity_have_single_bootstrap_recipes() {
        let maj = GateRecipe::for_truth_table(3, table3(|a, b, c| (a & b) | (c & (a ^ b))))
            .expect("majority is a sign-LUT function");
        assert_eq!(maj.linear_gain(), 3);
        assert_eq!(maj.decision_distance(), 0.125);
        let parity = GateRecipe::for_truth_table(3, table3(|a, b, c| a ^ b ^ c))
            .expect("three-way parity is a sign-LUT function");
        assert_eq!(parity.linear_gain(), 12);
        assert_eq!(parity.decision_distance(), 0.25);
        assert_eq!(parity.weights(), [-2, -2, -2]);
    }

    #[test]
    fn and3_and_or3_are_refused() {
        assert_eq!(GateRecipe::for_truth_table(3, table3(|a, b, c| a & b & c)), None);
        assert_eq!(GateRecipe::for_truth_table(3, table3(|a, b, c| a | b | c)), None);
    }

    #[test]
    fn every_emitted_recipe_reproduces_its_truth_table() {
        for arity in 1..=MAX_RECIPE_INPUTS {
            let patterns = 1usize << arity;
            for table in 0..(1u16 << patterns) {
                let Some(recipe) = GateRecipe::for_truth_table(arity, table as u8) else {
                    continue;
                };
                assert_eq!(recipe.weights().len(), arity);
                assert!(recipe.decision_distance() >= 0.125, "{recipe:?}");
                for p in 0..patterns {
                    let inputs: Vec<bool> = (0..arity).map(|i| (p >> i) & 1 == 1).collect();
                    assert_eq!(recipe.eval(&inputs), (table >> p) & 1 == 1, "{recipe:?} at {p}");
                }
            }
        }
        assert_eq!(GateRecipe::for_truth_table(0, 1), None);
        assert_eq!(GateRecipe::for_truth_table(2, 0x10), None, "table wider than 2^arity");
    }

    #[test]
    fn binary_gate_recipes_evaluate_their_truth_tables() {
        for gate in BinaryGate::ALL {
            let recipe = gate.recipe();
            for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                assert_eq!(recipe.eval(&[a, b]), gate.eval(a, b), "{gate}({a}, {b})");
            }
        }
    }

    #[test]
    fn not_gate_is_noise_free_negation() {
        let (mut client, server) = fixture();
        for v in [false, true] {
            let c = client.encrypt_bool(v);
            assert_eq!(client.decrypt_bool(&server.not(&c)), !v);
        }
    }

    #[test]
    fn mux_selects_correct_branch() {
        let (mut client, server) = fixture();
        for sel in [false, true] {
            for a in [false, true] {
                for b in [false, true] {
                    let cs = client.encrypt_bool(sel);
                    let ca = client.encrypt_bool(a);
                    let cb = client.encrypt_bool(b);
                    let out = server.mux(&cs, &ca, &cb).unwrap();
                    let expected = if sel { a } else { b };
                    assert_eq!(client.decrypt_bool(&out), expected, "mux({sel},{a},{b})");
                }
            }
        }
    }

    #[test]
    fn gates_compose_into_a_circuit() {
        // Full adder: sum = a ⊕ b ⊕ cin, carry = maj(a, b, cin).
        let (mut client, server) = fixture();
        for bits in 0..8u8 {
            let (a, b, cin) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let ca = client.encrypt_bool(a);
            let cb = client.encrypt_bool(b);
            let cc = client.encrypt_bool(cin);
            let ab = server.xor(&ca, &cb).unwrap();
            let sum = server.xor(&ab, &cc).unwrap();
            let carry = {
                let t1 = server.and(&ca, &cb).unwrap();
                let t2 = server.and(&ab, &cc).unwrap();
                server.or(&t1, &t2).unwrap()
            };
            assert_eq!(client.decrypt_bool(&sum), a ^ b ^ cin, "sum {bits:03b}");
            assert_eq!(client.decrypt_bool(&carry), (a & b) | ((a ^ b) & cin), "carry {bits:03b}");
        }
    }

    #[test]
    fn trivial_bool_ciphertexts_work_as_gate_inputs() {
        let (client, server) = fixture();
        let t = BoolCiphertext::trivial(server.params().lwe_dimension, true);
        let f = BoolCiphertext::trivial(server.params().lwe_dimension, false);
        let out = server.and(&t, &f).unwrap();
        assert!(!client.decrypt_bool(&out));
    }

    /// A testing_fast server on the multi-bit kernel: every gate
    /// bootstraps on its one, grouped key.
    fn multi_bit_fixture(g: usize) -> (ClientKey, ServerKey) {
        let kernel = PbsKernel::MultiBit { grouping_factor: g };
        let (client, server) =
            generate_keys(&TfheParameters::testing_fast().with_kernel(kernel), 556);
        assert_eq!(server.bootstrap_key().kernel(), kernel);
        (client, server)
    }

    #[test]
    fn gates_on_the_grouped_kernel_keep_their_truth_tables() {
        for g in [2, 3] {
            let (mut client, server) = multi_bit_fixture(g);
            for gate in BinaryGate::ALL {
                for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
                    let cx = client.encrypt_bool(x);
                    let cy = client.encrypt_bool(y);
                    let out = server.binary_gate(gate, &cx, &cy).unwrap();
                    assert_eq!(
                        client.decrypt_bool(&out),
                        gate.eval(x, y),
                        "g={g} {gate}({x}, {y})"
                    );
                }
            }
            for v in [false, true] {
                let c = client.encrypt_bool(v);
                assert_eq!(client.decrypt_bool(&server.not(&c)), !v, "g={g} not({v})");
            }
            // MUX sums two PBS outputs: the tightest margin of the set.
            for pattern in 0..8u8 {
                let (sel, a, b) = (pattern & 1 != 0, pattern & 2 != 0, pattern & 4 != 0);
                let cs = client.encrypt_bool(sel);
                let ca = client.encrypt_bool(a);
                let cb = client.encrypt_bool(b);
                let out = server.mux(&cs, &ca, &cb).unwrap();
                let expected = if sel { a } else { b };
                assert_eq!(client.decrypt_bool(&out), expected, "g={g} mux({sel},{a},{b})");
            }
        }
    }

    #[test]
    fn profiled_nand_on_the_grouped_kernel_records_every_stage() {
        for g in [2, 3] {
            let (mut client, server) = multi_bit_fixture(g);
            let a = client.encrypt_bool(true);
            let b = client.encrypt_bool(false);
            let mut t = StageTimings::new();
            let out = server.nand_profiled(&a, &b, &mut t).unwrap();
            assert!(client.decrypt_bool(&out), "g={g}");
            for stage in PbsStage::ALL {
                assert!(t.total_for(stage) > std::time::Duration::ZERO, "g={g}: {stage:?}");
            }
        }
    }

    #[test]
    fn profiled_nand_matches_paper_breakdown_shape() {
        let (mut client, server) = fixture();
        let a = client.encrypt_bool(true);
        let b = client.encrypt_bool(true);
        let mut t = StageTimings::new();
        let out = server.nand_profiled(&a, &b, &mut t).unwrap();
        assert!(!client.decrypt_bool(&out));
        // PBS dominates, keyswitch is visible, linear ops are small —
        // the qualitative shape of Fig. 1.
        assert!(t.pbs_fraction() > 0.5, "pbs fraction {}", t.pbs_fraction());
        assert!(t.fraction(PbsStage::KeySwitch) > 0.0);
        assert!(t.fraction(PbsStage::LinearOps) < 0.2);
    }
}
