//! Signed gadget decomposition (Algorithm 1's `Decompose`, Eq. (3)).
//!
//! A torus element `a` is approximated by `l` balanced signed digits
//! `d_1 … d_l` with `|d_i| ≤ B/2` such that
//!
//! ```text
//! a ≈ Σ_{i=1}^{l} d_i · q / B^i,   error ≤ q / (2 B^l)
//! ```
//!
//! matching the paper's Eq. (3). Following §V-B, the implementation is
//! multiplier-free — a *rounding step* (mask the contributing bits, add
//! the carry from the first dropped bit) followed by an *extraction step*
//! (mask each β-bit digit, balance it against B/2 with a carry into the
//! next digit) — which is exactly the datapath of the Strix decomposer
//! unit and lets the hardware model in `strix-core` reuse this code as
//! its golden reference.

use serde::{Deserialize, Serialize};

use crate::poly::TorusPolynomial;
use crate::torus::TORUS_BITS;

/// Decomposition parameters: base `B = 2^base_log` and level count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DecompositionParams {
    /// log2 of the decomposition base `B`.
    pub base_log: u32,
    /// Number of levels `l`.
    pub level: usize,
}

impl DecompositionParams {
    /// Creates decomposition parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < base_log · level <= 64` — the digits must
    /// address a non-empty slice of the torus word.
    pub fn new(base_log: u32, level: usize) -> Self {
        assert!(base_log > 0 && level > 0, "decomposition must be non-trivial");
        assert!(
            base_log as usize * level <= TORUS_BITS as usize,
            "decomposition ({base_log} bits x {level} levels) exceeds the torus width"
        );
        Self { base_log, level }
    }

    /// Number of bits retained by the rounding step: `base_log · level`.
    #[inline]
    pub fn represented_bits(&self) -> u32 {
        self.base_log * self.level as u32
    }

    /// The gadget scale of level `i` (1-indexed): `q / B^i` as a torus
    /// element, i.e. `2^(64 - base_log·i)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is 0 or exceeds the level count.
    #[inline]
    pub fn gadget_scale(&self, i: usize) -> u64 {
        assert!(i >= 1 && i <= self.level, "gadget level {i} out of range");
        1u64 << (TORUS_BITS - self.base_log * i as u32)
    }

    /// Rounds `a` to the closest torus element representable by the
    /// gadget, i.e. the closest multiple of `q / B^l` (§V-B rounding
    /// step).
    #[inline]
    pub fn closest_representable(&self, a: u64) -> u64 {
        let drop = TORUS_BITS - self.represented_bits();
        if drop == 0 {
            return a;
        }
        // Add the carry from the first dropped bit, then clear the
        // dropped bits. Overflow wraps, which is correct on the torus.
        let carry = (a >> (drop - 1)) & 1;
        ((a >> drop).wrapping_add(carry)) << drop
    }

    /// Decomposes a torus element into `level` balanced signed digits,
    /// most-significant level first (`digits[0]` scales by `q/B`).
    ///
    /// Digits satisfy `-B/2 <= d < B/2` except that a chain of carries
    /// may produce `d = B/2` at the most significant level; either way
    /// `|d| <= B/2` holds, the bound used by every noise analysis.
    pub fn decompose(&self, a: u64) -> Vec<i64> {
        let mut digits = vec![0i64; self.level];
        self.decompose_into(a, &mut digits);
        digits
    }

    /// As [`Self::decompose`], writing into a caller-provided buffer
    /// (hot path of the blind rotation).
    ///
    /// # Panics
    ///
    /// Panics if `digits.len() != self.level`.
    pub fn decompose_into(&self, a: u64, digits: &mut [i64]) {
        self.decomposer().decompose_into(a, digits);
    }

    /// Builds the hoisted-constant [`Decomposer`] for these parameters:
    /// every shift, mask and threshold the per-element decomposition
    /// needs, derived once instead of on every call. Hot loops
    /// (keyswitching over `k·N` mask elements, the CMUX's per-polynomial
    /// decomposition) construct one before the loop and call its
    /// [`Decomposer::decompose_into`] inside — bit-identical to
    /// [`Self::decompose_into`], which now delegates to it.
    #[inline]
    pub fn decomposer(&self) -> Decomposer {
        let rep_bits = self.represented_bits();
        Decomposer {
            base_log: self.base_log,
            level: self.level,
            drop: TORUS_BITS - rep_bits,
            state_mask: if rep_bits < TORUS_BITS { (1u64 << rep_bits) - 1 } else { u64::MAX },
            digit_mask: (1u64 << self.base_log) - 1,
            half: 1u64 << (self.base_log - 1),
        }
    }

    /// Recomposes digits back into a torus element:
    /// `Σ d_i · q / B^i`. Inverse of [`Self::decompose`] up to the
    /// rounding step.
    ///
    /// # Panics
    ///
    /// Panics if `digits.len() != self.level`.
    pub fn recompose(&self, digits: &[i64]) -> u64 {
        assert_eq!(digits.len(), self.level, "digit buffer length mismatch");
        let mut acc = 0u64;
        for (i, &d) in digits.iter().enumerate() {
            acc = acc.wrapping_add((d as u64).wrapping_mul(self.gadget_scale(i + 1)));
        }
        acc
    }

    /// Decomposes every coefficient of a polynomial, producing one
    /// digit-polynomial per level (level-major layout, the order in
    /// which the Strix decomposer unit emits its output stream).
    pub fn decompose_polynomial(&self, poly: &TorusPolynomial) -> Vec<Vec<i64>> {
        let n = poly.size();
        let mut levels = vec![vec![0i64; n]; self.level];
        let mut digits = vec![0i64; self.level];
        let dec = self.decomposer();
        for (j, &c) in poly.coeffs().iter().enumerate() {
            dec.decompose_into(c, &mut digits);
            for (lvl, &d) in digits.iter().enumerate() {
                levels[lvl][j] = d;
            }
        }
        levels
    }

    /// As [`Self::decompose_polynomial`], writing into a flat
    /// caller-provided buffer of `level · N` digits (level-major:
    /// `levels[lvl·N + j]` is digit `lvl` of coefficient `j`). This is
    /// the allocation-free form the blind-rotation hot path uses with a
    /// per-thread [`crate::scratch::PbsScratch`].
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != level · N` or
    /// `digits.len() != level`.
    pub fn decompose_polynomial_into(
        &self,
        poly: &TorusPolynomial,
        levels: &mut [i64],
        digits: &mut [i64],
    ) {
        let n = poly.size();
        assert_eq!(levels.len(), self.level * n, "digit level buffer length mismatch");
        let dec = self.decomposer();
        for (j, &c) in poly.coeffs().iter().enumerate() {
            dec.decompose_into(c, digits);
            for (lvl, &d) in digits.iter().enumerate() {
                levels[lvl * n + j] = d;
            }
        }
    }

    /// Level-major polynomial decomposition over a caller-provided
    /// extraction-state buffer — the lane-parallel form of
    /// [`Self::decompose_polynomial_into`] used by the CMUX hot path.
    ///
    /// Coefficients decompose independently of one another (the carry
    /// chain runs across *levels*, not coefficients), so interchanging
    /// the loops — level outer, coefficient inner — turns every pass
    /// into straight-line u64 slice arithmetic (mask, shift, compare,
    /// balance) that autovectorises across coefficients, where the
    /// coefficient-outer form serialises on one word at a time. The
    /// per-coefficient operations are exactly the same, so the digits
    /// are **bit-identical** to [`Self::decompose_polynomial_into`]
    /// (pinned by `flat_polynomial_decomposition_matches_nested`).
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != level · N` or `state.len() != N`.
    pub fn decompose_polynomial_levels(
        &self,
        poly: &TorusPolynomial,
        levels: &mut [i64],
        state: &mut [u64],
    ) {
        let n = poly.size();
        assert_eq!(levels.len(), self.level * n, "digit level buffer length mismatch");
        assert_eq!(state.len(), n, "decomposition state buffer length mismatch");
        let dec = self.decomposer();
        // Rounding step for every coefficient (one vectorisable pass).
        if dec.drop == 0 {
            state.copy_from_slice(poly.coeffs());
        } else {
            for (s, &c) in state.iter_mut().zip(poly.coeffs()) {
                *s = dec.round(c);
            }
        }
        dec.extract_levels(levels, state);
    }

    /// Decomposes the CMUX difference `X^amount·poly − poly` level-major,
    /// without materialising it: digits are **bit-identical** to
    /// rotating `poly` into a buffer, subtracting `poly` and calling
    /// [`Self::decompose_polynomial_levels`] on the result.
    ///
    /// The negacyclic rotation is an index shift with a sign: with
    /// `s = amount mod N`, coefficient `j ≥ s` of `X^amount·poly` is
    /// `±poly[j − s]` and coefficient `j < s` wraps to `∓poly[j + N − s]`
    /// (`+` on the first segment when `amount ≥ N`, since `X^N = −1`).
    /// So the rounding step runs over those two contiguous segments —
    /// one subtraction and at most one negation per coefficient, all
    /// wrapping and therefore exact — straight into `state`, followed
    /// by the shared level extraction. One pass over the accumulator
    /// replaces the rotate, subtract and rounding passes (and the
    /// difference buffer) of the three-step form.
    ///
    /// # Panics
    ///
    /// Panics if `amount >= 2N`, `levels.len() != level · N` or
    /// `state.len() != N`.
    // lint:hot-path-start — the blocked CMUX's staging pass must stay allocation-free
    pub fn decompose_rotated_difference_levels(
        &self,
        poly: &TorusPolynomial,
        amount: usize,
        levels: &mut [i64],
        state: &mut [u64],
    ) {
        let n = poly.size();
        assert!(amount < 2 * n, "rotation amount {amount} out of range for size {n}");
        assert_eq!(levels.len(), self.level * n, "digit level buffer length mismatch");
        assert_eq!(state.len(), n, "decomposition state buffer length mismatch");
        let dec = self.decomposer();
        let coeffs = poly.coeffs();
        let shift = amount % n;
        let wrapped_negated = amount < n;
        let (head, tail) = state.split_at_mut(shift);
        dec.round_difference(head, &coeffs[n - shift..], &coeffs[..shift], wrapped_negated);
        dec.round_difference(tail, &coeffs[..n - shift], &coeffs[shift..], !wrapped_negated);
        dec.extract_levels(levels, state);
    }
    // lint:hot-path-end
}

/// Hoisted-constant signed decomposer: the shifts, masks and balancing
/// threshold of [`DecompositionParams::decompose_into`] derived once,
/// so hot loops that decompose thousands of elements per operation
/// (keyswitching, the CMUX's polynomial decomposition) re-derive
/// nothing per element. Build with [`DecompositionParams::decomposer`].
///
/// Bit-identical to the parameter-level entry points — they delegate
/// here.
#[derive(Clone, Copy, Debug)]
pub struct Decomposer {
    base_log: u32,
    level: usize,
    /// Bits discarded by the rounding step (`64 − base_log·level`).
    drop: u32,
    /// Mask keeping the represented bits of the extraction state.
    state_mask: u64,
    /// Mask extracting one `base_log`-bit digit.
    digit_mask: u64,
    half: u64,
}

impl Decomposer {
    /// Decomposes `a` into `level` balanced signed digits,
    /// most-significant level first — the rounding step (carry from
    /// the first dropped bit) fused with the shift down to the
    /// extraction state, then the balanced digit extraction.
    ///
    /// # Panics
    ///
    /// Panics if `digits.len()` differs from the level count.
    #[inline]
    pub fn decompose_into(&self, a: u64, digits: &mut [i64]) {
        assert_eq!(digits.len(), self.level, "digit buffer length mismatch");
        // Rounding step: adding the carry straight onto the shifted
        // value equals rounding at full width then shifting — the
        // re-masking folds away the carry out of the represented bits,
        // exactly as the shift-up/shift-down pair did.
        let mut state = if self.drop == 0 { a } else { self.round(a) };
        // Extract from the least-significant digit (level l) upwards so
        // carries propagate toward level 1; a carry out of level 1
        // represents a multiple of q and vanishes on the torus.
        //
        // Branchless balancing: digits of uniform torus values sit
        // above/below B/2 with equal probability, so a conditional here
        // mispredicts half the time across the k·N·l digits of every
        // CMUX/keyswitch — the flag-to-carry form costs two ALU ops
        // instead and computes exactly the same digits.
        for d in digits.iter_mut().rev() {
            let raw = state & self.digit_mask;
            state >>= self.base_log;
            let balance = u64::from(raw >= self.half);
            *d = raw as i64 - (balance << self.base_log) as i64;
            state = state.wrapping_add(balance);
        }
    }

    /// Number of levels this decomposer emits.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Rounding step for one word when `drop > 0`: the carry from the
    /// first dropped bit added onto the shifted value, masked to the
    /// represented bits.
    #[inline]
    fn round(&self, a: u64) -> u64 {
        let carry = (a >> (self.drop - 1)) & 1;
        ((a >> self.drop).wrapping_add(carry)) & self.state_mask
    }

    /// Rounding step over one segment of a rotate-and-subtract
    /// difference: `state[j] = round(±rotated[j] − acc[j])`, negating
    /// `rotated` when `negate` is set. The sign is applied as a
    /// conditional two's complement (`(r ^ m) − m` with `m` all-zero or
    /// all-one bits), so one branch-free loop serves both signs.
    // lint:hot-path-start — per-coefficient staging loops of the CMUX must stay allocation-free
    #[inline]
    fn round_difference(&self, state: &mut [u64], rotated: &[u64], acc: &[u64], negate: bool) {
        let flip = u64::from(negate).wrapping_neg();
        let terms = state.iter_mut().zip(rotated.iter().zip(acc));
        if self.drop == 0 {
            for (s, (&r, &a)) in terms {
                *s = (r ^ flip).wrapping_sub(flip).wrapping_sub(a);
            }
        } else {
            for (s, (&r, &a)) in terms {
                *s = self.round((r ^ flip).wrapping_sub(flip).wrapping_sub(a));
            }
        }
    }

    /// Extraction step of the level-major decomposition, over rounded
    /// states of `N = state.len()` coefficients: least-significant
    /// level first, all coefficients per level — the balance-and-carry
    /// arithmetic of [`Self::decompose_into`], lane-parallel across the
    /// polynomial.
    #[inline]
    fn extract_levels(&self, levels: &mut [i64], state: &mut [u64]) {
        let n = state.len();
        for lvl in (0..self.level).rev() {
            let out = &mut levels[lvl * n..(lvl + 1) * n];
            for (d, s) in out.iter_mut().zip(state.iter_mut()) {
                let raw = *s & self.digit_mask;
                *s >>= self.base_log;
                let balance = u64::from(raw >= self.half);
                *d = raw as i64 - ((balance << self.base_log) as i64);
                *s = s.wrapping_add(balance);
            }
        }
    }
    // lint:hot-path-end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "exceeds the torus width")]
    fn rejects_oversized_decomposition() {
        DecompositionParams::new(33, 2);
    }

    #[test]
    fn closest_representable_rounds_both_ways() {
        let p = DecompositionParams::new(8, 2); // keeps top 16 bits
        let step = 1u64 << 48;
        assert_eq!(p.closest_representable(0), 0);
        assert_eq!(p.closest_representable(step), step);
        assert_eq!(p.closest_representable(step + step / 2 + 1), 2 * step);
        assert_eq!(p.closest_representable(step + step / 2 - 1), step);
        // Wrap at the top of the torus.
        assert_eq!(p.closest_representable(u64::MAX), 0);
    }

    #[test]
    fn digits_are_balanced() {
        let p = DecompositionParams::new(4, 3);
        let half = 8i64; // B/2 for B = 16
        for a in (0..10_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
            for &d in &p.decompose(a) {
                assert!(d >= -half && d <= half, "digit {d} for a={a}");
            }
        }
    }

    #[test]
    fn recompose_equals_closest_representable() {
        for (base_log, level) in [(10, 2), (7, 3), (4, 8), (2, 16), (16, 4), (32, 2)] {
            let p = DecompositionParams::new(base_log, level);
            for a in (0..2_000u64).map(|i| i.wrapping_mul(0xD1B5_4A32_D192_ED03)) {
                let digits = p.decompose(a);
                assert_eq!(
                    p.recompose(&digits),
                    p.closest_representable(a),
                    "a={a} base_log={base_log} level={level}"
                );
            }
        }
    }

    #[test]
    fn full_width_decomposition_is_exact() {
        // base_log·level = 64 means no rounding at all.
        let p = DecompositionParams::new(16, 4);
        for a in [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF, 1 << 63] {
            assert_eq!(p.recompose(&p.decompose(a)), a);
        }
    }

    #[test]
    fn rounding_error_is_bounded() {
        let p = DecompositionParams::new(10, 2);
        let bound = 1u64 << (64 - 20 - 1); // q / (2 B^l)
        for a in (0..5_000u64).map(|i| i.wrapping_mul(0xA076_1D64_78BD_642F)) {
            let r = p.closest_representable(a);
            let err = (a.wrapping_sub(r) as i64).unsigned_abs();
            assert!(err <= bound, "a={a} err={err}");
        }
    }

    #[test]
    fn gadget_scales_decrease_geometrically() {
        let p = DecompositionParams::new(10, 2);
        assert_eq!(p.gadget_scale(1), 1 << 54);
        assert_eq!(p.gadget_scale(2), 1 << 44);
    }

    #[test]
    fn polynomial_decomposition_is_coefficientwise() {
        let p = DecompositionParams::new(6, 3);
        let poly = TorusPolynomial::from_coeffs(vec![0, u64::MAX, 1 << 63, 0x0123_4567_89AB_CDEF]);
        let levels = p.decompose_polynomial(&poly);
        assert_eq!(levels.len(), 3);
        for (j, &c) in poly.coeffs().iter().enumerate() {
            let per_coeff = p.decompose(c);
            for lvl in 0..3 {
                assert_eq!(levels[lvl][j], per_coeff[lvl]);
            }
        }
    }

    #[test]
    fn flat_polynomial_decomposition_matches_nested() {
        let p = DecompositionParams::new(6, 3);
        let poly = TorusPolynomial::from_coeffs(vec![0, u64::MAX, 1 << 63, 0x0123_4567_89AB_CDEF]);
        let nested = p.decompose_polynomial(&poly);
        let n = poly.size();
        let mut flat = vec![0i64; p.level * n];
        let mut digits = vec![0i64; p.level];
        p.decompose_polynomial_into(&poly, &mut flat, &mut digits);
        for (lvl, level) in nested.iter().enumerate() {
            assert_eq!(&flat[lvl * n..(lvl + 1) * n], level.as_slice());
        }
    }

    #[test]
    fn level_major_decomposition_is_bit_identical_to_coefficient_major() {
        // Includes a full-width decomposition (drop == 0) and shapes
        // with long carry chains.
        for (base_log, level) in [(6u32, 3usize), (10, 2), (7, 3), (16, 4), (2, 16)] {
            let p = DecompositionParams::new(base_log, level);
            let n = 64;
            let coeffs: Vec<u64> =
                (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
            let poly = TorusPolynomial::from_coeffs(coeffs);
            let mut flat = vec![0i64; level * n];
            let mut digits = vec![0i64; level];
            p.decompose_polynomial_into(&poly, &mut flat, &mut digits);
            let mut lane = vec![0i64; level * n];
            let mut state = vec![0u64; n];
            p.decompose_polynomial_levels(&poly, &mut lane, &mut state);
            assert_eq!(lane, flat, "base_log={base_log} level={level}");
        }
    }

    #[test]
    fn rotated_difference_decomposition_matches_rotate_subtract_decompose() {
        use crate::params::{ParameterSet, TfheParameters};
        // The (base_log, level) pair of every shipped parameter set, plus
        // a full-width decomposition for the no-rounding branch.
        let mut shipped: Vec<TfheParameters> =
            ParameterSet::ALL.iter().map(|set| set.parameters()).collect();
        shipped.extend([TfheParameters::testing_fast(), TfheParameters::testing_k2()]);
        shipped.extend([1024, 2048, 4096].map(|n| TfheParameters::deep_nn(n).unwrap()));
        let mut pairs: Vec<(u32, usize)> =
            shipped.iter().map(|p| (p.pbs_base_log, p.pbs_level)).collect();
        pairs.push((16, 4));
        pairs.sort_unstable();
        pairs.dedup();

        for n in [512usize, 1024, 2048] {
            // Pseudo-random words with the extremes that stress the
            // rounding carry and the negation: 0, −1, 2^63, 2^63 − 1.
            let mut coeffs: Vec<u64> =
                (0..n as u64).map(|i| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
            coeffs[..4].copy_from_slice(&[0, u64::MAX, 1 << 63, (1 << 63) - 1]);
            let poly = TorusPolynomial::from_coeffs(coeffs);
            let mut diff = TorusPolynomial::zero(n);
            let mut state = vec![0u64; n];
            for &(base_log, level) in &pairs {
                let p = DecompositionParams::new(base_log, level);
                let mut oracle = vec![0i64; level * n];
                let mut fused = vec![0i64; level * n];
                for amount in 0..2 * n {
                    poly.rotate_right_into(amount, &mut diff);
                    diff.sub_assign(&poly);
                    p.decompose_polynomial_levels(&diff, &mut oracle, &mut state);
                    p.decompose_rotated_difference_levels(&poly, amount, &mut fused, &mut state);
                    assert_eq!(fused, oracle, "N={n} base_log={base_log} level={level} a={amount}");
                }
            }
        }
    }

    #[test]
    fn known_example_base_16() {
        // a = 0.5 on the torus = 2^63: digit 1 at level 1 should be -8
        // (since 8 >= B/2 = 8 triggers balancing: 8 - 16 = -8 with a
        // carry that wraps off the torus).
        let p = DecompositionParams::new(4, 1);
        let digits = p.decompose(1u64 << 63);
        assert_eq!(digits, vec![-8]);
        // Reconstruction: -8 · 2^60 = -2^63 ≡ 2^63 (mod 2^64). ✓
        assert_eq!(p.recompose(&digits), 1u64 << 63);
    }
}
