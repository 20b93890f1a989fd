//! The discretised torus `T_q = (1/q)Z / Z` with `q = 2^64`.
//!
//! Torus elements are stored as `u64` with wrapping arithmetic: the
//! element `t` represents the real `t / 2^64 ∈ [0, 1)`. All TFHE noise
//! and message encodings live on this torus.

/// Number of bits in the torus representation (`q = 2^TORUS_BITS`).
pub const TORUS_BITS: u32 = 64;

/// Converts a real number (in torus units, i.e. multiples of `1/2^64`)
/// to the nearest torus element, reducing modulo 1.
///
/// Used to fold FFT outputs — which are large `f64` integers representing
/// values mod `2^64` — back onto the torus.
///
/// Values beyond 2^52 carry f64 rounding error of their own; that error
/// is part of the FFT noise budget, not of this reduction.
///
/// # Exactness
///
/// The result is `round_half_away(x) mod 2^64`, computed on the bits of
/// `x` with integer operations only: a finite `x` is exactly
/// `mantissa · 2^e`, so a left shift (`e ≥ 0`, bits past 2^64 fall off
/// — that *is* the reduction) or a rounding right shift (`e < 0`,
/// half away from zero on the magnitude) gives the rounded magnitude
/// mod 2^64, and a two's-complement negation applies the sign. This is
/// bit-for-bit the float formula `r = x − round(x·2^-64)·2^64;
/// round(r) as i64`, because every step of that formula is exact:
/// scaling by 2^-64 is an exponent shift, `round` of it is an integer,
/// the subtraction is exact by Sterbenz's lemma, and `r` is
/// `x mod 2^64` in `[-2^63, 2^63]`. The one place the two forms could
/// differ is the float form's saturating cast of a residue of exactly
/// `+2^63` (reached by negative `x ≡ 2^63 mod 2^64`) to `i64::MAX`; one
/// compare keeps that. Infinities and NaN map to 0, as the saturating
/// cast of the float form's NaN residue does.
///
/// Being shifts, masks, adds and one compare on `u64` lanes, the
/// conversion vectorises, which is what makes the PBS drain loops
/// packed; a float `round` + saturating `f64 → i64` cast does not (LLVM
/// splits the cast into per-lane compare-and-branch code).
///
/// # Example
///
/// ```
/// use strix_tfhe::torus::f64_to_torus;
/// assert_eq!(f64_to_torus(3.0), 3);
/// assert_eq!(f64_to_torus(-1.0), u64::MAX);
/// // 4096 = one ulp at 2^64, so this sum is exactly representable:
/// assert_eq!(f64_to_torus(2.0_f64.powi(64) + 4096.0), 4096);
/// ```
#[inline]
pub fn f64_to_torus(x: f64) -> u64 {
    const MANTISSA_BITS: u32 = 52;
    // Exponent field of 2^52, where the mantissa (with its implicit
    // bit) is the integer value itself.
    const UNIT_EXPONENT: u64 = 1023 + MANTISSA_BITS as u64;
    let bits = x.to_bits();
    let exponent = (bits >> MANTISSA_BITS) & 0x7ff;
    // Zero and subnormals take the implicit bit too: their shift below
    // is ≥ 63, so they round to 0 either way.
    let mantissa = (bits & ((1 << MANTISSA_BITS) - 1)) | (1 << MANTISSA_BITS);
    // |x| = mantissa · 2^(exponent − UNIT_EXPONENT). At most one of the
    // two shifted forms is non-zero: below UNIT_EXPONENT the left-shift
    // count wraps to ≥ 64 (→ 0); from it upwards the right shift is
    // clamped to 62 and drops all 53 mantissa bits.
    let up = exponent.wrapping_sub(UNIT_EXPONENT);
    let left = if up < 64 { mantissa << up } else { 0 };
    let down = (UNIT_EXPONENT - 1).wrapping_sub(exponent).min(62);
    let right = ((mantissa >> down) + 1) >> 1; // half away from zero
    let magnitude = left | right;
    let sign = ((bits as i64) >> 63) as u64; // all ones for negative x
    let signed = (magnitude ^ sign).wrapping_sub(sign);
    // The float form's saturating cast: a residue of +2^63 (negative x
    // of magnitude 2^63 mod 2^64) becomes i64::MAX.
    signed - (sign & u64::from(magnitude == 1 << 63))
}

/// Interprets a torus element as a *signed* real in `[-2^63, 2^63)`,
/// i.e. centred representative times `2^64`.
///
/// This is the representation in which bootstrapping-key coefficients
/// enter the FFT.
#[inline]
pub fn torus_to_f64_signed(t: u64) -> f64 {
    t as i64 as f64
}

/// Encodes the exact fraction `numer / 2^denom_log2` as a torus element.
///
/// # Panics
///
/// Panics if `denom_log2 > 64` (no such torus fraction exists).
///
/// # Example
///
/// ```
/// use strix_tfhe::torus::encode_fraction;
/// // 1/8 of the torus
/// assert_eq!(encode_fraction(1, 3), 1u64 << 61);
/// // -1/8 wraps around
/// assert_eq!(encode_fraction(-1, 3), (1u64 << 61).wrapping_neg());
/// ```
#[inline]
pub fn encode_fraction(numer: i64, denom_log2: u32) -> u64 {
    assert!(denom_log2 <= TORUS_BITS, "denominator 2^{denom_log2} exceeds torus precision");
    (numer as u64).wrapping_shl(TORUS_BITS - denom_log2)
}

/// Switches a torus element from modulus `2^64` to modulus
/// `2^log2_modulus`, with rounding (Algorithm 1, line 3).
///
/// Returns a value in `[0, 2^log2_modulus)`. In PBS the target modulus is
/// `2N`, turning torus elements into negacyclic rotation amounts.
///
/// # Panics
///
/// Panics if `log2_modulus` is 0 or exceeds 63.
///
/// # Example
///
/// ```
/// use strix_tfhe::torus::modulus_switch;
/// // 1/4 of the torus → 1/4 of 2N = 512 for N = 1024
/// assert_eq!(modulus_switch(1u64 << 62, 11), 512);
/// ```
#[inline]
pub fn modulus_switch(t: u64, log2_modulus: u32) -> u64 {
    assert!(
        log2_modulus > 0 && log2_modulus < TORUS_BITS,
        "modulus switch target must be within (0, 64) bits"
    );
    let shift = TORUS_BITS - log2_modulus;
    // Round-half-up: add half of the dropped range then truncate. The
    // carry past 2^log2_modulus wraps, which is the correct behaviour on
    // the smaller torus.
    let rounded = (t >> (shift - 1)).wrapping_add(1) >> 1;
    rounded & ((1u64 << log2_modulus) - 1)
}

/// Rounds a torus element to the nearest multiple of `1/2^precision_bits`
/// and returns that multiple's index in `[0, 2^precision_bits)`.
///
/// This is the decryption-side decoder: after removing the mask, the
/// message sits in the top `precision_bits` bits plus noise.
///
/// # Panics
///
/// Panics if `precision_bits` is 0 or exceeds 63.
#[inline]
pub fn decode_message(t: u64, precision_bits: u32) -> u64 {
    modulus_switch(t, precision_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trips_small_integers() {
        for v in [-5i64, -1, 0, 1, 7, 1 << 40] {
            assert_eq!(f64_to_torus(v as f64), v as u64);
        }
    }

    #[test]
    fn f64_reduces_mod_2_64() {
        let two64 = 2.0f64.powi(64);
        assert_eq!(f64_to_torus(two64), 0);
        // Offsets must be multiples of the ulp at this magnitude (4096
        // at 2^64, 8192 at 3·2^64) to stay exactly representable.
        assert_eq!(f64_to_torus(3.0 * two64 + 8192.0), 8192);
        assert_eq!(f64_to_torus(-two64 - 4096.0), 4096u64.wrapping_neg());
    }

    /// The float formula `r = x − round(x·2^-64)·2^64; round(r) as i64`:
    /// the reference the differential tests hold `f64_to_torus` to.
    fn f64_to_torus_float(x: f64) -> u64 {
        const TWO_64: f64 = 18446744073709551616.0; // 2^64
        let reduced = x - (x / TWO_64).round() * TWO_64;
        // reduced ∈ [-2^63, 2^63]; the boundary value saturates to
        // i64::MAX, a 1-ulp error absorbed by the noise term.
        reduced.round() as i64 as u64
    }

    /// `f64_to_torus` against the float reference, compared bit for bit.
    fn assert_matches_float(x: f64) {
        assert_eq!(
            f64_to_torus(x),
            f64_to_torus_float(x),
            "x = {x:e} (bits {:#018x})",
            x.to_bits()
        );
    }

    #[test]
    fn integer_conversion_matches_float_formula_on_edge_cases() {
        let two63 = 2f64.powi(63);
        let two64 = 2f64.powi(64);
        let mut cases = vec![
            0.0,
            -0.0,
            two63,
            -two63,
            two64,
            -two64,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
            f64::from_bits((1 << 52) - 1), // largest subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MAX,
            f64::MIN,
            0.5f64.next_down(),
            -0.5f64.next_down(),
            2f64.powi(52) - 0.5, // largest tie
            -(2f64.powi(52) - 0.5),
        ];
        // Ties x.5 of both signs.
        for m in [0.0, 1.0, 2.0, 3.0, 1e6, 4503599627370494.0] {
            cases.extend([m + 0.5, -(m + 0.5)]);
        }
        // (m + ½)·2^64: the residue is ±2^63, and only the negative
        // side saturates to i64::MAX.
        for m in 0..64 {
            let v = (f64::from(m) + 0.5) * two64;
            cases.extend([v, -v, v.next_up(), v.next_down(), -v.next_up(), -v.next_down()]);
        }
        for &x in &cases {
            assert_matches_float(x);
        }
        // Spot-check the saturating case by value.
        assert_eq!(f64_to_torus(-two63), i64::MAX as u64);
        assert_eq!(f64_to_torus(two63), 1 << 63);
        assert_eq!(f64_to_torus(f64::NAN), 0);
        assert_eq!(f64_to_torus(f64::NEG_INFINITY), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(20_000))]

        #[test]
        fn integer_conversion_matches_float_formula_by_magnitude(
            exponent in -4i32..=80,
            fraction in proptest::any::<u64>(),
            negative in proptest::any::<bool>(),
        ) {
            // Random mantissas in every binade 2^-4 … 2^80, both signs.
            let magnitude = f64::from_bits(
                ((1023 + exponent) as u64) << 52 | (fraction & ((1 << 52) - 1)),
            );
            let x = if negative { -magnitude } else { magnitude };
            assert_matches_float(x);
            assert_matches_float(x.next_up());
        }

        #[test]
        fn integer_conversion_matches_float_formula_on_ties_and_raw_bits(
            whole in 0u64..1 << 52,
            bits in proptest::any::<u64>(),
            negative in proptest::any::<bool>(),
        ) {
            let tie = whole as f64 + 0.5;
            assert_matches_float(if negative { -tie } else { tie });
            let boundary = (whole as f64 + 0.5) * 2f64.powi(64);
            assert_matches_float(if negative { -boundary } else { boundary });
            assert_matches_float(f64::from_bits(bits));
        }
    }

    #[test]
    fn signed_interpretation_is_centred() {
        assert_eq!(torus_to_f64_signed(0), 0.0);
        assert_eq!(torus_to_f64_signed(u64::MAX), -1.0);
        assert_eq!(torus_to_f64_signed(1 << 62), (1u64 << 62) as f64);
        assert!(torus_to_f64_signed(1 << 63) < 0.0);
    }

    #[test]
    fn fraction_encoding() {
        assert_eq!(encode_fraction(1, 1), 1 << 63); // 1/2
        assert_eq!(encode_fraction(3, 3), 3 << 61); // 3/8
        assert_eq!(encode_fraction(0, 5), 0);
        // -3/8 + 3/8 = 0 on the torus
        assert_eq!(encode_fraction(-3, 3).wrapping_add(encode_fraction(3, 3)), 0);
    }

    #[test]
    fn modulus_switch_rounds_to_nearest() {
        // For target 2^3 = 8 buckets, bucket width is 2^61.
        let width = 1u64 << 61;
        assert_eq!(modulus_switch(0, 3), 0);
        assert_eq!(modulus_switch(width, 3), 1);
        // Just below half a bucket rounds down; just above rounds up.
        assert_eq!(modulus_switch(width / 2 - 1, 3), 0);
        assert_eq!(modulus_switch(width / 2 + 1, 3), 1);
        // Wrap-around: the top of the torus rounds to bucket 0.
        assert_eq!(modulus_switch(u64::MAX, 3), 0);
    }

    #[test]
    fn modulus_switch_error_is_bounded() {
        // |switch(t)/2^m - t/2^64| <= 2^-(m+1)
        let m = 11u32; // 2N for N = 1024
        for t in [0u64, 1, 1 << 52, 1 << 53, u64::MAX / 3, u64::MAX] {
            let s = modulus_switch(t, m);
            let approx = s as f64 / (1u64 << m) as f64;
            let exact = t as f64 / 2.0f64.powi(64);
            let mut err = (approx - exact).abs();
            err = err.min(1.0 - err); // torus distance
            assert!(err <= 1.0 / (1u64 << (m + 1)) as f64 + 1e-12, "t={t}");
        }
    }

    #[test]
    fn decode_recovers_noisy_encoding() {
        // Encode message 5 in a 3-bit space, add noise < half a step.
        let encoded = encode_fraction(5, 3);
        let noise = 1u64 << 58; // 1/64 of the torus, below the 1/16 threshold
        assert_eq!(decode_message(encoded.wrapping_add(noise), 3), 5);
        assert_eq!(decode_message(encoded.wrapping_sub(noise), 3), 5);
    }

    #[test]
    #[should_panic(expected = "modulus switch target")]
    fn modulus_switch_rejects_zero_bits() {
        modulus_switch(1, 0);
    }
}
