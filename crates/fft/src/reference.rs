//! The crate's two mathematical oracles: exact schoolbook negacyclic
//! arithmetic, used as the correctness oracle for the FFT path and
//! directly by the software TFHE implementation for small test
//! parameters, and the natural-order radix-2 [`FftPlan`] that the
//! digit-reversed kernel is checked against.

pub use crate::plan::FftPlan;

/// Exact negacyclic product in `Z[X]/(X^N + 1)` with wrapping `i64`
/// arithmetic.
///
/// Coefficient `k` of the result is
/// `Σ_{i+j=k} a_i·b_j − Σ_{i+j=k+N} a_i·b_j`.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
///
/// # Example
///
/// ```
/// let a = [1i64, 1, 0, 0]; // 1 + X
/// let b = [0i64, 0, 0, 1]; // X^3
/// // (1+X)·X^3 = X^3 + X^4 = X^3 - 1 (mod X^4+1)
/// assert_eq!(strix_fft::reference::negacyclic_mul(&a, &b), [-1, 0, 0, 1]);
/// ```
pub fn negacyclic_mul(a: &[i64], b: &[i64]) -> Vec<i64> {
    assert_eq!(a.len(), b.len(), "polynomial sizes must match");
    let n = a.len();
    let mut out = vec![0i64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let prod = ai.wrapping_mul(bj);
            let k = i + j;
            if k < n {
                out[k] = out[k].wrapping_add(prod);
            } else {
                out[k - n] = out[k - n].wrapping_sub(prod);
            }
        }
    }
    out
}

/// Exact negacyclic product of an integer polynomial with a torus
/// polynomial (`u64`, arithmetic mod 2^64).
///
/// This is the "external product inner multiply" used by TFHE: decomposed
/// digits (small signed) times bootstrapping-key coefficients (torus).
///
/// # Panics
///
/// Panics if `digits.len() != torus.len()`.
pub fn negacyclic_mul_torus(digits: &[i64], torus: &[u64]) -> Vec<u64> {
    assert_eq!(digits.len(), torus.len(), "polynomial sizes must match");
    let n = digits.len();
    let mut out = vec![0u64; n];
    for (i, &d) in digits.iter().enumerate() {
        if d == 0 {
            continue;
        }
        let d = d as u64; // two's complement wrapping multiply is exact mod 2^64
        for (j, &t) in torus.iter().enumerate() {
            let prod = d.wrapping_mul(t);
            let k = i + j;
            if k < n {
                out[k] = out[k].wrapping_add(prod);
            } else {
                out[k - n] = out[k - n].wrapping_sub(prod);
            }
        }
    }
    out
}

/// Negacyclic left-rotation by `amount` positions in `[0, 2N)`:
/// multiplies the polynomial by `X^{-amount}`.
///
/// Rotation by `N` negates the polynomial (`X^N = -1`), so a rotation by
/// `amount ∈ [N, 2N)` equals a rotation by `amount − N` followed by
/// negation.
///
/// # Panics
///
/// Panics if `amount >= 2 * poly.len()`.
pub fn rotate_left(poly: &[u64], amount: usize) -> Vec<u64> {
    let mut out = vec![0u64; poly.len()];
    rotate_left_into(poly, amount, &mut out);
    out
}

/// As [`rotate_left`], writing into a caller-provided buffer — the
/// allocation-free form used inside the blind-rotation CMUX loop.
///
/// # Panics
///
/// Panics if `amount >= 2 * poly.len()` or the buffer sizes differ.
pub fn rotate_left_into(poly: &[u64], amount: usize, out: &mut [u64]) {
    let n = poly.len();
    assert!(amount < 2 * n, "rotation amount {amount} out of range for size {n}");
    assert_eq!(out.len(), n, "rotation output buffer size mismatch");
    for (j, slot) in out.iter_mut().enumerate() {
        // out = X^{-amount} * poly: out[j] = poly[(j + amount) mod 2N] with sign.
        let src = j + amount;
        if src < n {
            *slot = poly[src];
        } else if src < 2 * n {
            *slot = poly[src - n].wrapping_neg();
        } else {
            *slot = poly[src - 2 * n];
        }
    }
}

/// Negacyclic right-rotation by `amount` positions in `[0, 2N)`:
/// multiplies the polynomial by `X^{amount}`.
///
/// # Panics
///
/// Panics if `amount >= 2 * poly.len()`.
pub fn rotate_right(poly: &[u64], amount: usize) -> Vec<u64> {
    let mut out = vec![0u64; poly.len()];
    rotate_right_into(poly, amount, &mut out);
    out
}

/// As [`rotate_right`], writing into a caller-provided buffer — the
/// allocation-free form used inside the blind-rotation CMUX loop.
///
/// # Panics
///
/// Panics if `amount >= 2 * poly.len()` or the buffer sizes differ.
pub fn rotate_right_into(poly: &[u64], amount: usize, out: &mut [u64]) {
    let n = poly.len();
    assert!(amount < 2 * n, "rotation amount {amount} out of range for size {n}");
    if amount == 0 {
        assert_eq!(out.len(), n, "rotation output buffer size mismatch");
        out.copy_from_slice(poly);
        return;
    }
    // X^{amount} = X^{-(2N - amount)}.
    rotate_left_into(poly, 2 * n - amount, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let a = [5i64, -3, 2, 7];
        let one = [1i64, 0, 0, 0];
        assert_eq!(negacyclic_mul(&a, &one), a);
    }

    #[test]
    fn commutativity() {
        let a = [1i64, 2, 3, 4, 5, 6, 7, 8];
        let b = [-3i64, 1, 4, -1, 5, -9, 2, 6];
        assert_eq!(negacyclic_mul(&a, &b), negacyclic_mul(&b, &a));
    }

    #[test]
    fn x_to_the_n_is_minus_one() {
        // X^2 * X^2 = -1 mod X^4+1
        let x2 = [0i64, 0, 1, 0];
        assert_eq!(negacyclic_mul(&x2, &x2), [-1, 0, 0, 0]);
    }

    #[test]
    fn torus_multiplication_wraps_mod_2_64() {
        let digits = [3i64, 0];
        let torus = [u64::MAX, 0]; // -1 on the torus
                                   // 3 * (-1) = -3 mod 2^64
        assert_eq!(negacyclic_mul_torus(&digits, &torus), [3u64.wrapping_neg(), 0]);
    }

    #[test]
    fn torus_negative_digit() {
        let digits = [-2i64, 0];
        let torus = [5u64, 7];
        assert_eq!(
            negacyclic_mul_torus(&digits, &torus),
            [10u64.wrapping_neg(), 14u64.wrapping_neg()]
        );
    }

    #[test]
    fn rotate_left_within_first_period() {
        let p = [1u64, 2, 3, 4];
        // X^{-1} * p: out[j] = p[j+1], out[3] = -p[0]
        assert_eq!(rotate_left(&p, 1), [2, 3, 4, 1u64.wrapping_neg()]);
    }

    #[test]
    fn rotate_left_by_n_negates() {
        let p = [1u64, 2, 3, 4];
        assert_eq!(
            rotate_left(&p, 4),
            [1u64.wrapping_neg(), 2u64.wrapping_neg(), 3u64.wrapping_neg(), 4u64.wrapping_neg()]
        );
    }

    #[test]
    fn rotate_left_then_right_is_identity() {
        let p = [9u64, 8, 7, 6, 5, 4, 3, 2];
        for amount in 0..16 {
            let rotated = rotate_left(&p, amount);
            let back = rotate_right(&rotated, amount);
            assert_eq!(back, p, "amount {amount}");
        }
    }

    #[test]
    fn rotation_matches_monomial_multiplication() {
        // rotate_right(p, a) must equal p * X^a computed via negacyclic_mul.
        let p: Vec<u64> = (1..=8u64).collect();
        let p_i64: Vec<i64> = p.iter().map(|&x| x as i64).collect();
        for amount in 0..8 {
            let mut monomial = vec![0i64; 8];
            monomial[amount] = 1;
            let expected: Vec<u64> =
                negacyclic_mul(&p_i64, &monomial).into_iter().map(|x| x as u64).collect();
            assert_eq!(rotate_right(&p, amount), expected, "amount {amount}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rotate_rejects_out_of_range() {
        rotate_left(&[0u64; 4], 8);
    }
}
