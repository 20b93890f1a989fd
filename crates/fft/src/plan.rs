//! Iterative radix-2 decimation-in-time FFT with precomputed tables and
//! **natural-order** spectra — the correctness oracle for the
//! bit-reversed-spectrum production kernel ([`crate::SpectralPlan`]).
//!
//! This was the seed hot kernel; the production transforms now run on
//! `SpectralPlan`, which deletes this plan's per-transform bit-reversal
//! permutation pass and per-butterfly direction branch. It is kept
//! (unchanged, on purpose) because its natural bin ordering makes it
//! the easy-to-trust reference: kernel tests compare
//! `SpectralPlan::forward_many` against [`FftPlan::forward`] through
//! `SpectralPlan::permutation`. It is public only as
//! [`crate::reference::FftPlan`], next to the schoolbook oracle.

use crate::complex::Complex64;
use crate::error::FftError;
use crate::is_pow2_at_least;

/// Precomputed plan for forward/inverse complex FFTs of a fixed size.
///
/// A plan is immutable after construction and can be shared freely across
/// threads. Construction costs `O(n log n)`; each transform costs
/// `O(n log n)` with no allocation.
///
/// # Example
///
/// ```
/// use strix_fft::{reference::FftPlan, Complex64};
///
/// # fn main() -> Result<(), strix_fft::FftError> {
/// let plan = FftPlan::new(4)?;
/// let mut data = [
///     Complex64::new(1.0, 0.0),
///     Complex64::new(0.0, 0.0),
///     Complex64::new(0.0, 0.0),
///     Complex64::new(0.0, 0.0),
/// ];
/// plan.forward(&mut data)?;
/// // The spectrum of a unit impulse is flat.
/// for bin in &data {
///     assert!((bin.re - 1.0).abs() < 1e-12 && bin.im.abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FftPlan {
    size: usize,
    log2_size: u32,
    /// Twiddles `e^{-2πik/n}` for `k` in `[0, n/2)` (forward direction).
    twiddles: Vec<Complex64>,
    /// Bit-reversal permutation of `[0, n)`.
    bit_rev: Vec<u32>,
}

impl FftPlan {
    /// Smallest supported transform size.
    pub const MIN_SIZE: usize = 1;

    /// Creates a plan for transforms of `size` points.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] if `size` is not a power of two.
    pub fn new(size: usize) -> Result<Self, FftError> {
        if !is_pow2_at_least(size, Self::MIN_SIZE) {
            return Err(FftError::InvalidSize { requested: size, min: Self::MIN_SIZE });
        }
        let log2_size = size.trailing_zeros();
        let mut twiddles = Vec::with_capacity(size / 2);
        for k in 0..size / 2 {
            let theta = -2.0 * std::f64::consts::PI * k as f64 / size as f64;
            twiddles.push(Complex64::cis(theta));
        }
        let mut bit_rev = vec![0u32; size];
        for (i, slot) in bit_rev.iter_mut().enumerate() {
            *slot = (i as u32).reverse_bits() >> (32 - log2_size.max(1));
        }
        if size == 1 {
            bit_rev[0] = 0;
        }
        Ok(Self { size, log2_size, twiddles, bit_rev })
    }

    /// The transform size this plan was built for.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// `log2` of the transform size — the number of butterfly stages in the
    /// equivalent pipelined hardware unit.
    #[inline]
    pub fn stages(&self) -> u32 {
        self.log2_size
    }

    /// In-place forward FFT: `X_k = Σ_j x_j e^{-2πijk/n}`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != self.size()`.
    pub fn forward(&self, data: &mut [Complex64]) -> Result<(), FftError> {
        self.check_len(data.len())?;
        self.permute(data);
        self.butterflies(data, false);
        Ok(())
    }

    /// In-place unnormalised inverse FFT: `x_j = Σ_k X_k e^{+2πijk/n}`.
    ///
    /// Dividing by `n` is left to the caller so that scaling can be fused
    /// with other constants (as the accelerator does in its accumulator
    /// stage).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != self.size()`.
    pub fn inverse_unnormalized(&self, data: &mut [Complex64]) -> Result<(), FftError> {
        self.check_len(data.len())?;
        self.permute(data);
        self.butterflies(data, true);
        Ok(())
    }

    /// In-place normalised inverse FFT (divides by `n`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != self.size()`.
    pub fn inverse(&self, data: &mut [Complex64]) -> Result<(), FftError> {
        self.inverse_unnormalized(data)?;
        let scale = 1.0 / self.size as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
        Ok(())
    }

    fn check_len(&self, len: usize) -> Result<(), FftError> {
        if len != self.size {
            return Err(FftError::LengthMismatch { expected: self.size, actual: len });
        }
        Ok(())
    }

    fn permute(&self, data: &mut [Complex64]) {
        for i in 0..self.size {
            let j = self.bit_rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    fn butterflies(&self, data: &mut [Complex64], inverse: bool) {
        let n = self.size;
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let tw = self.twiddles[k * stride];
                    let tw = if inverse { tw.conj() } else { tw };
                    let a = data[start + k];
                    let b = data[start + k + half] * tw;
                    data[start + k] = a + b;
                    data[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(input: &[Complex64], inverse: bool) -> Vec<Complex64> {
        let n = input.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|j| {
                        let theta = sign * 2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                        input[j] * Complex64::cis(theta)
                    })
                    .sum()
            })
            .collect()
    }

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "mismatch: {x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert_eq!(FftPlan::new(3).unwrap_err(), FftError::InvalidSize { requested: 3, min: 1 });
        assert_eq!(FftPlan::new(0).unwrap_err(), FftError::InvalidSize { requested: 0, min: 1 });
    }

    #[test]
    fn rejects_wrong_buffer_length() {
        let plan = FftPlan::new(8).unwrap();
        let mut short = vec![Complex64::ZERO; 4];
        assert_eq!(
            plan.forward(&mut short).unwrap_err(),
            FftError::LengthMismatch { expected: 8, actual: 4 }
        );
    }

    #[test]
    fn size_one_transform_is_identity() {
        let plan = FftPlan::new(1).unwrap();
        let mut data = [Complex64::new(2.5, -1.0)];
        plan.forward(&mut data).unwrap();
        assert_eq!(data[0], Complex64::new(2.5, -1.0));
    }

    #[test]
    fn matches_naive_dft() {
        for log_n in 1..=7 {
            let n = 1usize << log_n;
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64).sin() + 1.0, (i as f64 * 0.7).cos()))
                .collect();
            let expected = naive_dft(&input, false);
            let plan = FftPlan::new(n).unwrap();
            let mut data = input.clone();
            plan.forward(&mut data).unwrap();
            assert_close(&data, &expected, 1e-9 * n as f64);
        }
    }

    #[test]
    fn inverse_matches_naive_inverse_dft() {
        let n = 32;
        let input: Vec<Complex64> =
            (0..n).map(|i| Complex64::new(i as f64, -(i as f64) * 0.3)).collect();
        let mut expected = naive_dft(&input, true);
        for z in expected.iter_mut() {
            *z = z.scale(1.0 / n as f64);
        }
        let plan = FftPlan::new(n).unwrap();
        let mut data = input.clone();
        plan.inverse(&mut data).unwrap();
        assert_close(&data, &expected, 1e-9);
    }

    #[test]
    fn round_trip_recovers_input() {
        let n = 256;
        let input: Vec<Complex64> =
            (0..n).map(|i| Complex64::new((i * 37 % 101) as f64, (i * 53 % 97) as f64)).collect();
        let plan = FftPlan::new(n).unwrap();
        let mut data = input.clone();
        plan.forward(&mut data).unwrap();
        plan.inverse(&mut data).unwrap();
        assert_close(&data, &input, 1e-8);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64;
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.11).sin(), (i as f64 * 0.23).cos()))
            .collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let plan = FftPlan::new(n).unwrap();
        let mut data = input;
        plan.forward(&mut data).unwrap();
        let freq_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn linearity_holds() {
        let n = 16;
        let a: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 1.0)).collect();
        let b: Vec<Complex64> = (0..n).map(|i| Complex64::new(1.0, -(i as f64))).collect();
        let plan = FftPlan::new(n).unwrap();

        let mut fa = a.clone();
        plan.forward(&mut fa).unwrap();
        let mut fb = b.clone();
        plan.forward(&mut fb).unwrap();
        let mut fab: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.forward(&mut fab).unwrap();

        let sum: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert_close(&fab, &sum, 1e-9);
    }

    #[test]
    fn stages_matches_log2() {
        assert_eq!(FftPlan::new(1024).unwrap().stages(), 10);
        assert_eq!(FftPlan::new(8192).unwrap().stages(), 13);
    }
}
