//! Split-complex (structure-of-arrays) spectrum storage.
//!
//! The interleaved [`crate::Complex64`] layout keeps each `(re, im)`
//! pair adjacent, which is convenient for scalar code but hostile to
//! wide SIMD lanes: every complex multiply needs shuffles to separate
//! the real and imaginary parts before the four underlying real
//! multiplies can go packed. FPT makes exactly this observation about
//! the PBS inner loop and lays its Fourier data out *split*: one plane
//! of all real parts, one plane of all imaginary parts, so the
//! butterfly and VMA inner loops become plain `f64`-array arithmetic
//! that LLVM vectorises without any lane rearrangement.
//!
//! [`SoaSpectrum`] is that layout: a batch of `count` spectra of
//! `transform_len` complex points each, stored as two contiguous
//! `f64` planes. It is the only layout the transforms run on.
//! [`SoaSpectrum::store`] and [`SoaSpectrum::load`] convert to and
//! from interleaved spectra without perturbing a single ULP — only
//! the addressing changes — for tests and for the natural-order
//! oracle.

use crate::complex::Complex64;

/// A batch of split-complex spectra: `count` transforms of
/// `transform_len` points each, stored as one contiguous real plane and
/// one contiguous imaginary plane (transform-major within each plane).
///
/// Transform `t` owns `re[t·L .. (t+1)·L]` and `im[t·L .. (t+1)·L]`
/// with `L = transform_len`.
#[derive(Clone, Debug, PartialEq)]
pub struct SoaSpectrum {
    re: Vec<f64>,
    im: Vec<f64>,
    transform_len: usize,
}

impl SoaSpectrum {
    /// Allocates a zeroed batch of `count` spectra of `transform_len`
    /// complex points each.
    ///
    /// # Panics
    ///
    /// Panics if `transform_len` is zero (a spectrum must hold at least
    /// one point).
    pub fn new(count: usize, transform_len: usize) -> Self {
        assert!(transform_len > 0, "transform length must be positive");
        Self {
            re: vec![0.0; count * transform_len],
            im: vec![0.0; count * transform_len],
            transform_len,
        }
    }

    // lint:hot-path-start — per-call spectrum accessors and kernels must stay allocation-free
    /// Number of transforms in the batch.
    #[inline]
    pub fn count(&self) -> usize {
        self.re.len() / self.transform_len
    }

    /// Complex points per transform.
    #[inline]
    pub fn transform_len(&self) -> usize {
        self.transform_len
    }

    /// The `(re, im)` planes of transform `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= count()`.
    #[inline]
    pub fn transform(&self, t: usize) -> (&[f64], &[f64]) {
        let s = t * self.transform_len;
        let e = s + self.transform_len;
        (&self.re[s..e], &self.im[s..e])
    }

    /// Mutable `(re, im)` planes of transform `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= count()`.
    #[inline]
    pub fn transform_mut(&mut self, t: usize) -> (&mut [f64], &mut [f64]) {
        let s = t * self.transform_len;
        let e = s + self.transform_len;
        (&mut self.re[s..e], &mut self.im[s..e])
    }

    /// The whole real plane (all transforms, transform-major).
    #[inline]
    pub fn re_plane(&self) -> &[f64] {
        &self.re
    }

    /// The whole imaginary plane (all transforms, transform-major).
    #[inline]
    pub fn im_plane(&self) -> &[f64] {
        &self.im
    }

    /// Both whole planes at once — the borrow hot loops hoist so
    /// per-transform slicing (`chunks_exact(transform_len)`) carries no
    /// per-iteration bounds arithmetic.
    #[inline]
    pub fn planes(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// Mutable counterpart of [`Self::planes`].
    #[inline]
    pub fn planes_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }

    /// Zeroes every value in the batch (fresh accumulator state).
    pub fn fill_zero(&mut self) {
        self.re.fill(0.0);
        self.im.fill(0.0);
    }

    /// Overwrites this batch with `other`'s planes, bit-for-bit — the
    /// split-complex bulk copy that stages one spectrum batch in
    /// another's buffer.
    ///
    /// # Panics
    ///
    /// Panics if the batches disagree in transform count or length.
    pub fn copy_from(&mut self, other: &SoaSpectrum) {
        assert_eq!(self.transform_len, other.transform_len, "transform length mismatch");
        assert_eq!(self.re.len(), other.re.len(), "transform count mismatch");
        self.re.copy_from_slice(&other.re);
        self.im.copy_from_slice(&other.im);
    }

    /// Scatters an interleaved spectrum into transform `t`'s planes.
    /// Values are copied bit-for-bit — no arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `t >= count()` or `spec.len() != transform_len()`.
    pub fn store(&mut self, t: usize, spec: &[Complex64]) {
        assert_eq!(spec.len(), self.transform_len, "spectrum length mismatch");
        let (re, im) = self.transform_mut(t);
        for ((r, i), z) in re.iter_mut().zip(im.iter_mut()).zip(spec) {
            *r = z.re;
            *i = z.im;
        }
    }

    /// Gathers transform `t` back into an interleaved spectrum.
    /// Values are copied bit-for-bit — no arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `t >= count()` or `out.len() != transform_len()`.
    pub fn load(&self, t: usize, out: &mut [Complex64]) {
        assert_eq!(out.len(), self.transform_len, "spectrum length mismatch");
        let (re, im) = self.transform(t);
        for ((z, &r), &i) in out.iter_mut().zip(re).zip(im) {
            *z = Complex64::new(r, i);
        }
    }

    /// Approximate heap footprint in bytes (both planes).
    #[inline]
    pub fn byte_size(&self) -> usize {
        (self.re.len() + self.im.len()) * std::mem::size_of::<f64>()
    }
}

// lint:hot-path-end
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_interleaved_spectra_bit_exactly() {
        let mut batch = SoaSpectrum::new(3, 4);
        assert_eq!(batch.count(), 3);
        assert_eq!(batch.transform_len(), 4);
        let spec: Vec<Complex64> =
            (0..4).map(|i| Complex64::new(i as f64 * 0.1, -(i as f64) * 0.3)).collect();
        batch.store(1, &spec);
        let mut back = vec![Complex64::ZERO; 4];
        batch.load(1, &mut back);
        assert_eq!(back, spec);
        // Other transforms stay zero.
        batch.load(0, &mut back);
        assert!(back.iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn fill_zero_clears_every_plane() {
        let mut batch = SoaSpectrum::new(2, 2);
        batch.store(0, &[Complex64::new(1.0, 2.0), Complex64::new(3.0, 4.0)]);
        batch.fill_zero();
        assert!(batch.re_plane().iter().all(|&v| v == 0.0));
        assert!(batch.im_plane().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn copy_from_replicates_planes_bit_exactly() {
        let mut src = SoaSpectrum::new(2, 3);
        src.store(0, &[Complex64::new(1.5, -2.5); 3]);
        src.store(1, &[Complex64::new(-0.25, 4.0); 3]);
        let mut dst = SoaSpectrum::new(2, 3);
        dst.store(0, &[Complex64::new(9.0, 9.0); 3]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "transform count mismatch")]
    fn copy_from_rejects_mismatched_counts() {
        SoaSpectrum::new(2, 4).copy_from(&SoaSpectrum::new(3, 4));
    }

    #[test]
    fn byte_size_counts_both_planes() {
        assert_eq!(SoaSpectrum::new(2, 8).byte_size(), 2 * 8 * 16);
    }

    #[test]
    #[should_panic(expected = "transform length must be positive")]
    fn zero_length_transforms_are_rejected() {
        SoaSpectrum::new(1, 0);
    }
}
