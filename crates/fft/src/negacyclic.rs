//! Negacyclic polynomial transform via the folding scheme (Strix §V-A)
//! on the bit-reversed-spectrum kernel.
//!
//! TFHE multiplies polynomials in `Z[X]/(X^N + 1)` (negacyclic
//! convolution). The roots of `X^N + 1` are the *odd* 2N-th roots of
//! unity, which come in conjugate pairs for real inputs, so only `N/2`
//! complex evaluations are needed.
//!
//! The folding scheme packs the second half of the polynomial into the
//! imaginary lane of the first half — `z_j = a_j + i·a_{j+N/2}` —
//! twists by `e^{iπj/N}`, and runs an `N/2`-point complex FFT. This is
//! exactly the optimisation that lets the Strix FFT unit transform
//! 16,384-coefficient polynomials on an 8,192-point pipeline, halving
//! latency and area (paper Table VI), and it is also how
//! Concrete/tfhe-rs perform the transform in software.
//!
//! # Spectrum convention and fused passes
//!
//! The complex core is [`SpectralPlan`], the branch-free DIF/DIT
//! kernel: the forward transform emits the spectrum **digit-reversed**
//! and the inverse consumes exactly that ordering, so no bit-reversal
//! permutation pass ever runs. Spectra produced by this type are only
//! valid for *pointwise* consumption ([`pointwise_mul_add_soa`], the VMA)
//! against spectra produced under the **same plan** — which is all
//! TFHE ever does with them. [`NegacyclicFft::spectrum_permutation`]
//! exposes the bin→slot map for diagnostics.
//!
//! On top of the kernel, two whole passes over the data are fused
//! away per transform:
//!
//! * the fold + twist (`z_j = (a_j + i·a_{j+N/2})·e^{iπj/N}`) is
//!   computed inside the *first* forward butterfly stage, loading
//!   straight from the real coefficient array;
//! * the untwist and the `1/(N/2)` normalisation are merged into one
//!   constant table applied inside the *last* inverse stage, which
//!   also unfolds straight into the real output array.
//!
//! A transform is therefore exactly its butterfly stages: no
//! permutation pass, no twist pass, no normalisation pass, and no
//! direction branch anywhere in the inner loops. Every entry point is
//! batched over split-complex [`SoaSpectrum`] planes; a single
//! polynomial is a batch of one.

use crate::backend::{self, StrixFftBackend};
use crate::complex::Complex64;
use crate::error::FftError;
use crate::is_pow2_at_least;
use crate::kernel::SpectralPlan;
use crate::soa::SoaSpectrum;

/// Negacyclic transform of real polynomials with `N` coefficients using
/// an `N/2`-point complex FFT under the bit-reversed-spectrum
/// convention (see the module docs).
///
/// # Example
///
/// Negacyclic wrap-around: `X^{N-1} · X = X^N = -1` in `Z[X]/(X^N+1)`.
///
/// ```
/// use strix_fft::NegacyclicFft;
///
/// # fn main() -> Result<(), strix_fft::FftError> {
/// let fft = NegacyclicFft::new(4)?;
/// let x3 = [0i64, 0, 0, 1]; // X^3
/// let x1 = [0i64, 1, 0, 0]; // X
/// let mut out = [0i64; 4];
/// fft.negacyclic_mul_i64(&x3, &x1, &mut out)?;
/// assert_eq!(out, [-1, 0, 0, 0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct NegacyclicFft {
    poly_size: usize,
    kernel: SpectralPlan,
    /// Twist factors `e^{iπj/N}` for `j` in `[0, N/2)`, split into
    /// re/im planes, applied inside the first forward stage.
    twist_re: Vec<f64>,
    twist_im: Vec<f64>,
    /// Merged inverse constants `e^{-iπj/N} / (N/2)` — untwist and
    /// normalisation in one multiply, applied inside the last inverse
    /// stage.
    untwist_re: Vec<f64>,
    untwist_im: Vec<f64>,
}

impl NegacyclicFft {
    /// Smallest supported polynomial size.
    pub const MIN_POLY_SIZE: usize = 2;

    /// Creates a transform for polynomials with `poly_size` coefficients,
    /// selecting the kernel backend by runtime CPU detection (honouring
    /// the `STRIX_FFT_BACKEND` environment override).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] unless `poly_size` is a power of
    /// two, at least [`Self::MIN_POLY_SIZE`], or
    /// [`FftError::InvalidBackendEnv`] if the environment override holds
    /// an unknown backend name.
    pub fn new(poly_size: usize) -> Result<Self, FftError> {
        Self::with_backend(poly_size, StrixFftBackend::Auto)
    }

    /// Creates a transform for polynomials with `poly_size` coefficients
    /// on an explicitly requested kernel backend.
    /// [`StrixFftBackend::Auto`] behaves like [`Self::new`]; a concrete
    /// backend is used as-is after a CPU-capability check.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] unless `poly_size` is a power of
    /// two at least [`Self::MIN_POLY_SIZE`],
    /// [`FftError::BackendUnavailable`] if the requested backend is not
    /// supported by this CPU, or [`FftError::InvalidBackendEnv`] for a
    /// malformed environment override under `Auto`.
    pub fn with_backend(poly_size: usize, backend: StrixFftBackend) -> Result<Self, FftError> {
        if !is_pow2_at_least(poly_size, Self::MIN_POLY_SIZE) {
            return Err(FftError::InvalidSize { requested: poly_size, min: Self::MIN_POLY_SIZE });
        }
        let half = poly_size / 2;
        let kernel = SpectralPlan::with_backend(half, backend)?;
        let inv_n = 1.0 / half as f64;
        let theta = |j: usize| std::f64::consts::PI * j as f64 / poly_size as f64;
        let twist: Vec<Complex64> = (0..half).map(|j| Complex64::cis(theta(j))).collect();
        let untwist: Vec<Complex64> =
            (0..half).map(|j| Complex64::cis(-theta(j)).scale(inv_n)).collect();
        Ok(Self {
            poly_size,
            kernel,
            twist_re: twist.iter().map(|z| z.re).collect(),
            twist_im: twist.iter().map(|z| z.im).collect(),
            untwist_re: untwist.iter().map(|z| z.re).collect(),
            untwist_im: untwist.iter().map(|z| z.im).collect(),
        })
    }

    /// Number of coefficients in the time-domain polynomial (`N`).
    #[inline]
    pub fn poly_size(&self) -> usize {
        self.poly_size
    }

    /// Number of complex points in the Fourier domain (`N/2`) — the size
    /// of the *folded* FFT pipeline the hardware instantiates.
    #[inline]
    pub fn fourier_size(&self) -> usize {
        self.poly_size / 2
    }

    /// The resolved kernel backend this transform's batched entry
    /// points (and [`Self::pointwise_mul_add_key`]) run on — never
    /// [`StrixFftBackend::Auto`].
    #[inline]
    pub fn backend(&self) -> StrixFftBackend {
        self.kernel.backend()
    }

    /// The bin→slot map of the spectra this transform produces:
    /// natural-order negacyclic bin `k` (the evaluation at
    /// `ω^{1−4k mod 2N}`, `ω = e^{iπ/N}`) is stored at slot
    /// `spectrum_permutation()[k]`. Diagnostics/tests only — the
    /// production pipeline never needs natural order.
    pub fn spectrum_permutation(&self) -> Vec<usize> {
        self.kernel.permutation()
    }

    /// Batched forward transform of `count` packed `i64` polynomials
    /// (laid out back to back in `polys`, `N` coefficients each) into
    /// the `count` transforms of `out` — the coefficient-level batching
    /// entry point of the CMUX hot path: all `(k+1)·l` digit
    /// polynomials of one external product go through the kernel in
    /// one call, with every butterfly stage run across the whole batch
    /// before the next stage starts ([`SpectralPlan::forward_many`]'s
    /// schedule) and the fold+twist fused into the first stage, loading
    /// straight from the coefficient array. The output spectra are in
    /// the plan's digit-reversed slot order.
    ///
    /// Each polynomial's spectrum has the same bits alone (a batch of
    /// one) as at any position of any batch.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `polys.len()` is not
    /// `N · count` or `out`'s transform length is not `N/2`.
    pub fn forward_i64_many(&self, polys: &[i64], out: &mut SoaSpectrum) -> Result<(), FftError> {
        self.check_batch(polys.len(), out)?;
        self.kernel.forward_folded_twisted_many(polys, &self.twist_re, &self.twist_im, out);
        Ok(())
    }

    /// Batched inverse transform, normalised so that it undoes
    /// [`Self::forward_i64_many`]: the `count` spectra of `batch`
    /// (digit-reversed slot order, consumed in place as scratch) become
    /// `count` packed real polynomials in `out`. Every inverse stage
    /// but the last runs across the whole batch; the merged
    /// untwist+normalise multiply and the unfold are fused into the
    /// last stage. Like the forward transform, each result is
    /// independent of the batch around it.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `out.len()` is not
    /// `N · count` or `batch`'s transform length is not `N/2`.
    pub fn backward_f64_many(
        &self,
        batch: &mut SoaSpectrum,
        out: &mut [f64],
    ) -> Result<(), FftError> {
        self.check_batch(out.len(), batch)?;
        self.kernel.inverse_folded_untwisted_many(batch, &self.untwist_re, &self.untwist_im, out);
        Ok(())
    }

    /// Backend-dispatched form of the free [`pointwise_mul_add_key`]
    /// mixed-layout VMA: interleaved `acc`/`a`, split key planes.
    /// Bit-identical to the free function on every backend. No PBS
    /// path runs it; it is the kernel a per-layer VMA probe times.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn pointwise_mul_add_key(
        &self,
        acc: &mut [Complex64],
        a: &[Complex64],
        b_re: &[f64],
        b_im: &[f64],
    ) {
        assert_eq!(acc.len(), a.len(), "pointwise length mismatch");
        assert_eq!(acc.len(), b_re.len(), "pointwise length mismatch");
        assert_eq!(acc.len(), b_im.len(), "pointwise length mismatch");
        backend::mul_add_key(self.backend(), acc, a, b_re, b_im);
    }

    fn check_batch(&self, time_len: usize, batch: &SoaSpectrum) -> Result<(), FftError> {
        if batch.transform_len() != self.fourier_size() {
            return Err(FftError::LengthMismatch {
                expected: self.fourier_size(),
                actual: batch.transform_len(),
            });
        }
        if time_len != self.poly_size * batch.count() {
            return Err(FftError::LengthMismatch {
                expected: self.poly_size * batch.count(),
                actual: time_len,
            });
        }
        Ok(())
    }

    /// Negacyclic product of two integer polynomials, each coefficient
    /// rounded to the nearest integer.
    ///
    /// The result is exact whenever `‖a‖₂·‖b‖₂ ≤ 2⁴²` and `N ≤ 2¹⁶`.
    /// Percival's bound for FFT convolution (unit roundoff `2⁻⁵³`,
    /// directly evaluated twiddles, `log₂N` levels) keeps every output
    /// coefficient within `2⁻⁴⁵·‖a‖₂·‖b‖₂ ≤ ⅛` of its true value, so
    /// rounding cannot pick the wrong integer. The bound is on the
    /// operands' norms, not on the size of the result: constant operands
    /// `2²⁵−1` and `2¹⁶−1` at `N = 1024` (`‖a‖₂·‖b‖₂ ≈ 2⁵¹`) give
    /// coefficients below `2⁵²` that come back off by one.
    ///
    /// Runs one batched forward transform of both operands, one split
    /// VMA into a zeroed product spectrum and one inverse transform;
    /// it allocates its buffers per call.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] on buffer size mismatch.
    pub fn negacyclic_mul_i64(
        &self,
        a: &[i64],
        b: &[i64],
        out: &mut [i64],
    ) -> Result<(), FftError> {
        for len in [a.len(), b.len(), out.len()] {
            if len != self.poly_size {
                return Err(FftError::LengthMismatch { expected: self.poly_size, actual: len });
            }
        }
        let half = self.fourier_size();
        let mut operands = SoaSpectrum::new(2, half);
        self.forward_i64_many(&[a, b].concat(), &mut operands)?;
        let mut product = SoaSpectrum::new(1, half);
        let ((a_re, a_im), (b_re, b_im)) = (operands.transform(0), operands.transform(1));
        let (p_re, p_im) = product.transform_mut(0);
        pointwise_mul_add_soa(p_re, p_im, a_re, a_im, b_re, b_im);
        let mut time = vec![0.0f64; self.poly_size];
        self.backward_f64_many(&mut product, &mut time)?;
        for (o, r) in out.iter_mut().zip(&time) {
            *o = r.round() as i64;
        }
        Ok(())
    }
}

/// Precomputed tables for materializing the spectrum of a monomial
/// `X^d` directly in the digit-reversed slot order of a
/// [`NegacyclicFft`] plan — without running a transform.
///
/// The negacyclic spectrum of `X^d` evaluated at the odd 2N-th root
/// `ω^m` (`ω = e^{iπ/N}`) is the unit complex `e^{iπ·d·m/N}`, which is
/// periodic in `d·m` with period `2N`. The table therefore stores the
/// `2N` units `e^{iπt/N}` once (split into re/im planes) plus the odd
/// exponent `m` of each *slot* of the plan's digit-reversed ordering,
/// and [`Self::spectrum_into`] becomes a pure table gather:
/// `slot s ← unit[(d · m_s) mod 2N]`. No `sin`/`cos` runs per call.
///
/// This is the enabling primitive of the multi-bit PBS kernel: the
/// combined GGSW `Σ_b X^{d_b}·GGSW_b` is formed in the Fourier domain
/// by scaling each key row's spectrum with a monomial spectrum — one
/// slot tile at a time ([`Self::tile_into`]) — so rotation by the
/// grouped mask digits costs one gather plus one pointwise
/// multiply–accumulate instead of any time-domain rotation or extra
/// transform. Negacyclic wrap-around (`X^N = −1`) is encoded
/// in the period-2N unit table and needs no special casing.
#[derive(Clone, Debug)]
pub struct MonomialTable {
    /// `e^{iπt/N}.re` for `t ∈ [0, 2N)`.
    unit_re: Vec<f64>,
    /// `e^{iπt/N}.im` for `t ∈ [0, 2N)`.
    unit_im: Vec<f64>,
    /// Odd exponent `m = (1 − 4k) mod 2N` of the bin stored in each
    /// slot, in slot order (index = slot, not natural bin).
    slot_exp: Vec<usize>,
    /// `2N − 1`, for reducing `d·m` mod the power-of-two period.
    mask: usize,
}

impl MonomialTable {
    /// Builds the tables for `fft`'s polynomial size and slot ordering.
    pub fn for_plan(fft: &NegacyclicFft) -> Self {
        let n = fft.poly_size();
        let two_n = 2 * n;
        let mut unit_re = Vec::with_capacity(two_n);
        let mut unit_im = Vec::with_capacity(two_n);
        for t in 0..two_n {
            let z = Complex64::cis(std::f64::consts::PI * t as f64 / n as f64);
            unit_re.push(z.re);
            unit_im.push(z.im);
        }
        let perm = fft.spectrum_permutation();
        let mut slot_exp = vec![0usize; fft.fourier_size()];
        for (k, &slot) in perm.iter().enumerate() {
            slot_exp[slot] = (1isize - 4 * k as isize).rem_euclid(two_n as isize) as usize;
        }
        Self { unit_re, unit_im, slot_exp, mask: two_n - 1 }
    }

    /// Number of slots per spectrum (`N/2`).
    #[inline]
    pub fn fourier_size(&self) -> usize {
        self.slot_exp.len()
    }

    /// Writes the spectrum of `X^degree` (degree taken mod `2N`) into
    /// split re/im planes, in the plan's digit-reversed slot order —
    /// pointwise-compatible with spectra from the plan's forward
    /// transforms.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if either plane is not
    /// `N/2` long.
    pub fn spectrum_into(
        &self,
        degree: usize,
        re: &mut [f64],
        im: &mut [f64],
    ) -> Result<(), FftError> {
        let half = self.fourier_size();
        for len in [re.len(), im.len()] {
            if len != half {
                return Err(FftError::LengthMismatch { expected: half, actual: len });
            }
        }
        self.tile_into(degree, 0, re, im)
    }

    // lint:hot-path-start — the per-tile monomial writer must stay allocation-free
    /// Writes slots `first .. first + re.len()` of the spectrum of
    /// `X^degree` into split re/im planes: one slot tile of
    /// [`Self::spectrum_into`], with the same values bit for bit. The
    /// tiled multi-bit kernel builds each job's monomials one tile at a
    /// time, right where its fused assembly consumes them.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if the planes differ in
    /// length or run past slot `N/2`.
    pub fn tile_into(
        &self,
        degree: usize,
        first: usize,
        re: &mut [f64],
        im: &mut [f64],
    ) -> Result<(), FftError> {
        let Some(slot_exp) = self.slot_exp.get(first..first + re.len()) else {
            let expected = self.fourier_size().saturating_sub(first);
            return Err(FftError::LengthMismatch { expected, actual: re.len() });
        };
        if im.len() != re.len() {
            return Err(FftError::LengthMismatch { expected: re.len(), actual: im.len() });
        }
        let (d, mask) = (degree & self.mask, self.mask);
        // Slicing to `mask + 1` lets `t & mask` index without a check.
        let (unit_re, unit_im) = (&self.unit_re[..=mask], &self.unit_im[..=mask]);
        for ((r, i), &m) in re.iter_mut().zip(im.iter_mut()).zip(slot_exp) {
            let t = (d * m) & mask;
            *r = unit_re[t];
            *i = unit_im[t];
        }
        Ok(())
    }
    // lint:hot-path-end
}

/// Mixed-layout multiply–accumulate: interleaved `acc` and `a`, the
/// second operand in split (SoA) planes:
/// `acc_k += a_k · (b_re_k + i·b_im_k)`. The complex multiply uses
/// exactly [`Complex64`]'s expression, so it rounds like
/// [`pointwise_mul_add_soa`]. No PBS path runs it; it is the scalar
/// reference of the backend-dispatched
/// [`NegacyclicFft::pointwise_mul_add_key`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn pointwise_mul_add_key(acc: &mut [Complex64], a: &[Complex64], b_re: &[f64], b_im: &[f64]) {
    assert_eq!(acc.len(), a.len(), "pointwise length mismatch");
    assert_eq!(acc.len(), b_re.len(), "pointwise length mismatch");
    assert_eq!(acc.len(), b_im.len(), "pointwise length mismatch");
    for (((s, x), &br), &bi) in acc.iter_mut().zip(a).zip(b_re).zip(b_im) {
        let pr = x.re * br - x.im * bi;
        let pi = x.re * bi + x.im * br;
        s.re += pr;
        s.im += pi;
    }
}

/// Fully split (structure-of-arrays) fused multiply–accumulate, the
/// four-array VMA kernel of the coefficient-batched CMUX:
/// `acc_k += a_k · b_k` with every operand in separate `re`/`im`
/// planes.
///
/// This is the software analogue of the Strix VMA unit's
/// multiply-and-adder-tree datapath operating on Fourier coefficients.
/// It is ordering-agnostic: with all three operands in the same
/// (digit-reversed) slot order, the result is the slot-ordered product
/// spectrum — which is precisely why the bit-reversed-spectrum
/// convention is free for TFHE. Each plane is a plain contiguous `f64` slice, so the loop
/// below autovectorises into packed multiplies and adds with no lane
/// shuffles — the software shape of the Strix VMA unit's datapath and
/// of FPT's split-lane layout.
///
/// Per-element arithmetic is exactly [`Complex64`]'s multiply
/// followed by an add.
///
/// This loop is the split VMA's only implementation, whatever backend
/// a plan resolved: it has no explicit SIMD kernel, because the
/// autovectorised loop measured faster than an explicit AVX2 one.
///
/// # Panics
///
/// Panics if the slices have different lengths (programming error —
/// the buffers come from plans of matching size).
#[inline]
pub fn pointwise_mul_add_soa(
    acc_re: &mut [f64],
    acc_im: &mut [f64],
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
) {
    let n = acc_re.len();
    assert_eq!(acc_im.len(), n, "pointwise length mismatch");
    assert_eq!(a_re.len(), n, "pointwise length mismatch");
    assert_eq!(a_im.len(), n, "pointwise length mismatch");
    assert_eq!(b_re.len(), n, "pointwise length mismatch");
    assert_eq!(b_im.len(), n, "pointwise length mismatch");
    // Indexed loop over pre-checked equal-length slices: the bounds
    // checks fold away and the body is four independent packed FMAs'
    // worth of mul/add work per lane.
    for j in 0..n {
        let pr = a_re[j] * b_re[j] - a_im[j] * b_im[j];
        let pi = a_re[j] * b_im[j] + a_im[j] * b_re[j];
        acc_re[j] += pr;
        acc_im[j] += pi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    /// The spectrum of one polynomial, through a batch of one.
    fn spectrum(fft: &NegacyclicFft, poly: &[i64]) -> Vec<Complex64> {
        let mut batch = SoaSpectrum::new(1, fft.fourier_size());
        fft.forward_i64_many(poly, &mut batch).unwrap();
        let mut out = vec![Complex64::ZERO; fft.fourier_size()];
        batch.load(0, &mut out);
        out
    }

    #[test]
    fn rejects_tiny_or_odd_sizes() {
        assert!(NegacyclicFft::new(1).is_err());
        assert!(NegacyclicFft::new(6).is_err());
        assert!(NegacyclicFft::new(2).is_ok());
    }

    #[test]
    fn fourier_size_is_half() {
        let fft = NegacyclicFft::new(1024).unwrap();
        assert_eq!(fft.poly_size(), 1024);
        assert_eq!(fft.fourier_size(), 512);
    }

    #[test]
    fn forward_backward_round_trip() {
        for log_n in 1..=11 {
            let n = 1usize << log_n;
            let fft = NegacyclicFft::new(n).unwrap();
            let poly: Vec<i64> = (0..n).map(|i| ((i * 7919) % 257) as i64 - 128).collect();
            let mut spec = SoaSpectrum::new(1, n / 2);
            fft.forward_i64_many(&poly, &mut spec).unwrap();
            let mut back = vec![0.0f64; n];
            fft.backward_f64_many(&mut spec, &mut back).unwrap();
            for (&a, b) in poly.iter().zip(&back) {
                assert!((a as f64 - b).abs() < 1e-7, "{a} vs {b} at n={n}");
            }
        }
    }

    #[test]
    fn spectrum_evaluates_at_odd_roots_in_permuted_slots() {
        // Slot perm[k] must hold a(ω^{1-4k mod 2N}) with ω = e^{iπ/N}:
        // the twist contributes e^{+iπj/N}, the FFT kernel contributes
        // e^{-4πijk/N}, and the DIF schedule stores bin k at slot
        // perm[k] instead of running a reordering pass.
        let n = 16;
        let fft = NegacyclicFft::new(n).unwrap();
        let poly: Vec<i64> = (0..n as i64).map(|i| i * i - 5).collect();
        let spec = spectrum(&fft, &poly);
        let perm = fft.spectrum_permutation();
        for (k, &slot) in perm.iter().enumerate() {
            let m = (1isize - 4 * k as isize).rem_euclid(2 * n as isize) as usize;
            assert_eq!(m % 2, 1, "evaluation points must be odd 2N-th roots");
            let root = Complex64::cis(std::f64::consts::PI * m as f64 / n as f64);
            let mut eval = Complex64::ZERO;
            let mut pow = Complex64::ONE;
            for &c in &poly {
                eval += pow.scale(c as f64);
                pow *= root;
            }
            let z = spec[slot];
            assert!((z - eval).abs() < 1e-8, "bin {k} (slot {slot}): {z} vs {eval}");
        }
    }

    #[test]
    fn monomial_table_matches_forward_transform_of_the_monomial() {
        // The gathered spectrum of X^d must agree with actually
        // transforming the monomial polynomial, for degrees covering
        // d = 0, d < N, the negacyclic wrap d ≥ N (X^N = −1) and full
        // 2N-periodicity.
        for n in [4usize, 16, 64, 512] {
            let fft = NegacyclicFft::new(n).unwrap();
            let table = MonomialTable::for_plan(&fft);
            assert_eq!(table.fourier_size(), fft.fourier_size());
            for degree in [0, 1, n / 2, n - 1, n, n + 3, 2 * n - 1, 2 * n, 3 * n + 5] {
                let reduced = degree % (2 * n);
                let mut poly = vec![0i64; n];
                if reduced < n {
                    poly[reduced] = 1;
                } else {
                    poly[reduced - n] = -1;
                }
                let spec = spectrum(&fft, &poly);
                let mut re = vec![0.0f64; n / 2];
                let mut im = vec![0.0f64; n / 2];
                table.spectrum_into(degree, &mut re, &mut im).unwrap();
                for s in 0..n / 2 {
                    let dr = (re[s] - spec[s].re).abs();
                    let di = (im[s] - spec[s].im).abs();
                    assert!(
                        dr < 1e-9 && di < 1e-9,
                        "n={n} d={degree} slot {s}: ({}, {}) vs {:?}",
                        re[s],
                        im[s],
                        spec[s]
                    );
                }
            }
        }
    }

    #[test]
    fn monomial_tiles_reassemble_the_whole_spectrum() {
        let fft = NegacyclicFft::new(64).unwrap();
        let table = MonomialTable::for_plan(&fft);
        let mut re = vec![0.0f64; 32];
        let mut im = vec![0.0f64; 32];
        for degree in [0, 1, 63, 64, 100] {
            table.spectrum_into(degree, &mut re, &mut im).unwrap();
            for first in (0..32).step_by(8) {
                let mut tile_re = [0.0f64; 8];
                let mut tile_im = [0.0f64; 8];
                table.tile_into(degree, first, &mut tile_re, &mut tile_im).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&tile_re), bits(&re[first..first + 8]), "d={degree}");
                assert_eq!(bits(&tile_im), bits(&im[first..first + 8]), "d={degree}");
            }
        }
        let (mut re, mut im) = ([0.0f64; 8], [0.0f64; 8]);
        assert!(table.tile_into(1, 28, &mut re, &mut im).is_err());
        assert!(table.tile_into(1, 0, &mut re, &mut im[..4]).is_err());
    }

    #[test]
    fn monomial_table_rejects_wrong_plane_lengths() {
        let fft = NegacyclicFft::new(8).unwrap();
        let table = MonomialTable::for_plan(&fft);
        let mut re = vec![0.0f64; 4];
        let mut im = vec![0.0f64; 3];
        assert_eq!(
            table.spectrum_into(1, &mut re, &mut im).unwrap_err(),
            FftError::LengthMismatch { expected: 4, actual: 3 }
        );
    }

    #[test]
    fn multiplication_matches_schoolbook() {
        for log_n in 1..=9 {
            let n = 1usize << log_n;
            let fft = NegacyclicFft::new(n).unwrap();
            let a: Vec<i64> = (0..n).map(|i| ((i * 31 + 7) % 41) as i64 - 20).collect();
            let b: Vec<i64> = (0..n).map(|i| ((i * 17 + 3) % 37) as i64 - 18).collect();
            let expected = reference::negacyclic_mul(&a, &b);
            let mut out = vec![0i64; n];
            fft.negacyclic_mul_i64(&a, &b, &mut out).unwrap();
            assert_eq!(out, expected, "n={n}");
        }
    }

    /// Constant maximal operands at the documented bound
    /// `‖a‖₂·‖b‖₂ = 2⁴²`, where every product coefficient is largest:
    /// `a = ±2²¹`, `b = 2⁴²/(N·2²¹)`. The negacyclic product of two
    /// constants `a`, `b` has coefficient `c` equal to `a·b·(2c + 2 − N)`.
    #[test]
    fn multiplication_is_exact_at_the_operand_norm_bound() {
        for n in [1024usize, 1 << 14] {
            let fft = NegacyclicFft::new(n).unwrap();
            let b_value = (1i64 << 21) / n as i64;
            for a_value in [1i64 << 21, -(1 << 21)] {
                let a = vec![a_value; n];
                let b = vec![b_value; n];
                let mut out = vec![0i64; n];
                fft.negacyclic_mul_i64(&a, &b, &mut out).unwrap();
                for (c, &o) in out.iter().enumerate() {
                    let want = a_value * b_value * (2 * c as i64 + 2 - n as i64);
                    assert_eq!(o, want, "n={n} a={a_value} coefficient {c}");
                }
            }
        }
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // X^{N/2} * X^{N/2} = X^N = -1.
        let n = 8;
        let fft = NegacyclicFft::new(n).unwrap();
        let mut a = vec![0i64; n];
        a[n / 2] = 1;
        let mut out = vec![0i64; n];
        fft.negacyclic_mul_i64(&a, &a, &mut out).unwrap();
        let mut expected = vec![0i64; n];
        expected[0] = -1;
        assert_eq!(out, expected);
    }

    #[test]
    fn smallest_polynomial_size_multiplies_exactly() {
        // N = 2 runs on a single-point complex FFT: the fused fold and
        // untwist paths must still be exact.
        let fft = NegacyclicFft::new(2).unwrap();
        let a = [3i64, -4];
        let b = [-2i64, 5];
        // (3 - 4X)(-2 + 5X) = -6 + 23X - 20X² = 14 + 23X mod X²+1.
        let mut out = [0i64; 2];
        fft.negacyclic_mul_i64(&a, &b, &mut out).unwrap();
        assert_eq!(out, [14, 23]);
    }

    #[test]
    fn pointwise_mul_add_accumulates() {
        // (1+2i)(3) + (1+i) = 4+7i and i·i + 0 = −1, lane by lane.
        let (a_re, a_im) = ([1.0, 0.0], [2.0, 1.0]);
        let (b_re, b_im) = ([3.0, 0.0], [0.0, 1.0]);
        let (mut acc_re, mut acc_im) = ([1.0, 0.0], [1.0, 0.0]);
        pointwise_mul_add_soa(&mut acc_re, &mut acc_im, &a_re, &a_im, &b_re, &b_im);
        assert_eq!((acc_re, acc_im), ([4.0, -1.0], [7.0, 0.0]));
    }

    #[test]
    #[should_panic(expected = "pointwise length mismatch")]
    fn pointwise_mul_add_panics_on_mismatch() {
        let (a, b) = ([0.0; 2], [0.0; 3]);
        let (mut acc_re, mut acc_im) = ([0.0; 2], [0.0; 2]);
        pointwise_mul_add_soa(&mut acc_re, &mut acc_im, &a, &a, &b, &b);
    }

    #[test]
    fn buffer_mismatch_is_reported() {
        let fft = NegacyclicFft::new(8).unwrap();
        let mut wrong = SoaSpectrum::new(1, 8); // should be 4
        assert_eq!(
            fft.forward_i64_many(&[0i64; 8], &mut wrong).unwrap_err(),
            FftError::LengthMismatch { expected: 4, actual: 8 }
        );
    }
}
