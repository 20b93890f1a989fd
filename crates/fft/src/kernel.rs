//! Branch-free bit-reversed-spectrum FFT kernel.
//!
//! This is the hot transform core behind [`crate::NegacyclicFft`],
//! built around one observation about how spectra are *used* in TFHE:
//! they are only ever consumed pointwise (the VMA multiply–accumulate
//! of the external product), where bin ordering is irrelevant. The
//! kernel therefore never produces a natural-order spectrum:
//!
//! * the **forward** transform is decimation-in-frequency (DIF) —
//!   natural order in, digit-reversed spectrum out;
//! * the **inverse** transform is decimation-in-time (DIT) — the exact
//!   stage-by-stage inverse of the forward, digit-reversed spectrum
//!   in, natural order out.
//!
//! Composing them is the identity *by construction* (each inverse
//! stage undoes one forward stage, in reverse order), so both
//! bit-reversal permutation passes of a conventional natural-order FFT
//! are deleted outright. This mirrors how the Strix FFT unit (§V-A,
//! Fig. 5) never reorders data in memory either: its shuffle units
//! reorder *in-stream* between butterfly stages, and the VMA consumes
//! whatever lane order the pipeline emits as long as the IFFT consumes
//! the same one.
//!
//! Two further properties keep the inner loop branch-free and lean:
//!
//! * **stage-major twiddle tables**, precomputed separately for the
//!   forward and inverse directions — no `if inverse { tw.conj() }`
//!   in any butterfly, no per-stage stride arithmetic into one shared
//!   table;
//! * **radix-4 butterflies** with a single radix-2 stage when
//!   `log2(n)` is odd — half the stage count (and half the twiddle
//!   multiplies) of the radix-2 seed kernel.
//!
//! Every transform runs on split-complex [`SoaSpectrum`] planes, the
//! layout the Strix FFT unit streams into the VMA. The natural-order
//! [`crate::reference::FftPlan`] is the correctness oracle;
//! [`SpectralPlan::permutation`] gives the exact bin→slot map
//! connecting the two conventions.

use crate::backend::portable::cmul;
use crate::backend::{self, StrixFftBackend};
use crate::complex::Complex64;
use crate::error::FftError;
use crate::is_pow2_at_least;
use crate::soa::SoaSpectrum;

/// Butterfly radix of one stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Radix {
    Two,
    Four,
}

/// One butterfly stage: all blocks of length `len` across the array.
///
/// Twiddle layout is stage-major, one split (`tw_re`/`tw_im`) copy:
/// radix-2 stages store the `len/2` factors `w^j`; radix-4 stages store
/// the `len/4` factors of each power in turn (all `w^j`, then all
/// `w^{2j}`, then all `w^{3j}`), so every inner loop walks contiguous
/// planes.
#[derive(Clone, Debug)]
struct Stage {
    radix: Radix,
    len: usize,
    /// Real plane (power-major; see type docs).
    tw_re: Vec<f64>,
    /// Imaginary plane (power-major).
    tw_im: Vec<f64>,
}

impl Stage {
    /// Builds the stage for block length `len` in the given direction
    /// (`sign = -1.0` forward, `+1.0` inverse).
    fn new(radix: Radix, len: usize, sign: f64) -> Self {
        let base = sign * 2.0 * std::f64::consts::PI / len as f64;
        let (powers, per_power) = match radix {
            Radix::Two => (1, len / 2),
            Radix::Four => (3, len / 4),
        };
        let (mut tw_re, mut tw_im) =
            (Vec::with_capacity(powers * per_power), Vec::with_capacity(powers * per_power));
        for power in 1..=powers {
            for j in 0..per_power {
                // `1.0 * θ` is exactly `θ`, so every power is `cis(p·θ_j)`.
                let w = Complex64::cis(power as f64 * (base * j as f64));
                tw_re.push(w.re);
                tw_im.push(w.im);
            }
        }
        Self { radix, len, tw_re, tw_im }
    }

    /// Radix as a plain factor (2 or 4).
    fn factor(&self) -> usize {
        match self.radix {
            Radix::Two => 2,
            Radix::Four => 4,
        }
    }
}

/// One forward stage over one transform's split planes, dispatched to
/// the plan's backend — bit-identical on every backend, since the SIMD
/// kernels pin the portable per-element expressions (see
/// [`crate::backend`]). The twiddle-less unit stage (`len == 4`
/// radix-4) stays scalar here: its add/sub network autovectorises
/// fully and has no contiguous-lane structure worth dispatching.
fn apply_fwd_stage_soa(kb: StrixFftBackend, stage: &Stage, re: &mut [f64], im: &mut [f64]) {
    let len = stage.len;
    if len == 4 && stage.radix == Radix::Four {
        for (re4, im4) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
            let (p02r, p02i) = (re4[0] + re4[2], im4[0] + im4[2]);
            let (m02r, m02i) = (re4[0] - re4[2], im4[0] - im4[2]);
            let (p13r, p13i) = (re4[1] + re4[3], im4[1] + im4[3]);
            // (a1 - a3).mul_i(): re' = -(im-diff), im' = re-diff.
            let (m13ir, m13ii) = (-(im4[1] - im4[3]), re4[1] - re4[3]);
            re4[0] = p02r + p13r;
            im4[0] = p02i + p13i;
            re4[1] = m02r - m13ir;
            im4[1] = m02i - m13ii;
            re4[2] = p02r - p13r;
            im4[2] = p02i - p13i;
            re4[3] = m02r + m13ir;
            im4[3] = m02i + m13ii;
        }
        return;
    }
    match stage.radix {
        Radix::Two => backend::fwd_stage_r2(kb, re, im, len, &stage.tw_re, &stage.tw_im),
        Radix::Four => backend::fwd_stage_r4(kb, re, im, len, &stage.tw_re, &stage.tw_im),
    }
}

/// One inverse stage over one transform's split planes: each DIT
/// stage exactly undoes the matching DIF stage (unnormalised), with
/// bit-identical results on every backend.
fn apply_inv_stage_soa(kb: StrixFftBackend, stage: &Stage, re: &mut [f64], im: &mut [f64]) {
    let len = stage.len;
    if len == 4 && stage.radix == Radix::Four {
        for (re4, im4) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
            let (p02r, p02i) = (re4[0] + re4[2], im4[0] + im4[2]);
            let (m02r, m02i) = (re4[0] - re4[2], im4[0] - im4[2]);
            let (p13r, p13i) = (re4[1] + re4[3], im4[1] + im4[3]);
            let (m13ir, m13ii) = (-(im4[1] - im4[3]), re4[1] - re4[3]);
            re4[0] = p02r + p13r;
            im4[0] = p02i + p13i;
            re4[1] = m02r + m13ir;
            im4[1] = m02i + m13ii;
            re4[2] = p02r - p13r;
            im4[2] = p02i - p13i;
            re4[3] = m02r - m13ir;
            im4[3] = m02i - m13ii;
        }
        return;
    }
    match stage.radix {
        Radix::Two => backend::inv_stage_r2(kb, re, im, len, &stage.tw_re, &stage.tw_im),
        Radix::Four => backend::inv_stage_r4(kb, re, im, len, &stage.tw_re, &stage.tw_im),
    }
}

/// Precomputed plan for forward/inverse complex FFTs of a fixed size
/// under the **bit-reversed-spectrum convention**: the forward
/// transform emits the spectrum digit-reversed, the inverse consumes
/// exactly that ordering, and no permutation pass ever runs.
///
/// Every entry point transforms a whole [`SoaSpectrum`] batch. Use
/// this kernel when spectra are consumed pointwise (convolution via
/// [`crate::pointwise_mul_add_soa`]); the natural-order
/// [`crate::reference::FftPlan`] is the oracle it is checked against.
///
/// # Example
///
/// Round trip without any permutation:
///
/// ```
/// use strix_fft::{Complex64, SoaSpectrum, SpectralPlan};
///
/// # fn main() -> Result<(), strix_fft::FftError> {
/// let plan = SpectralPlan::new(8)?;
/// let input: Vec<Complex64> =
///     (0..8).map(|i| Complex64::new(i as f64, -(i as f64))).collect();
/// let mut batch = SoaSpectrum::new(1, 8);
/// batch.store(0, &input);
/// plan.forward_many(&mut batch)?; // digit-reversed spectrum
/// plan.inverse_many(&mut batch)?; // natural order again
/// let mut data = vec![Complex64::ZERO; 8];
/// batch.load(0, &mut data);
/// for (a, b) in data.iter().zip(&input) {
///     assert!((*a - *b).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SpectralPlan {
    size: usize,
    /// The resolved kernel backend every batched (SoA) stage runs on —
    /// never [`StrixFftBackend::Auto`] after construction.
    backend: StrixFftBackend,
    /// DIF stages, largest block first (`len = n, …, 4|2`).
    fwd_stages: Vec<Stage>,
    /// DIT stages, smallest block first — each the exact inverse of
    /// the matching forward stage, with its own conjugate table.
    inv_stages: Vec<Stage>,
}

impl SpectralPlan {
    /// Smallest supported transform size.
    pub const MIN_SIZE: usize = 1;

    /// Creates a plan for transforms of `size` points, selecting the
    /// kernel backend by runtime CPU detection (honouring the
    /// `STRIX_FFT_BACKEND` environment override).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] if `size` is not a power of
    /// two, or [`FftError::InvalidBackendEnv`] if the environment
    /// override holds an unknown backend name.
    pub fn new(size: usize) -> Result<Self, FftError> {
        Self::with_backend(size, StrixFftBackend::Auto)
    }

    /// Creates a plan for transforms of `size` points on an explicitly
    /// requested kernel backend. [`StrixFftBackend::Auto`] behaves
    /// like [`Self::new`]; a concrete backend is used as-is after a
    /// CPU-capability check.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] if `size` is not a power of
    /// two, [`FftError::BackendUnavailable`] if the requested backend
    /// is not supported by this CPU, or
    /// [`FftError::InvalidBackendEnv`] for a malformed environment
    /// override under `Auto`.
    pub fn with_backend(size: usize, backend: StrixFftBackend) -> Result<Self, FftError> {
        let backend = backend.resolve()?;
        if !is_pow2_at_least(size, Self::MIN_SIZE) {
            return Err(FftError::InvalidSize { requested: size, min: Self::MIN_SIZE });
        }
        // Radix schedule: one radix-2 stage first when log2(n) is odd,
        // then radix-4 all the way down. The first stage is the
        // whole-array one, which is also the stage the negacyclic
        // wrapper fuses its twist into.
        let log2 = size.trailing_zeros();
        let mut radices = Vec::new();
        let mut remaining = log2;
        if remaining % 2 == 1 {
            radices.push(Radix::Two);
            remaining -= 1;
        }
        radices.extend(std::iter::repeat_n(Radix::Four, (remaining / 2) as usize));

        let build = |sign: f64| {
            let mut stages = Vec::with_capacity(radices.len());
            let mut len = size;
            for &r in &radices {
                stages.push(Stage::new(r, len, sign));
                len /= match r {
                    Radix::Two => 2,
                    Radix::Four => 4,
                };
            }
            stages
        };
        let fwd_stages = build(-1.0);
        let mut inv_stages = build(1.0);
        inv_stages.reverse();
        Ok(Self { size, backend, fwd_stages, inv_stages })
    }

    /// The transform size this plan was built for.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The resolved kernel backend the batched entry points run on
    /// (never [`StrixFftBackend::Auto`]).
    #[inline]
    pub fn backend(&self) -> StrixFftBackend {
        self.backend
    }

    /// Number of butterfly stages (radix-4 counts once) — the depth of
    /// the equivalent pipelined hardware unit after radix folding.
    #[inline]
    pub fn stages(&self) -> usize {
        self.fwd_stages.len()
    }

    /// Batched in-place forward DIF FFT over a whole [`SoaSpectrum`]:
    /// every transform goes natural order in → digit-reversed spectrum
    /// out (bin `k` of the natural spectrum lands at slot
    /// [`Self::permutation`]`[k]`). Each butterfly stage runs across
    /// **all** transforms before the next stage starts, so one walk of
    /// the stage's twiddle table is amortised over the batch and the
    /// tables stay cache-hot. Per-transform arithmetic does not depend
    /// on the batch (the stage/transform loops merely interchange), so
    /// every transform gets the same bits alone as at any position of
    /// any batch.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if the batch's transform
    /// length differs from the plan size.
    pub fn forward_many(&self, batch: &mut SoaSpectrum) -> Result<(), FftError> {
        self.check_len(batch.transform_len())?;
        for stage in &self.fwd_stages {
            for t in 0..batch.count() {
                let (re, im) = batch.transform_mut(t);
                apply_fwd_stage_soa(self.backend, stage, re, im);
            }
        }
        Ok(())
    }

    /// Batched unnormalised inverse DIT FFT over a whole
    /// [`SoaSpectrum`]: digit-reversed spectrum in, natural order out,
    /// scaled by `n` (dividing is left to the caller so the constant
    /// can be fused elsewhere, as [`crate::NegacyclicFft`] fuses it
    /// into its untwist table). Stages run across the batch, as in
    /// [`Self::forward_many`].
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] on transform-length
    /// mismatch.
    pub fn inverse_many_unnormalized(&self, batch: &mut SoaSpectrum) -> Result<(), FftError> {
        self.check_len(batch.transform_len())?;
        for stage in &self.inv_stages {
            for t in 0..batch.count() {
                let (re, im) = batch.transform_mut(t);
                apply_inv_stage_soa(self.backend, stage, re, im);
            }
        }
        Ok(())
    }

    /// Batched normalised inverse FFT: [`Self::inverse_many_unnormalized`]
    /// followed by a division of every transform by `n`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] on transform-length
    /// mismatch.
    pub fn inverse_many(&self, batch: &mut SoaSpectrum) -> Result<(), FftError> {
        self.inverse_many_unnormalized(batch)?;
        let scale = 1.0 / self.size as f64;
        for t in 0..batch.count() {
            let (re, im) = batch.transform_mut(t);
            for v in re.iter_mut() {
                *v *= scale;
            }
            for v in im.iter_mut() {
                *v *= scale;
            }
        }
        Ok(())
    }

    /// The bin→slot map of the forward transform: natural-order bin
    /// `k` is stored at slot `permutation()[k]` of the output. For a
    /// pure radix-2 schedule this is the classic bit reversal; with
    /// radix-4 stages it is the matching mixed-radix digit reversal.
    ///
    /// Only diagnostics and tests need this — the production pipeline
    /// (VMA pointwise multiply, inverse transform) is
    /// ordering-agnostic by design.
    pub fn permutation(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.size];
        for (k, slot) in out.iter_mut().enumerate() {
            let mut pos = 0usize;
            let mut block = self.size;
            let mut idx = k;
            for stage in &self.fwd_stages {
                let r = stage.factor();
                pos += (idx % r) * (block / r);
                idx /= r;
                block /= r;
            }
            *slot = pos;
        }
        out
    }

    /// Fold + twist + first forward stage in one out-of-place pass per
    /// transform, then the remaining stages in place: transforms
    /// `count` packed real `i64` polynomials (each `2n` coefficients,
    /// laid out back to back in `polys`; `z_j = poly[j] + i·poly[j+n]`
    /// after folding) into the matching transforms of `batch`. The
    /// fused pass runs straight from the coefficient array —
    /// dispatched to the plan's kernel backend, which also performs
    /// the exact i64→f64 torus conversion in-register; every remaining
    /// butterfly stage then runs **across the whole batch** before the
    /// next stage starts, amortising one twiddle-table walk over all
    /// `count` transforms. With a unit twist the spectra are bit for
    /// bit those of folding into a batch and running
    /// [`Self::forward_many`].
    ///
    /// # Panics
    ///
    /// Panics if `polys.len() != 2n · count`, the twist planes are not
    /// `n` long, or `batch`'s transform length is not `n` (callers
    /// validate first).
    pub(crate) fn forward_folded_twisted_many(
        &self,
        polys: &[i64],
        twist_re: &[f64],
        twist_im: &[f64],
        batch: &mut SoaSpectrum,
    ) {
        let n = self.size;
        let count = batch.count();
        assert_eq!(polys.len(), 2 * n * count, "folded batch length mismatch");
        assert_eq!(twist_re.len(), n, "twist table length mismatch");
        assert_eq!(twist_im.len(), n, "twist table length mismatch");
        assert_eq!(batch.transform_len(), n, "batch transform length mismatch");
        let Some((first, rest)) = self.fwd_stages.split_first() else {
            for (t, poly) in polys.chunks_exact(2 * n).enumerate() {
                let (re, im) = batch.transform_mut(t);
                let (zr, zi) = cmul(poly[0] as f64, poly[1] as f64, twist_re[0], twist_im[0]);
                re[0] = zr;
                im[0] = zi;
            }
            return;
        };
        for (t, poly) in polys.chunks_exact(2 * n).enumerate() {
            let (out_re, out_im) = batch.transform_mut(t);
            match first.radix {
                Radix::Two => backend::fold_twist_r2(
                    self.backend,
                    poly,
                    twist_re,
                    twist_im,
                    out_re,
                    out_im,
                    &first.tw_re,
                    &first.tw_im,
                ),
                Radix::Four => backend::fold_twist_r4(
                    self.backend,
                    poly,
                    twist_re,
                    twist_im,
                    out_re,
                    out_im,
                    &first.tw_re,
                    &first.tw_im,
                ),
            }
        }
        for stage in rest {
            for t in 0..count {
                let (re, im) = batch.transform_mut(t);
                apply_fwd_stage_soa(self.backend, stage, re, im);
            }
        }
    }

    /// Every inverse stage but the last runs **across the whole
    /// batch**, then the fused last stage + merged untwist/normalise
    /// multiply + unfold writes each transform straight into its
    /// `2n`-coefficient slot of `out` (real parts first, then
    /// imaginary parts) — the separate untwist and normalisation
    /// passes never run. With a unit untwist the output is bit for bit
    /// [`Self::inverse_many_unnormalized`], unfolded.
    ///
    /// # Panics
    ///
    /// Panics if `batch`'s transform length is not `n`, the untwist
    /// planes are not `n` long, or `out.len() != 2n · count` (callers
    /// validate first).
    pub(crate) fn inverse_folded_untwisted_many(
        &self,
        batch: &mut SoaSpectrum,
        untwist_re: &[f64],
        untwist_im: &[f64],
        out: &mut [f64],
    ) {
        let n = self.size;
        let count = batch.count();
        assert_eq!(batch.transform_len(), n, "batch transform length mismatch");
        assert_eq!(untwist_re.len(), n, "untwist table length mismatch");
        assert_eq!(untwist_im.len(), n, "untwist table length mismatch");
        assert_eq!(out.len(), 2 * n * count, "output batch length mismatch");
        let Some((last, rest)) = self.inv_stages.split_last() else {
            for (t, slot) in out.chunks_exact_mut(2 * n).enumerate() {
                let (re, im) = batch.transform(t);
                let (zr, zi) = cmul(re[0], im[0], untwist_re[0], untwist_im[0]);
                slot[0] = zr;
                slot[1] = zi;
            }
            return;
        };
        for stage in rest {
            for t in 0..count {
                let (re, im) = batch.transform_mut(t);
                apply_inv_stage_soa(self.backend, stage, re, im);
            }
        }
        for (t, slot) in out.chunks_exact_mut(2 * n).enumerate() {
            let (sre, sim) = batch.transform(t);
            match last.radix {
                Radix::Two => backend::untwist_unfold_r2(
                    self.backend,
                    sre,
                    sim,
                    untwist_re,
                    untwist_im,
                    slot,
                    &last.tw_re,
                    &last.tw_im,
                ),
                Radix::Four => backend::untwist_unfold_r4(
                    self.backend,
                    sre,
                    sim,
                    untwist_re,
                    untwist_im,
                    slot,
                    &last.tw_re,
                    &last.tw_im,
                ),
            }
        }
    }

    fn check_len(&self, len: usize) -> Result<(), FftError> {
        if len != self.size {
            return Err(FftError::LengthMismatch { expected: self.size, actual: len });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::FftPlan;

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin() * 8.0, (i as f64 * 0.61).cos() * 5.0))
            .collect()
    }

    /// A batch of one transform holding `data`.
    fn batch_of(data: &[Complex64]) -> SoaSpectrum {
        let mut batch = SoaSpectrum::new(1, data.len());
        batch.store(0, data);
        batch
    }

    /// The single transform of a batch of one, interleaved.
    fn only(batch: &SoaSpectrum) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; batch.transform_len()];
        batch.load(0, &mut out);
        out
    }

    fn forward(plan: &SpectralPlan, data: &[Complex64]) -> Vec<Complex64> {
        let mut batch = batch_of(data);
        plan.forward_many(&mut batch).unwrap();
        only(&batch)
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(SpectralPlan::new(3).is_err());
        assert!(SpectralPlan::new(0).is_err());
        assert!(SpectralPlan::new(1).is_ok());
    }

    #[test]
    fn rejects_wrong_buffer_length() {
        let plan = SpectralPlan::new(8).unwrap();
        let mut short = SoaSpectrum::new(1, 4);
        assert_eq!(
            plan.forward_many(&mut short).unwrap_err(),
            FftError::LengthMismatch { expected: 8, actual: 4 }
        );
        assert!(plan.inverse_many(&mut short).is_err());
    }

    #[test]
    fn stage_schedule_prefers_radix4() {
        // 1024 = 4^5: five radix-4 stages. 512 = 2·4^4: one radix-2
        // fixup plus four radix-4 stages.
        assert_eq!(SpectralPlan::new(1024).unwrap().stages(), 5);
        assert_eq!(SpectralPlan::new(512).unwrap().stages(), 5);
        assert_eq!(SpectralPlan::new(2).unwrap().stages(), 1);
        assert_eq!(SpectralPlan::new(1).unwrap().stages(), 0);
    }

    #[test]
    fn forward_matches_natural_order_oracle_under_permutation() {
        for log_n in 0..=10 {
            let n = 1usize << log_n;
            let input = sample(n);
            let plan = SpectralPlan::new(n).unwrap();
            let reversed = forward(&plan, &input);
            let mut natural = input;
            FftPlan::new(n).unwrap().forward(&mut natural).unwrap();
            for (k, &slot) in plan.permutation().iter().enumerate() {
                let d = (reversed[slot] - natural[k]).abs();
                assert!(d < 1e-9 * n as f64, "n={n} bin={k}: {d}");
            }
        }
    }

    #[test]
    fn round_trip_is_identity_without_permutation() {
        for log_n in 0..=12 {
            let n = 1usize << log_n;
            let input = sample(n);
            let plan = SpectralPlan::new(n).unwrap();
            let mut batch = batch_of(&input);
            plan.forward_many(&mut batch).unwrap();
            plan.inverse_many(&mut batch).unwrap();
            for (a, b) in only(&batch).iter().zip(&input) {
                assert!((*a - *b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn unnormalized_inverse_scales_by_n() {
        let n = 64;
        let input = sample(n);
        let plan = SpectralPlan::new(n).unwrap();
        let mut batch = batch_of(&input);
        plan.forward_many(&mut batch).unwrap();
        plan.inverse_many_unnormalized(&mut batch).unwrap();
        for (a, b) in only(&batch).iter().zip(&input) {
            assert!((*a - b.scale(n as f64)).abs() < 1e-8);
        }
    }

    #[test]
    fn permutation_is_a_bijection_and_bit_reversal_for_radix2() {
        for n in [1usize, 2, 4, 8, 64, 512, 1024] {
            let perm = SpectralPlan::new(n).unwrap().permutation();
            let mut seen = vec![false; n];
            for &p in &perm {
                assert!(!seen[p], "slot {p} hit twice at n={n}");
                seen[p] = true;
            }
        }
        // n = 2: single radix-2 stage, permutation is identity on 2
        // elements (bit reversal of 1 bit).
        assert_eq!(SpectralPlan::new(2).unwrap().permutation(), vec![0, 1]);
        // n = 4: a single radix-4 stage puts bin k at slot
        // (k%4)·1 + k/4, which for n = 4 is the identity.
        assert_eq!(SpectralPlan::new(4).unwrap().permutation(), vec![0, 1, 2, 3]);
        // n = 8: radix-2 then radix-4 — mixed-digit reversal. Spot-check
        // against the oracle: slot order must list bins so that the DIT
        // inverse reading slots 0.. reconstructs naturally.
        let n = 8;
        let plan = SpectralPlan::new(n).unwrap();
        let mut inverse = [0usize; 8];
        for (k, &p) in plan.permutation().iter().enumerate() {
            inverse[p] = k;
        }
        let input = sample(n);
        let reversed = forward(&plan, &input);
        let mut natural = input;
        FftPlan::new(n).unwrap().forward(&mut natural).unwrap();
        for (slot, &bin) in inverse.iter().enumerate() {
            assert!((reversed[slot] - natural[bin]).abs() < 1e-9);
        }
    }

    #[test]
    fn fused_forward_matches_plain_forward() {
        // With a unit twist table, the fused fold+twist+first-stage
        // pass must reproduce folding into a batch and running every
        // stage in place, bit for bit.
        for n in [1usize, 2, 8, 16, 128, 512] {
            let poly: Vec<i64> = (0..2 * n as i64).map(|i| (i * 37 % 101) - 50).collect();
            let plan = SpectralPlan::new(n).unwrap();
            let folded: Vec<Complex64> =
                (0..n).map(|j| Complex64::new(poly[j] as f64, poly[j + n] as f64)).collect();
            let plain = forward(&plan, &folded);
            let (ones, zeros) = (vec![1.0f64; n], vec![0.0f64; n]);
            let mut fused = SoaSpectrum::new(1, n);
            plan.forward_folded_twisted_many(&poly, &ones, &zeros, &mut fused);
            assert_eq!(plain, only(&fused), "n={n}");
        }
    }

    #[test]
    fn fused_inverse_matches_plain_inverse() {
        // With a unit untwist table, the fused last stage must agree
        // with the plain unnormalised inverse bit for bit.
        for n in [1usize, 2, 8, 16, 128, 512] {
            let plan = SpectralPlan::new(n).unwrap();
            let mut spec = batch_of(&sample(n));
            plan.forward_many(&mut spec).unwrap();

            let mut plain = spec.clone();
            plan.inverse_many_unnormalized(&mut plain).unwrap();
            let plain = only(&plain);

            let (ones, zeros) = (vec![1.0f64; n], vec![0.0f64; n]);
            let mut unfolded = vec![0.0f64; 2 * n];
            plan.inverse_folded_untwisted_many(&mut spec, &ones, &zeros, &mut unfolded);
            for j in 0..n {
                assert_eq!(plain[j].re, unfolded[j], "re n={n} j={j}");
                assert_eq!(plain[j].im, unfolded[j + n], "im n={n} j={j}");
            }
        }
    }
}
