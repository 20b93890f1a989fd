//! Programmable bootstrapping (Algorithm 1).
//!
//! PBS refreshes the noise of an LWE ciphertext while evaluating an
//! arbitrary univariate function encoded in a test vector:
//!
//! 1. **Modulus switching** — every ciphertext element is switched from
//!    `q = 2^64` to `2N`, turning it into a rotation amount.
//! 2. **Blind rotation** — `n` sequential CMUX iterations rotate the
//!    test vector by the (encrypted) phase. Each iteration performs a
//!    rotate-and-subtract, a gadget decomposition and an external
//!    product — the six-stage dataflow of the Strix PBS cluster.
//! 3. **Sample extraction** — coefficient 0 of the rotated accumulator
//!    is extracted as an LWE ciphertext of dimension `k·N`.
//!
//! Note on Algorithm 1 as printed: line 6 shows the accumulator update
//! as `tv − Rotate(tv)` feeding the external product directly; the
//! mathematically complete CMUX also re-adds the untouched accumulator,
//! `acc ← acc + bsk_i ⊡ (X^{ã_i}·acc − acc)`, which is what every TFHE
//! library computes and what we implement. The per-iteration workload
//! (one rotation/subtraction, one decomposition, `(k+1)·l_b` FFTs,
//! `(k+1)²·l_b` pointwise multiplies, `k+1` IFFTs) is identical.
//!
//! # One blind-rotation engine, two key layouts
//!
//! Both PBS kernels are one generic [`BlindRotationKey`] over a sealed
//! [`KeyLayout`]:
//!
//! * [`BootstrapKey`] stores one Fourier GGSW per secret bit. Its step
//!   stages the CMUX difference `X^ã·acc − acc` in one fused
//!   rotate-subtract-decompose pass, runs the VMA row-major across the
//!   block (one shared key row serves every job) and **adds** the
//!   product into the accumulator.
//! * [`MultiBitBootstrapKey`] stores `2^g` entries per group of `g`
//!   bits. Its step finds the block's active jobs, derives their
//!   monomial degrees, assembles each job's combined GGSW, decomposes
//!   the accumulator directly, runs the VMA job-major and **replaces**
//!   the accumulator with the product.
//!
//! Everything else is written once: shape and scratch checks, the body
//! modulus switch and LUT rotation, the entry-major switched-mask table,
//! the key-major job-blocked loop, the batched forward FFT, the inverse
//! drain, the `Probe` hooks, sample extraction and thread sharding.
//! A single PBS ([`BlindRotationKey::bootstrap`]) is a batch of one
//! through that same loop. The interleaved per-job CMUX survives only as
//! [`BootstrapKey::blind_rotate_reference`], the bit-identity reference
//! the tests pin the engine against.
//!
//! # Hot-path execution model
//!
//! The CMUX loop runs entirely on per-thread [`PbsScratch`] buffers —
//! no heap allocation between the initial accumulator setup and sample
//! extraction. All Fourier-domain data (bootstrapping-key rows, digit
//! spectra, accumulator spectra) lives in the transform plan's
//! bit-reversed slot order end to end — the `strix-fft` kernel never
//! runs a permutation pass, and nothing in PBS ever needs natural bin
//! order. Every job's mask is modulus-switched once into a per-epoch
//! table before the key-major loop starts. Epochs scale across cores
//! with [`BlindRotationKey::bootstrap_batch_parallel`]: the job list is
//! split into contiguous shards, each shard walks the shared
//! bootstrapping key in key-major order with its own scratch, and the
//! results come back in job order, bit-identical to the sequential
//! [`BlindRotationKey::bootstrap_batch`].

use std::ops::Range;

use strix_fft::{MonomialTable, NegacyclicFft};

use crate::decompose::DecompositionParams;
use crate::ggsw::{FourierGgsw, GgswCiphertext};
use crate::glwe::{GlweCiphertext, GlweSecretKey};
use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::params::{PbsKernel, TfheParameters};
use crate::poly::TorusPolynomial;
use crate::profiler::{NoProbe, PbsStage, Probe, StageTimings, TimingProbe};
use crate::rng::NoiseSampler;
use crate::scratch::{ExternalProductScratch, PbsScratch, CMUX_JOB_BLOCK};
use crate::torus::{encode_fraction, f64_to_torus, modulus_switch};
use crate::TfheError;

/// A test vector — the GLWE-encoded look-up table consumed by PBS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lut {
    poly: TorusPolynomial,
    /// Message precision the table was built for (the sign LUT counts
    /// as 1 bit: two half-torus boxes). Drives the static analyzer's
    /// per-node decision distance.
    precision_bits: u32,
}

impl Lut {
    /// The sign LUT used by gate bootstrapping: every output is `+μ` for
    /// phases in the positive half-torus and `−μ` for the negative half
    /// (via negacyclic wrap-around). All `N` coefficients equal `μ`.
    pub fn sign(poly_size: usize, mu: u64) -> Self {
        Self { poly: TorusPolynomial::from_coeffs(vec![mu; poly_size]), precision_bits: 1 }
    }

    /// Builds the LUT for an arbitrary function over a
    /// `precision_bits`-bit message space with one padding bit:
    /// inputs `m ∈ [0, 2^p)` map to `f(m)·Δ` with `Δ = q/2^{p+1}`.
    ///
    /// Each message owns a *box* of `N/2^p` consecutive coefficients;
    /// the final half-box rotation centres the boxes so that phases up
    /// to half a box away from the nominal encoding still decode to the
    /// right entry.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::InvalidParameters`] if `2^p > N` (boxes
    /// would be empty) or `p >= 63`.
    pub fn from_function<F>(poly_size: usize, precision_bits: u32, f: F) -> Result<Self, TfheError>
    where
        F: Fn(u64) -> u64,
    {
        if precision_bits >= 63 {
            return Err(TfheError::InvalidParameters("precision must be below 63 bits"));
        }
        Self::from_function_scaled(poly_size, precision_bits, 64 - precision_bits - 1, f)
    }

    /// As [`Self::from_function`], but with an explicit output scale:
    /// LUT entries are `f(m) · 2^output_shift`. Input decoding still
    /// follows `precision_bits`. Used when the PBS must *re-encode*
    /// messages into a different space — e.g. moving an operand into
    /// the low half of a packed bivariate message.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::InvalidParameters`] if `2^precision_bits`
    /// exceeds the polynomial size or the shift exceeds the torus.
    pub fn from_function_scaled<F>(
        poly_size: usize,
        precision_bits: u32,
        output_shift: u32,
        f: F,
    ) -> Result<Self, TfheError>
    where
        F: Fn(u64) -> u64,
    {
        if output_shift >= 64 {
            return Err(TfheError::InvalidParameters("output shift exceeds the torus"));
        }
        let space = 1usize << precision_bits;
        if space > poly_size {
            return Err(TfheError::InvalidParameters("message space larger than polynomial size"));
        }
        let box_size = poly_size / space;
        let mut coeffs = vec![0u64; poly_size];
        for (j, c) in coeffs.iter_mut().enumerate() {
            let m = (j / box_size) as u64;
            *c = f(m).wrapping_shl(output_shift);
        }
        let poly = TorusPolynomial::from_coeffs(coeffs).rotate_left(box_size / 2);
        Ok(Self { poly, precision_bits })
    }

    /// The underlying test-vector polynomial.
    #[inline]
    pub fn poly(&self) -> &TorusPolynomial {
        &self.poly
    }

    /// Polynomial size `N`.
    #[inline]
    pub fn poly_size(&self) -> usize {
        self.poly.size()
    }

    /// Message precision the table was built for, in bits.
    #[inline]
    pub fn precision_bits(&self) -> u32 {
        self.precision_bits
    }

    /// Distance from a nominal encoding to the nearest decision
    /// boundary of this table, in torus units: half a redundancy box,
    /// `2^-(p+2)` for a `p`-bit message space with one padding bit.
    /// The sign LUT (`p = 1`) gives the classic gate margin of `1/8`.
    #[inline]
    pub fn decision_distance(&self) -> f64 {
        crate::noise::lut_decision_distance(self.precision_bits)
    }
}

/// One entry of a batched bootstrap: a ciphertext and the LUT to
/// evaluate on it. Jobs in a batch share the bootstrapping key (that is
/// the point of batching) but may use different LUTs.
#[derive(Clone, Copy, Debug)]
pub struct PbsJob<'a> {
    /// The LWE ciphertext to bootstrap (dimension `n`).
    pub ct: &'a LweCiphertext,
    /// The test vector to evaluate.
    pub lut: &'a Lut,
}

/// The classical bootstrapping key: `n` Fourier-domain GGSW encryptions
/// of the LWE secret-key bits, one CMUX per bit.
pub type BootstrapKey = BlindRotationKey<layout::PerBit>;

/// The **multi-bit** bootstrapping key: `⌈n/g⌉` *groups* of
/// Fourier-domain GGSW entries for grouping factor `g` — the software
/// counterpart of tfhe-rs's CUDA `MULTI_BIT` PBS kernel.
///
/// Group `i` covers secret bits `s_{ig} .. s_{ig+g-1}` and stores `2^g`
/// GGSW encryptions, one per bit pattern `b ∈ {0,1}^g`, of the
/// *indicator product* `m_b = ∏_j s^{b_j} · (1−s)^{1−b_j}` — exactly
/// one `m_b` equals 1 (the pattern matching the actual key bits), the
/// rest encrypt 0. The last group covers the `n mod g` remainder bits
/// with `2^{n mod g}` entries.
///
/// Blind rotation then needs only **one external product per group**
/// instead of one CMUX per bit: since
/// `X^{Σ_j ã_j s_j} = Σ_b X^{⟨b, ã⟩} · m_b`, the server assembles the
/// *combined* GGSW `G = Σ_b X^{d_b} · GGSW(m_b)` (monomial weighting is
/// a pointwise spectrum multiply, [`MonomialTable`]) and replaces the
/// accumulator with `G ⊡ acc` — a rotation of the accumulator by the
/// whole group's phase contribution in a single decompose → FFT → VMA →
/// IFFT pass. `⌈n/g⌉` passes replace `n`, trading a `2^g/g ×` larger
/// key (and a `2^g ×` key-noise term, see
/// [`crate::noise::multi_bit_external_product_variance`]) for `g ×`
/// fewer transforms.
///
/// Outputs are **not bit-identical** to [`BootstrapKey`] — the
/// arithmetic is genuinely different — but decrypt to the same message:
/// both kernels realise the same blind rotation
/// `X^{b̃ + Σ ã_j s_j} · lut`.
pub type MultiBitBootstrapKey = BlindRotationKey<layout::Grouped>;

/// The key layouts a [`BlindRotationKey`] can hold: one GGSW per secret
/// bit ([`BootstrapKey`]) or `2^g` per group of `g` bits
/// ([`MultiBitBootstrapKey`]).
///
/// Sealed: generic code can be written over both kernels, but only this
/// module implements a layout.
pub trait KeyLayout: layout::Entries {}

impl KeyLayout for layout::PerBit {}
impl KeyLayout for layout::Grouped {}

/// A bootstrapping key: Fourier-domain key entries in layout `E`, plus
/// the FFT plan they were transformed under. Use it through its two
/// instances, [`BootstrapKey`] and [`MultiBitBootstrapKey`]; everything
/// that does not depend on the layout is implemented once, here.
#[derive(Clone, Debug)]
pub struct BlindRotationKey<E> {
    entries: E,
    fft: NegacyclicFft,
    glwe_dimension: usize,
    poly_size: usize,
    decomp: DecompositionParams,
    input_dimension: usize,
}

/// The two key layouts and the per-step work that differs between them.
mod layout {
    use super::*;

    /// One key step's switched rotation amounts for one block of jobs:
    /// a window onto the entry-major switched-mask table.
    #[derive(Clone, Copy)]
    pub struct StepAmounts<'a> {
        pub(super) rows: &'a [u32],
        pub(super) batch: usize,
        pub(super) job0: usize,
    }

    impl StepAmounts<'_> {
        /// The switched amount of the step's bit `t` for job `j` of the
        /// block.
        #[inline]
        pub fn get(&self, t: usize, j: usize) -> usize {
            self.rows[t * self.batch + self.job0 + j] as usize
        }

        /// Secret bits the step covers.
        #[inline]
        pub fn bits(&self) -> usize {
            self.rows.len() / self.batch
        }
    }

    /// What a key layout contributes to one blocked blind-rotation step;
    /// the engine in [`BlindRotationKey`] does the rest.
    pub trait Entries: Clone + std::fmt::Debug + Send + Sync {
        /// `true` for a CMUX step: stage the difference `X^ã·acc − acc`
        /// (one fused rotate-subtract-decompose pass per column) and add
        /// the product into the accumulator. `false` for a grouped
        /// product: decompose the accumulator directly and replace it
        /// with the product.
        const CMUX: bool;

        /// Key-major steps per blind rotation.
        fn steps(&self) -> usize;

        /// Secret bits covered by step `step`.
        fn bits(&self, step: usize) -> Range<usize>;

        /// Fourier-domain key bytes.
        fn byte_size(&self) -> usize;

        /// The grouping factor the scratch assembly buffers are sized by
        /// (`None`: no assembly).
        fn grouping_factor(&self) -> Option<usize>;

        /// Marks the block's jobs that this step moves (and prepares
        /// whatever per-job state [`Self::vma`] reads); returns whether
        /// any job is active.
        fn activate(
            &self,
            amounts: StepAmounts<'_>,
            active: &mut [bool],
            scratch: &mut PbsScratch,
        ) -> bool;

        /// Multiply-accumulates every active job's digit spectra into its
        /// (zeroed) accumulator spectra.
        fn vma(&self, step: usize, active: &[bool], scratch: &mut PbsScratch, fft: &NegacyclicFft);
    }

    /// Classical layout: one stored GGSW per secret bit.
    #[derive(Clone, Debug)]
    pub struct PerBit(pub(super) Vec<FourierGgsw>);

    /// Multi-bit layout: per group of `g` secret bits, `2^g` pattern
    /// entries (fewer for the remainder group), plus the monomial table
    /// the per-job assembly weights them with.
    #[derive(Clone, Debug)]
    pub struct Grouped {
        pub(super) groups: Vec<Vec<FourierGgsw>>,
        pub(super) mono: MonomialTable,
        pub(super) grouping_factor: usize,
    }

    // lint:hot-path-start — both layouts' step hooks must stay allocation-free
    impl Entries for PerBit {
        const CMUX: bool = true;

        fn steps(&self) -> usize {
            self.0.len()
        }

        fn bits(&self, step: usize) -> Range<usize> {
            step..step + 1
        }

        fn byte_size(&self) -> usize {
            self.0.iter().map(FourierGgsw::byte_size).sum()
        }

        fn grouping_factor(&self) -> Option<usize> {
            None
        }

        /// A job moves when its amount is non-zero: `X^0·acc − acc = 0`.
        fn activate(
            &self,
            amounts: StepAmounts<'_>,
            active: &mut [bool],
            _scratch: &mut PbsScratch,
        ) -> bool {
            for (j, slot) in active.iter_mut().enumerate() {
                *slot = amounts.get(0, j) != 0;
            }
            active.contains(&true)
        }

        /// Row-major across the block: key row `r` is loaded once and
        /// applied to every active job while it sits in L1.
        fn vma(&self, step: usize, active: &[bool], scratch: &mut PbsScratch, fft: &NegacyclicFft) {
            let ggsw = &self.0[step];
            let PbsScratch { digit_batch, acc_batch, .. } = scratch;
            for r in 0..ggsw.row_count() {
                for ((digits, spec), _) in
                    digit_batch.iter().zip(acc_batch.iter_mut()).zip(active).filter(|(_, &a)| a)
                {
                    let (d_re, d_im) = digits.transform(r);
                    for col in 0..spec.count() {
                        let (k_re, k_im) = ggsw.row_col(r, col);
                        let (a_re, a_im) = spec.transform_mut(col);
                        fft.pointwise_mul_add_soa(a_re, a_im, d_re, d_im, k_re, k_im);
                    }
                }
            }
        }
    }

    impl Entries for Grouped {
        const CMUX: bool = false;

        fn steps(&self) -> usize {
            self.groups.len()
        }

        fn bits(&self, step: usize) -> Range<usize> {
            let first = step * self.grouping_factor;
            first..first + self.groups[step].len().trailing_zeros() as usize
        }

        fn byte_size(&self) -> usize {
            self.groups.iter().flatten().map(FourierGgsw::byte_size).sum()
        }

        fn grouping_factor(&self) -> Option<usize> {
            Some(self.grouping_factor)
        }

        /// A job whose group amounts are all zero would assemble
        /// `G = GGSW(X^0·Σ m_b) = GGSW(1)`, the exact identity the
        /// classical kernel skips on `ã = 0`, so it stays inactive and no
        /// later stage touches it. For active jobs, the `2^m` monomial
        /// degrees `d_b = Σ_{t: b_t=1} ã_t mod 2N` follow by the
        /// binary-counting recurrence `d_{b|bit} = d_b + ã_t`.
        fn activate(
            &self,
            amounts: StepAmounts<'_>,
            active: &mut [bool],
            scratch: &mut PbsScratch,
        ) -> bool {
            let bits = amounts.bits();
            let patterns = 1usize << bits;
            let mask = 2 * scratch.poly_size - 1;
            for (j, slot) in active.iter_mut().enumerate() {
                *slot = (0..bits).any(|t| amounts.get(t, j) != 0);
                if !*slot {
                    continue;
                }
                let d = &mut scratch.degrees[j * patterns..(j + 1) * patterns];
                d[0] = 0;
                for t in 0..bits {
                    let (a, bit) = (amounts.get(t, j), 1usize << t);
                    for b in 0..bit {
                        d[bit | b] = (d[b] + a) & mask;
                    }
                }
            }
            active.contains(&true)
        }

        /// First assembles each active job's combined GGSW, then runs
        /// the VMA job-major: the combined spectrum is per job, so
        /// row-major order would have nothing to reuse; job-major hoists
        /// the three spectra's plane pointers once per job. Per
        /// accumulator column the additions still run over `r` in
        /// ascending order.
        fn vma(&self, step: usize, active: &[bool], scratch: &mut PbsScratch, fft: &NegacyclicFft) {
            self.assemble(&self.groups[step], active, scratch, fft);
            let PbsScratch { digit_batch, acc_batch, comb_batch, .. } = scratch;
            let jobs = digit_batch.iter().zip(comb_batch.iter()).zip(acc_batch.iter_mut());
            for (((digits, comb), spec), _) in jobs.zip(active).filter(|(_, &a)| a) {
                let (cols, half) = (spec.count(), spec.transform_len());
                let (d_re_plane, d_im_plane) = digits.planes();
                let (k_re_plane, k_im_plane) = comb.planes();
                let (a_re_plane, a_im_plane) = spec.planes_mut();
                for r in 0..digits.count() {
                    let d_re = &d_re_plane[r * half..(r + 1) * half];
                    let d_im = &d_im_plane[r * half..(r + 1) * half];
                    for col in 0..cols {
                        let s = (r * cols + col) * half;
                        let k_re = &k_re_plane[s..s + half];
                        let k_im = &k_im_plane[s..s + half];
                        let a_re = &mut a_re_plane[col * half..(col + 1) * half];
                        let a_im = &mut a_im_plane[col * half..(col + 1) * half];
                        fft.pointwise_mul_add_soa(a_re, a_im, d_re, d_im, k_re, k_im);
                    }
                }
            }
        }
    }

    impl Grouped {
        /// Pattern-major across the block: seed each active job's
        /// combined spectrum with the pattern-0 entry (degree 0: a plane
        /// copy), then MAC `entry_b × X^{d_b}` into it for every other
        /// pattern, so each key entry streams once per block. The
        /// monomial spectrum is built once per `(job, pattern)` and
        /// reused across all `(k+1)·l · (k+1)` transforms.
        fn assemble(
            &self,
            entries: &[FourierGgsw],
            active: &[bool],
            scratch: &mut PbsScratch,
            fft: &NegacyclicFft,
        ) {
            let PbsScratch { comb_batch, mono_re, mono_im, degrees, .. } = scratch;
            let half = mono_re.len();
            for (comb, _) in comb_batch.iter_mut().zip(active).filter(|(_, &a)| a) {
                comb.copy_from(entries[0].spectra());
            }
            for (pattern, entry) in entries.iter().enumerate().skip(1) {
                let (e_re_plane, e_im_plane) = entry.spectra().planes();
                for (j, (comb, _)) in
                    comb_batch.iter_mut().zip(active).enumerate().filter(|(_, (_, &a))| a)
                {
                    self.mono
                        .spectrum_into(degrees[j * entries.len() + pattern], mono_re, mono_im)
                        // lint:allow(panic) shape invariant established at construction
                        .expect("monomial planes are sized to the fft plan");
                    let (c_re_plane, c_im_plane) = comb.planes_mut();
                    let chunks = c_re_plane
                        .chunks_exact_mut(half)
                        .zip(c_im_plane.chunks_exact_mut(half))
                        .zip(e_re_plane.chunks_exact(half).zip(e_im_plane.chunks_exact(half)));
                    for ((c_re, c_im), (e_re, e_im)) in chunks {
                        fft.pointwise_mul_add_soa(c_re, c_im, e_re, e_im, mono_re, mono_im);
                    }
                }
            }
        }
    }
    // lint:hot-path-end
}

/// Plaintext of multi-bit key entry `pattern` for a group of secret
/// `bits`: the indicator product `∏_t s_t^{b_t}·(1−s_t)^{1−b_t}`, which is
/// 1 exactly when `pattern` spells the group's key bits.
pub(crate) fn pattern_indicator(bits: &[u64], pattern: usize) -> u64 {
    bits.iter().enumerate().map(|(t, &s)| if (pattern >> t) & 1 == 1 { s } else { 1 - s }).product()
}

impl<E: KeyLayout> BlindRotationKey<E> {
    /// The one keygen skeleton: builds the decomposition and FFT plan
    /// from `params`, then the entries under that plan.
    fn from_entries(
        params: &TfheParameters,
        input_dimension: usize,
        entries: impl FnOnce(DecompositionParams, &NegacyclicFft) -> E,
    ) -> Self {
        let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
        let fft = NegacyclicFft::with_backend(params.polynomial_size, params.fft_backend)
            // lint:allow(panic) parameters were validated at construction
            .expect("validated parameters have power-of-two N and an available backend");
        Self {
            entries: entries(decomp, &fft),
            fft,
            glwe_dimension: params.glwe_dimension,
            poly_size: params.polynomial_size,
            decomp,
            input_dimension,
        }
    }

    /// Input LWE dimension `n`.
    #[inline]
    pub fn input_dimension(&self) -> usize {
        self.input_dimension
    }

    /// Output LWE dimension `k·N` after sample extraction.
    #[inline]
    pub fn output_dimension(&self) -> usize {
        self.glwe_dimension * self.poly_size
    }

    /// Polynomial size `N`.
    #[inline]
    pub fn poly_size(&self) -> usize {
        self.poly_size
    }

    /// The decomposition used by the external products.
    #[inline]
    pub fn decomposition(&self) -> DecompositionParams {
        self.decomp
    }

    /// The FFT plan shared by all external products.
    #[inline]
    pub fn fft(&self) -> &NegacyclicFft {
        &self.fft
    }

    /// Allocates a [`PbsScratch`] sized to this key — one per thread,
    /// reused across every bootstrap that thread performs.
    pub fn scratch(&self) -> PbsScratch {
        PbsScratch::new(
            self.glwe_dimension,
            self.poly_size,
            self.decomp,
            self.entries.grouping_factor(),
        )
    }

    /// Total Fourier-domain key size in bytes (HBM traffic per full
    /// PBS); `2^g/g ×` the classical key for the multi-bit layout.
    pub fn byte_size(&self) -> usize {
        self.entries.byte_size()
    }

    /// Checks that a `(ciphertext, LUT)` pair matches this key's shape
    /// — the single validation every bootstrap path applies, exposed so
    /// schedulers can pre-validate jobs before committing them to a
    /// shared batch.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] naming the mismatch.
    pub fn check_shape(&self, ct: &LweCiphertext, lut: &Lut) -> Result<(), TfheError> {
        if ct.dimension() != self.input_dimension {
            return Err(TfheError::ParameterMismatch {
                what: "lwe dimension",
                left: ct.dimension(),
                right: self.input_dimension,
            });
        }
        if lut.poly_size() != self.poly_size {
            return Err(TfheError::ParameterMismatch {
                what: "polynomial size",
                left: lut.poly_size(),
                right: self.poly_size,
            });
        }
        Ok(())
    }

    /// Blind rotation (Algorithm 1 lines 2–12): rotates `lut` by the
    /// encrypted phase of `ct`, returning the GLWE accumulator.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if the ciphertext
    /// dimension or LUT size disagrees with the key.
    pub fn blind_rotate(&self, ct: &LweCiphertext, lut: &Lut) -> Result<GlweCiphertext, TfheError> {
        self.blind_rotate_with(ct, lut, &mut self.scratch())
    }

    /// As [`Self::blind_rotate`] with caller-provided scratch: a batch of
    /// one through the blocked engine, so the single and batched paths
    /// are bit-identical by construction.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was sized for a different key shape.
    pub fn blind_rotate_with(
        &self,
        ct: &LweCiphertext,
        lut: &Lut,
        scratch: &mut PbsScratch,
    ) -> Result<GlweCiphertext, TfheError> {
        Ok(only(self.blind_rotate_core(&[PbsJob { ct, lut }], scratch, &mut NoProbe)?))
    }

    /// The single blind-rotation implementation, generic over a
    /// [`Probe`] (production: [`NoProbe`]; profiling: [`TimingProbe`]).
    ///
    /// Iteration is **key-major**, the software analogue of the paper's
    /// core-level batching (§IV-C): the outer loop walks the key steps
    /// and the inner loop applies each to every accumulator in the
    /// batch, so one key fetch is reused `batch` times — exactly how an
    /// HSC amortises its per-iteration bsk stream. Jobs may carry
    /// different LUTs; only the key material is shared. One scratch
    /// serves the whole epoch, so the loop performs no heap allocation
    /// beyond the output accumulators and one switched-mask table.
    fn blind_rotate_core<P: Probe>(
        &self,
        jobs: &[PbsJob<'_>],
        scratch: &mut PbsScratch,
        probe: &mut P,
    ) -> Result<Vec<GlweCiphertext>, TfheError> {
        for job in jobs {
            self.check_shape(job.ct, job.lut)?;
        }
        scratch.check_shape(
            self.glwe_dimension,
            self.poly_size,
            self.decomp.level,
            self.entries.grouping_factor(),
        );
        let log2_two_n = self.poly_size.trailing_zeros() + 1;

        // Initial rotation by each body (Algorithm 1 lines 3–4).
        let mut accs: Vec<GlweCiphertext> = jobs
            .iter()
            .map(|job| {
                let b_tilde =
                    probe.time(PbsStage::ModSwitch, || modulus_switch(job.ct.body(), log2_two_n));
                probe.time(PbsStage::Rotate, || {
                    let rotated = job.lut.poly().rotate_left(b_tilde as usize);
                    GlweCiphertext::trivial(self.glwe_dimension, rotated)
                })
            })
            .collect();

        // Epoch-wide hoisting: switch every mask element of every job
        // once, up front. The table is **entry-major**
        // (`switched[i·batch + j]`), so a key step reads its bits'
        // amounts for a block as contiguous slices; the switched values
        // live in `[0, 2N)`, so `u32` keeps it a quarter the size of the
        // masks. `modulus_switch` is a pure rounding shift, so hoisting
        // is bit-identical to switching in-loop.
        let batch = jobs.len();
        let mut switched = vec![0u32; batch * self.input_dimension];
        probe.time(PbsStage::ModSwitch, || {
            for (j, job) in jobs.iter().enumerate() {
                for (i, &a) in job.ct.mask().iter().enumerate() {
                    switched[i * batch + j] = modulus_switch(a, log2_two_n) as u32;
                }
            }
        });
        self.rotate_blocks(&mut accs, &switched, scratch, probe);
        Ok(accs)
    }

    // lint:hot-path-start — the one blind-rotation loop must stay allocation-free
    /// Key-major, job-blocked blind rotation: fetch key step `i` once and
    /// apply it to the whole batch, [`CMUX_JOB_BLOCK`] jobs at a time.
    fn rotate_blocks<P: Probe>(
        &self,
        accs: &mut [GlweCiphertext],
        switched: &[u32],
        scratch: &mut PbsScratch,
        probe: &mut P,
    ) {
        let batch = accs.len();
        for step in 0..self.entries.steps() {
            let bits = self.entries.bits(step);
            let rows = &switched[bits.start * batch..bits.end * batch];
            for (bi, block) in accs.chunks_mut(CMUX_JOB_BLOCK).enumerate() {
                let amounts = layout::StepAmounts { rows, batch, job0: bi * CMUX_JOB_BLOCK };
                self.cmux_block(step, amounts, block, scratch, probe);
            }
        }
    }

    /// One blocked step: applies key step `step` to every accumulator of
    /// the block that it moves, bit-identically to one job at a time but
    /// scheduled for locality:
    ///
    /// 1. **Activate** (layout) — pick the jobs the step moves (the
    ///    multi-bit layout also derives their monomial degrees). A block
    ///    with no active job returns here.
    /// 2. **Stage** — per active job, one decomposition pass per column
    ///    — of the CMUX difference `X^ã·acc − acc`, folded into the
    ///    decomposer's rounding step
    ///    ([`DecompositionParams::decompose_rotated_difference_levels`]),
    ///    or of the accumulator itself for the multi-bit layout — then
    ///    all `(k+1)·l` forward FFTs as one batched split-complex
    ///    transform.
    /// 3. **VMA** (layout) — into freshly zeroed accumulator spectra;
    ///    the multi-bit layout first assembles each job's combined GGSW.
    /// 4. **Drain** — per active job: one batched inverse transform of
    ///    the `k+1` accumulator spectra, then one packed pass per column
    ///    that converts to the torus ([`f64_to_torus`] is integer bit
    ///    arithmetic, so the loop vectorises) and adds into
    ///    (`acc += …`, CMUX) or replaces (`acc = …`) the accumulator.
    ///
    /// Per job, every floating-point and torus operation is the same as
    /// in a batch of one; only the loop nesting across *independent*
    /// jobs differs, which cannot change a bit of any output.
    fn cmux_block<P: Probe>(
        &self,
        step: usize,
        amounts: layout::StepAmounts<'_>,
        accs: &mut [GlweCiphertext],
        scratch: &mut PbsScratch,
        probe: &mut P,
    ) {
        debug_assert!(accs.len() <= CMUX_JOB_BLOCK);
        let n = self.poly_size;
        let level = self.decomp.level;
        let mut active = [false; CMUX_JOB_BLOCK];
        let active = &mut active[..accs.len()];
        if !probe.time(PbsStage::ModSwitch, || self.entries.activate(amounts, active, scratch)) {
            return;
        }

        let PbsScratch { decomp_state, all_digits, digit_batch, .. } = scratch;
        for (j, (acc, digits)) in accs.iter().zip(digit_batch.iter_mut()).enumerate() {
            if !active[j] {
                continue;
            }
            probe.time(PbsStage::Decompose, || {
                for (p, poly) in acc.polys().enumerate() {
                    let levels = &mut all_digits[p * level * n..(p + 1) * level * n];
                    if E::CMUX {
                        let amount = amounts.get(0, j);
                        self.decomp.decompose_rotated_difference_levels(
                            poly,
                            amount,
                            levels,
                            decomp_state,
                        );
                    } else {
                        self.decomp.decompose_polynomial_levels(poly, levels, decomp_state);
                    }
                }
            });
            probe.time(PbsStage::Fft, || {
                self.fft
                    .forward_i64_many(all_digits, digits)
                    // lint:allow(panic) shape invariant established at construction
                    .expect("digit batch matches the fft plan");
            });
        }

        probe.time(PbsStage::VectorMultiply, || {
            for (spec, _) in scratch.acc_batch.iter_mut().zip(&*active).filter(|(_, &a)| a) {
                spec.fill_zero();
            }
            self.entries.vma(step, active, scratch, &self.fft);
        });

        let PbsScratch { acc_batch, time_batch, .. } = scratch;
        for ((acc, spec), _) in accs.iter_mut().zip(acc_batch).zip(&*active).filter(|(_, &a)| a) {
            probe.time(PbsStage::IfftAccumulate, || {
                self.fft
                    .backward_f64_many(spec, time_batch)
                    // lint:allow(panic) shape invariant established at construction
                    .expect("accumulator batch matches the fft plan");
                for (col, time) in time_batch.chunks_exact(n).enumerate() {
                    // lint:allow(panic) shape invariant established at construction
                    let poly = acc.poly_mut(col).expect("column within GLWE dimension");
                    let coeffs = poly.coeffs_mut().iter_mut().zip(time);
                    if E::CMUX {
                        coeffs.for_each(|(o, &v)| *o = o.wrapping_add(f64_to_torus(v)));
                    } else {
                        coeffs.for_each(|(o, &v)| *o = f64_to_torus(v));
                    }
                }
            });
        }
    }
    // lint:hot-path-end

    /// Full programmable bootstrap: blind rotation followed by sample
    /// extraction. The output is an LWE ciphertext of dimension `k·N`
    /// encrypting `lut[phase]` with *fresh* noise, still under the
    /// extracted key — keyswitching back to the original key is a
    /// separate step (Algorithm 2, [`crate::keyswitch`]).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn bootstrap(&self, ct: &LweCiphertext, lut: &Lut) -> Result<LweCiphertext, TfheError> {
        Ok(self.blind_rotate(ct, lut)?.sample_extract())
    }

    /// As [`Self::bootstrap`] with per-stage timing instrumentation (the
    /// Figure-1 harness): a batch of one through
    /// [`Self::bootstrap_batch_profiled`].
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn bootstrap_profiled(
        &self,
        ct: &LweCiphertext,
        lut: &Lut,
        timings: &mut StageTimings,
    ) -> Result<LweCiphertext, TfheError> {
        Ok(only(self.bootstrap_batch_profiled(&[PbsJob { ct, lut }], timings)?))
    }

    /// Batched programmable bootstrap: key-major blind rotation of the
    /// whole batch followed by per-job sample extraction. Outputs are in
    /// job order and still under the extracted (`k·N`) key.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if any job's ciphertext
    /// dimension or LUT size disagrees with the key.
    pub fn bootstrap_batch(&self, jobs: &[PbsJob<'_>]) -> Result<Vec<LweCiphertext>, TfheError> {
        self.bootstrap_core(jobs, &mut NoProbe)
    }

    /// As [`Self::bootstrap_batch`] with per-stage timing
    /// instrumentation over the production kernel, observed through a
    /// timing probe, so the per-stage breakdown reflects exactly what
    /// production executes.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on any shape mismatch.
    pub fn bootstrap_batch_profiled(
        &self,
        jobs: &[PbsJob<'_>],
        timings: &mut StageTimings,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        self.bootstrap_core(jobs, &mut TimingProbe(timings))
    }

    fn bootstrap_core<P: Probe>(
        &self,
        jobs: &[PbsJob<'_>],
        probe: &mut P,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        let accs = self.blind_rotate_core(jobs, &mut self.scratch(), probe)?;
        Ok(probe.time(PbsStage::SampleExtract, || {
            accs.iter().map(GlweCiphertext::sample_extract).collect()
        }))
    }

    /// Parallel epoch execution: splits `jobs` into `threads` contiguous
    /// shards and runs each through the key-major
    /// [`Self::bootstrap_batch`] on its own [`std::thread::scope`] worker
    /// with its own [`PbsScratch`], all sharing this key — core-level
    /// batching (key-major reuse) *within* each shard, device-level
    /// parallelism *across* shards.
    ///
    /// Results come back **in job order** and are **bit-identical** to
    /// the sequential path — each job's CMUX sequence depends only on
    /// its own ciphertext, so sharding cannot change a single
    /// floating-point operation.
    ///
    /// `threads` is clamped to `[1, jobs.len()]`; `threads <= 1` runs
    /// sequentially on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if any job's shape
    /// disagrees with the key (validated up front, before any thread
    /// is spawned).
    pub fn bootstrap_batch_parallel(
        &self,
        jobs: &[PbsJob<'_>],
        threads: usize,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        for job in jobs {
            self.check_shape(job.ct, job.lut)?;
        }
        let threads = threads.max(1).min(jobs.len());
        if threads <= 1 {
            return self.bootstrap_batch(jobs);
        }
        // Balanced contiguous shards: the first `jobs % threads` shards
        // take one extra job, so exactly `threads` workers spawn and no
        // worker trails the rest by more than one PBS.
        let base = jobs.len() / threads;
        let extra = jobs.len() % threads;
        let shards: Vec<Result<Vec<LweCiphertext>, TfheError>> = std::thread::scope(|scope| {
            let mut start = 0;
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let len = base + usize::from(i < extra);
                    let shard = &jobs[start..start + len];
                    start += len;
                    scope.spawn(move || self.bootstrap_batch(shard))
                })
                .collect();
            // lint:allow(panic) a worker panic is propagated, not swallowed
            handles.into_iter().map(|h| h.join().expect("PBS shard worker panicked")).collect()
        });
        let mut out = Vec::with_capacity(jobs.len());
        for shard in shards {
            out.extend(shard?);
        }
        Ok(out)
    }
}

/// The one result of a batch of one.
fn only<T>(mut results: Vec<T>) -> T {
    // lint:allow(panic) a batch of one job yields one result
    results.pop().expect("one job in, one result out")
}

impl BootstrapKey {
    /// Generates a bootstrapping key encrypting `lwe_sk` under `glwe_sk`.
    pub fn generate(
        lwe_sk: &LweSecretKey,
        glwe_sk: &GlweSecretKey,
        params: &TfheParameters,
        rng: &mut NoiseSampler,
    ) -> Self {
        Self::from_entries(params, lwe_sk.bits().len(), |decomp, fft| {
            let mut encrypt = |m| encrypted_entry(m, glwe_sk, params, decomp, fft, rng);
            layout::PerBit(lwe_sk.bits().iter().map(|&s| encrypt(s)).collect())
        })
    }

    /// Generates a *timing-equivalent* bootstrapping key without real
    /// encryption: every GGSW row is a trivial (zero-mask) encryption
    /// carrying only the gadget term for secret bit 0.
    ///
    /// Running PBS with this key performs exactly the same arithmetic
    /// (same decompositions, FFTs, multiplies) as with a real key, so
    /// it is suitable for the CPU-baseline *performance* measurements
    /// at large parameter sets, where real key generation via the exact
    /// schoolbook path would be prohibitive. It is cryptographically
    /// meaningless — outputs decrypt to the unrotated test vector.
    pub fn generate_for_benchmark(params: &TfheParameters) -> Self {
        Self::from_entries(params, params.lwe_dimension, |decomp, fft| {
            layout::PerBit(vec![trivial_entry(params, decomp, fft); params.lwe_dimension])
        })
    }

    /// Expansion half of seeded key transport: rebuilds each GGSW from
    /// its stored body polynomials and the CRS mask stream (drawn in
    /// generation order), then runs the usual Fourier materialisation.
    ///
    /// # Panics
    ///
    /// Panics if `bodies` does not hold one entry per secret bit with
    /// `(k+1)·l` rows each (transport payload invariant).
    pub(crate) fn from_seeded_parts(
        bodies: &[Vec<TorusPolynomial>],
        params: &TfheParameters,
        crs: &mut NoiseSampler,
    ) -> Self {
        assert_eq!(bodies.len(), params.lwe_dimension, "seeded bsk entry count");
        Self::from_entries(params, params.lwe_dimension, |decomp, fft| {
            let mut coeffs = Vec::new();
            layout::PerBit(
                bodies
                    .iter()
                    .map(|entry| seeded_entry(entry, params, decomp, fft, crs, &mut coeffs))
                    .collect(),
            )
        })
    }

    /// The classical **reference** blind rotation: the interleaved
    /// per-job CMUX loop (rotate → subtract →
    /// [`FourierGgsw::external_product_scratch`] → add), one job at a
    /// time, on buffers it allocates itself. No production path runs
    /// it; it is the oracle the blocked engine is pinned against bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn blind_rotate_reference(
        &self,
        ct: &LweCiphertext,
        lut: &Lut,
    ) -> Result<GlweCiphertext, TfheError> {
        self.check_shape(ct, lut)?;
        let (k, n) = (self.glwe_dimension, self.poly_size);
        let log2_two_n = n.trailing_zeros() + 1;
        let b_tilde = modulus_switch(ct.body(), log2_two_n) as usize;
        let mut acc = GlweCiphertext::trivial(k, lut.poly().rotate_left(b_tilde));
        let mut diff = GlweCiphertext::zero(k, n);
        let mut prod = GlweCiphertext::zero(k, n);
        let mut ep = ExternalProductScratch::new(k, n, self.decomp);
        for (ggsw, &a) in self.entries.0.iter().zip(ct.mask()) {
            let a_tilde = modulus_switch(a, log2_two_n) as usize;
            if a_tilde == 0 {
                continue;
            }
            acc.rotate_right_into(a_tilde, &mut diff);
            diff.sub_assign(&acc)?;
            ggsw.external_product_scratch(&diff, &self.fft, &mut prod, &mut ep);
            acc.add_assign(&prod)?;
        }
        Ok(acc)
    }
}

impl MultiBitBootstrapKey {
    /// Generates a multi-bit bootstrapping key encrypting `lwe_sk`
    /// under `glwe_sk` at `grouping_factor` bits per key entry.
    ///
    /// Every one of a group's `2^g` pattern entries is a *real* GGSW
    /// encryption (including the `2^g − 1` encryptions of zero): which
    /// single pattern holds the 1 is exactly the key material.
    ///
    /// # Panics
    ///
    /// Panics if `grouping_factor` is 0, exceeds
    /// [`PbsKernel::MAX_GROUPING_FACTOR`] or exceeds the LWE dimension
    /// (all rejected earlier by [`TfheParameters::validate`]).
    pub fn generate(
        lwe_sk: &LweSecretKey,
        glwe_sk: &GlweSecretKey,
        params: &TfheParameters,
        grouping_factor: usize,
        rng: &mut NoiseSampler,
    ) -> Self {
        check_grouping(grouping_factor, lwe_sk.bits().len());
        Self::grouped(params, grouping_factor, |decomp, fft| {
            let mut encrypt = |m| encrypted_entry(m, glwe_sk, params, decomp, fft, rng);
            let group = |bits: &[u64]| -> Vec<FourierGgsw> {
                (0..1usize << bits.len()).map(|b| encrypt(pattern_indicator(bits, b))).collect()
            };
            lwe_sk.bits().chunks(grouping_factor).map(group).collect()
        })
    }

    /// Generates a *timing-equivalent* multi-bit key without real
    /// encryption: every pattern entry is a trivial GGSW of 1 (same
    /// convention as [`BootstrapKey::generate_for_benchmark`]). The
    /// grouped rotation performs exactly the same arithmetic as with a
    /// real key; outputs are cryptographically meaningless.
    ///
    /// # Panics
    ///
    /// Panics if `grouping_factor` is out of range (see
    /// [`Self::generate`]).
    pub fn generate_for_benchmark(params: &TfheParameters, grouping_factor: usize) -> Self {
        check_grouping(grouping_factor, params.lwe_dimension);
        Self::grouped(params, grouping_factor, |decomp, fft| {
            let template = trivial_entry(params, decomp, fft);
            let n = params.lwe_dimension;
            let widths = (0..n.div_ceil(grouping_factor))
                .map(|gi| grouping_factor.min(n - gi * grouping_factor));
            widths.map(|bits| vec![template.clone(); 1 << bits]).collect()
        })
    }

    /// Expansion half of seeded key transport: rebuilds every pattern
    /// entry from its stored body polynomials and the CRS mask stream
    /// (drawn in generation order: group-major, then pattern), then
    /// runs the usual Fourier materialisation.
    ///
    /// # Panics
    ///
    /// Panics if the group/entry structure does not match the
    /// parameters (transport payload invariant).
    pub(crate) fn from_seeded_parts(
        group_bodies: &[Vec<Vec<TorusPolynomial>>],
        params: &TfheParameters,
        grouping_factor: usize,
        crs: &mut NoiseSampler,
    ) -> Self {
        check_grouping(grouping_factor, params.lwe_dimension);
        assert_eq!(
            group_bodies.len(),
            params.multi_bit_group_count(grouping_factor),
            "seeded mbsk group count"
        );
        Self::grouped(params, grouping_factor, |decomp, fft| {
            let mut coeffs = Vec::new();
            group_bodies
                .iter()
                .map(|entries| {
                    entries
                        .iter()
                        .map(|entry| seeded_entry(entry, params, decomp, fft, crs, &mut coeffs))
                        .collect()
                })
                .collect()
        })
    }

    fn grouped(
        params: &TfheParameters,
        grouping_factor: usize,
        groups: impl FnOnce(DecompositionParams, &NegacyclicFft) -> Vec<Vec<FourierGgsw>>,
    ) -> Self {
        Self::from_entries(params, params.lwe_dimension, |decomp, fft| layout::Grouped {
            groups: groups(decomp, fft),
            mono: MonomialTable::for_plan(fft),
            grouping_factor,
        })
    }

    /// Secret bits collapsed per key entry.
    #[inline]
    pub fn grouping_factor(&self) -> usize {
        self.entries.grouping_factor
    }

    /// Number of blind-rotation groups `⌈n/g⌉` (= external products per
    /// bootstrap).
    #[inline]
    pub fn group_count(&self) -> usize {
        self.entries.groups.len()
    }
}

#[cfg(test)]
impl BootstrapKey {
    /// Every key entry in secret-bit order (key-material digests).
    pub(crate) fn fourier_entries(&self) -> impl Iterator<Item = &FourierGgsw> {
        self.entries.0.iter()
    }
}

#[cfg(test)]
impl MultiBitBootstrapKey {
    /// Every key entry, group-major then pattern (key-material digests).
    pub(crate) fn fourier_entries(&self) -> impl Iterator<Item = &FourierGgsw> {
        self.entries.groups.iter().flatten()
    }
}

fn check_grouping(grouping_factor: usize, lwe_dimension: usize) {
    assert!(grouping_factor >= 1, "grouping factor must be positive");
    assert!(
        grouping_factor <= PbsKernel::MAX_GROUPING_FACTOR,
        "grouping factor exceeds the supported maximum"
    );
    assert!(grouping_factor <= lwe_dimension, "grouping factor exceeds the lwe dimension");
}

/// One real key entry: a Fourier GGSW encryption of `m` under `glwe_sk`.
fn encrypted_entry(
    m: u64,
    glwe_sk: &GlweSecretKey,
    params: &TfheParameters,
    decomp: DecompositionParams,
    fft: &NegacyclicFft,
    rng: &mut NoiseSampler,
) -> FourierGgsw {
    GgswCiphertext::encrypt_scalar(m, glwe_sk, decomp, params.glwe_noise_std, rng).to_fourier(fft)
}

/// A trivial GGSW of message 1: its gadget terms give the spectra
/// non-trivial values, so benchmark keys time honestly.
fn trivial_entry(
    params: &TfheParameters,
    decomp: DecompositionParams,
    fft: &NegacyclicFft,
) -> FourierGgsw {
    GgswCiphertext::trivial(1, params.glwe_dimension, params.polynomial_size, decomp)
        .to_fourier(fft)
}

/// One key entry rebuilt from its transported bodies and the CRS stream,
/// through `coeffs`, the coefficient buffer every entry of a key reuses.
fn seeded_entry(
    bodies: &[TorusPolynomial],
    params: &TfheParameters,
    decomp: DecompositionParams,
    fft: &NegacyclicFft,
    crs: &mut NoiseSampler,
    coeffs: &mut Vec<i64>,
) -> FourierGgsw {
    FourierGgsw::from_seeded_parts(bodies, decomp, params.glwe_dimension, crs, fft, coeffs)
}

/// Encodes a boolean as `±1/8` on the torus (gate-bootstrapping
/// convention): `true ↦ +1/8`, `false ↦ −1/8`.
///
/// The call `encode_fraction(±1, 3)` reads as "±1 over 2³" — the
/// second argument is the **log2 of the denominator**, so this is
/// exactly the `±1/8` the convention asks for (not `±1/3`).
///
/// ```
/// use strix_tfhe::bootstrap::{decode_bool, encode_bool};
/// use strix_tfhe::torus::encode_fraction;
///
/// // +1/8 of the torus is 2^64/8 = 2^61; −1/8 is its wrapping negation.
/// assert_eq!(encode_bool(true), 1u64 << 61);
/// assert_eq!(encode_bool(true), encode_fraction(1, 3));
/// assert_eq!(encode_bool(false), (1u64 << 61).wrapping_neg());
/// assert!(decode_bool(encode_bool(true)));
/// assert!(!decode_bool(encode_bool(false)));
/// ```
#[inline]
pub fn encode_bool(b: bool) -> u64 {
    if b {
        encode_fraction(1, 3)
    } else {
        encode_fraction(-1, 3)
    }
}

/// Decodes a phase to a boolean by its torus sign.
#[inline]
pub fn decode_bool(phase: u64) -> bool {
    (phase as i64) > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::decode_message;

    struct Fixture {
        params: TfheParameters,
        lwe_sk: LweSecretKey,
        glwe_sk: GlweSecretKey,
        extracted: LweSecretKey,
        bsk: BootstrapKey,
        rng: NoiseSampler,
    }

    fn fixture(params: TfheParameters) -> Fixture {
        let mut rng = NoiseSampler::from_seed(4242);
        let lwe_sk = LweSecretKey::generate(params.lwe_dimension, &mut rng);
        let glwe_sk =
            GlweSecretKey::generate(params.glwe_dimension, params.polynomial_size, &mut rng);
        let extracted = glwe_sk.to_extracted_lwe_key();
        let bsk = BootstrapKey::generate(&lwe_sk, &glwe_sk, &params, &mut rng);
        Fixture { params, lwe_sk, glwe_sk, extracted, bsk, rng }
    }

    #[test]
    fn lut_sign_shape() {
        let lut = Lut::sign(64, encode_fraction(1, 3));
        assert!(lut.poly().coeffs().iter().all(|&c| c == encode_fraction(1, 3)));
    }

    #[test]
    fn lut_from_function_rejects_oversized_space() {
        assert!(Lut::from_function(64, 7, |m| m).is_err());
        assert!(Lut::from_function(64, 6, |m| m).is_ok());
    }

    #[test]
    fn bootstrap_refreshes_sign_encoding() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        for b in [true, false] {
            let ct = fx.lwe_sk.encrypt(encode_bool(b), fx.params.lwe_noise_std, &mut fx.rng);
            let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
            let out = fx.bsk.bootstrap(&ct, &lut).unwrap();
            assert_eq!(out.dimension(), fx.bsk.output_dimension());
            let phase = fx.extracted.decrypt_phase(&out).unwrap();
            assert_eq!(decode_bool(phase), b, "b={b}");
        }
    }

    #[test]
    fn bootstrap_evaluates_identity_lut() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let p = 2u32; // 2-bit messages
        let lut = Lut::from_function(fx.params.polynomial_size, p, |m| m).unwrap();
        for m in 0..4u64 {
            let pt = m << (64 - p - 1);
            let ct = fx.lwe_sk.encrypt(pt, fx.params.lwe_noise_std, &mut fx.rng);
            let out = fx.bsk.bootstrap(&ct, &lut).unwrap();
            let phase = fx.extracted.decrypt_phase(&out).unwrap();
            assert_eq!(decode_message(phase, p + 1), m, "m={m}");
        }
    }

    #[test]
    fn bootstrap_evaluates_nontrivial_lut() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let p = 2u32;
        let f = |m: u64| (3 * m + 1) % 4;
        let lut = Lut::from_function(fx.params.polynomial_size, p, f).unwrap();
        for m in 0..4u64 {
            let pt = m << (64 - p - 1);
            let ct = fx.lwe_sk.encrypt(pt, fx.params.lwe_noise_std, &mut fx.rng);
            let out = fx.bsk.bootstrap(&ct, &lut).unwrap();
            let phase = fx.extracted.decrypt_phase(&out).unwrap();
            assert_eq!(decode_message(phase, p + 1), f(m), "m={m}");
        }
    }

    #[test]
    fn bootstrap_works_with_k2_parameters() {
        let fx = &mut fixture(TfheParameters::testing_k2());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        for b in [true, false] {
            let ct = fx.lwe_sk.encrypt(encode_bool(b), fx.params.lwe_noise_std, &mut fx.rng);
            let out = fx.bsk.bootstrap(&ct, &lut).unwrap();
            assert_eq!(out.dimension(), 2 * fx.params.polynomial_size);
            let phase = fx.extracted.decrypt_phase(&out).unwrap();
            assert_eq!(decode_bool(phase), b);
        }
    }

    #[test]
    fn blind_rotate_output_decrypts_under_glwe_key() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let ct = fx.lwe_sk.encrypt(encode_bool(true), fx.params.lwe_noise_std, &mut fx.rng);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let acc = fx.bsk.blind_rotate(&ct, &lut).unwrap();
        let phase = fx.glwe_sk.decrypt_phase(&acc).unwrap();
        assert!(decode_bool(phase[0]));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let wrong = LweCiphertext::trivial(10, 0);
        assert!(fx.bsk.blind_rotate(&wrong, &lut).is_err());
        let wrong_lut = Lut::sign(fx.params.polynomial_size * 2, 1);
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        assert!(fx.bsk.blind_rotate(&ct, &wrong_lut).is_err());
    }

    #[test]
    fn profiled_bootstrap_accounts_blind_rotation_dominant() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let ct = fx.lwe_sk.encrypt(encode_bool(true), fx.params.lwe_noise_std, &mut fx.rng);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let mut t = StageTimings::new();
        let _ = fx.bsk.bootstrap_profiled(&ct, &lut, &mut t).unwrap();
        // The paper reports ~98% of PBS inside the blind rotation; even
        // at toy sizes it must clearly dominate.
        assert!(t.blind_rotation_fraction() > 0.8, "{}", t.blind_rotation_fraction());
    }

    #[test]
    fn key_size_matches_parameter_formula() {
        let params = TfheParameters::testing_fast();
        let fx = fixture(params.clone());
        assert_eq!(fx.bsk.byte_size(), params.bootstrap_key_bytes());
    }

    #[test]
    fn bool_encoding_round_trip() {
        assert!(decode_bool(encode_bool(true)));
        assert!(!decode_bool(encode_bool(false)));
    }

    #[test]
    fn batched_bootstrap_matches_single_per_job() {
        // Key-major iteration must be arithmetically identical to the
        // ciphertext-major single path — same products, same order of
        // additions per accumulator.
        let fx = &mut fixture(TfheParameters::testing_fast());
        let p = 2u32;
        let lut_id = Lut::from_function(fx.params.polynomial_size, p, |m| m).unwrap();
        let lut_sq = Lut::from_function(fx.params.polynomial_size, p, |m| (m * m) % 4).unwrap();
        let cts: Vec<LweCiphertext> = (0..4u64)
            .map(|m| fx.lwe_sk.encrypt(m << (64 - p - 1), fx.params.lwe_noise_std, &mut fx.rng))
            .collect();
        let jobs: Vec<PbsJob<'_>> = cts
            .iter()
            .enumerate()
            .map(|(i, ct)| PbsJob { ct, lut: if i % 2 == 0 { &lut_id } else { &lut_sq } })
            .collect();
        let batched = fx.bsk.bootstrap_batch(&jobs).unwrap();
        for (job, out) in jobs.iter().zip(&batched) {
            let single = fx.bsk.bootstrap(job.ct, job.lut).unwrap();
            assert_eq!(out, &single);
        }
        // And the results are still correct.
        for (m, out) in batched.iter().enumerate() {
            let phase = fx.extracted.decrypt_phase(out).unwrap();
            let expected = if m % 2 == 0 { m as u64 } else { ((m * m) % 4) as u64 };
            assert_eq!(decode_message(phase, p + 1), expected, "m={m}");
        }
    }

    #[test]
    fn parallel_bootstrap_is_bit_identical_to_sequential() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let p = 2u32;
        let lut_id = Lut::from_function(fx.params.polynomial_size, p, |m| m).unwrap();
        let lut_sq = Lut::from_function(fx.params.polynomial_size, p, |m| (m * m) % 4).unwrap();
        // 7 jobs: does not divide evenly by 2, 3, 4, 5 or 6 threads.
        let cts: Vec<LweCiphertext> = (0..7u64)
            .map(|m| {
                fx.lwe_sk.encrypt((m % 4) << (64 - p - 1), fx.params.lwe_noise_std, &mut fx.rng)
            })
            .collect();
        let jobs: Vec<PbsJob<'_>> = cts
            .iter()
            .enumerate()
            .map(|(i, ct)| PbsJob { ct, lut: if i % 2 == 0 { &lut_id } else { &lut_sq } })
            .collect();
        let sequential = fx.bsk.bootstrap_batch(&jobs).unwrap();
        for threads in 1..=8 {
            let parallel = fx.bsk.bootstrap_batch_parallel(&jobs, threads).unwrap();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        // Degenerate thread counts are clamped, not errors.
        assert_eq!(fx.bsk.bootstrap_batch_parallel(&jobs, 0).unwrap(), sequential);
        assert_eq!(fx.bsk.bootstrap_batch_parallel(&jobs, 100).unwrap(), sequential);
        assert!(fx.bsk.bootstrap_batch_parallel(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn parallel_bootstrap_rejects_shape_mismatch_before_spawning() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let good = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let bad = LweCiphertext::trivial(10, 0);
        let jobs = [PbsJob { ct: &good, lut: &lut }, PbsJob { ct: &bad, lut: &lut }];
        assert!(fx.bsk.bootstrap_batch_parallel(&jobs, 2).is_err());
    }

    #[test]
    fn scratch_reuse_across_bootstraps_is_bit_identical() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let mut scratch = fx.bsk.scratch();
        for b in [true, false, true] {
            let ct = fx.lwe_sk.encrypt(encode_bool(b), fx.params.lwe_noise_std, &mut fx.rng);
            let fresh = fx.bsk.blind_rotate(&ct, &lut).unwrap();
            let reused = fx.bsk.blind_rotate_with(&ct, &lut, &mut scratch).unwrap();
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    #[should_panic(expected = "scratch polynomial size mismatch")]
    fn wrong_scratch_shape_panics() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let mut wrong = PbsScratch::new(
            fx.params.glwe_dimension,
            fx.params.polynomial_size * 2,
            fx.bsk.decomposition(),
            None,
        );
        let _ = fx.bsk.blind_rotate_with(&ct, &lut, &mut wrong);
    }

    #[test]
    fn batched_bootstrap_rejects_shape_mismatch() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let good = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let bad = LweCiphertext::trivial(10, 0);
        let jobs = [PbsJob { ct: &good, lut: &lut }, PbsJob { ct: &bad, lut: &lut }];
        assert!(fx.bsk.bootstrap_batch(&jobs).is_err());
        assert!(fx.bsk.bootstrap_batch(&[]).unwrap().is_empty());
    }

    fn multi_bit_key(fx: &mut Fixture, g: usize) -> MultiBitBootstrapKey {
        MultiBitBootstrapKey::generate(&fx.lwe_sk, &fx.glwe_sk, &fx.params, g, &mut fx.rng)
    }

    #[test]
    fn multi_bit_key_size_matches_parameter_formula() {
        let params = TfheParameters::testing_fast();
        let fx = &mut fixture(params.clone());
        for g in [2usize, 3] {
            let mbsk = multi_bit_key(fx, g);
            assert_eq!(mbsk.grouping_factor(), g);
            assert_eq!(mbsk.group_count(), params.multi_bit_group_count(g));
            assert_eq!(mbsk.byte_size(), params.multi_bit_bootstrap_key_bytes(g), "g={g}");
            assert_eq!(mbsk.input_dimension(), params.lwe_dimension);
            assert_eq!(mbsk.output_dimension(), params.extracted_lwe_dimension());
        }
    }

    #[test]
    fn multi_bit_bootstrap_decrypts_like_classical() {
        // Not bit-identical — a genuinely different kernel — but the
        // decoded messages must agree with the classical path on every
        // input of the message space.
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let p = 2u32;
        let f = |m: u64| (3 * m + 1) % 4;
        let lut = Lut::from_function(fx.params.polynomial_size, p, f).unwrap();
        for m in 0..4u64 {
            let pt = m << (64 - p - 1);
            let ct = fx.lwe_sk.encrypt(pt, fx.params.lwe_noise_std, &mut fx.rng);
            let classical = fx.bsk.bootstrap(&ct, &lut).unwrap();
            let multi_bit = mbsk.bootstrap(&ct, &lut).unwrap();
            let pc = fx.extracted.decrypt_phase(&classical).unwrap();
            let pm = fx.extracted.decrypt_phase(&multi_bit).unwrap();
            assert_eq!(decode_message(pm, p + 1), decode_message(pc, p + 1), "m={m}");
            assert_eq!(decode_message(pm, p + 1), f(m), "m={m}");
        }
    }

    #[test]
    fn multi_bit_zero_rotation_job_is_exact_passthrough() {
        // A trivial ciphertext with all-zero mask and body skips every
        // group: the accumulator must come back exactly as initialised,
        // bit-identical to what the classical kernel produces.
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let grouped = mbsk.blind_rotate(&ct, &lut).unwrap();
        let classical = fx.bsk.blind_rotate(&ct, &lut).unwrap();
        assert_eq!(grouped, classical);
    }

    #[test]
    fn multi_bit_batch_matches_single_per_job() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let p = 2u32;
        let lut = Lut::from_function(fx.params.polynomial_size, p, |m| m).unwrap();
        let cts: Vec<LweCiphertext> = (0..5u64)
            .map(|m| {
                fx.lwe_sk.encrypt((m % 4) << (64 - p - 1), fx.params.lwe_noise_std, &mut fx.rng)
            })
            .collect();
        let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();
        let batched = mbsk.bootstrap_batch(&jobs).unwrap();
        for (job, out) in jobs.iter().zip(&batched) {
            assert_eq!(out, &mbsk.bootstrap(job.ct, job.lut).unwrap());
        }
    }

    #[test]
    fn multi_bit_shape_mismatch_is_reported() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let wrong = LweCiphertext::trivial(10, 0);
        assert!(mbsk.blind_rotate(&wrong, &lut).is_err());
        let wrong_lut = Lut::sign(fx.params.polynomial_size * 2, 1);
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        assert!(mbsk.blind_rotate(&ct, &wrong_lut).is_err());
    }

    #[test]
    #[should_panic(expected = "scratch grouping factor mismatch")]
    fn multi_bit_wrong_scratch_grouping_panics() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let mut wrong = PbsScratch::new(
            fx.params.glwe_dimension,
            fx.params.polynomial_size,
            mbsk.decomposition(),
            Some(3),
        );
        let _ = mbsk.blind_rotate_with(&ct, &lut, &mut wrong);
    }
}
