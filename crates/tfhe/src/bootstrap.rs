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
//! # Hot-path execution model
//!
//! The CMUX loop runs entirely on per-thread [`PbsScratch`] buffers —
//! no heap allocation between the initial accumulator setup and sample
//! extraction. All Fourier-domain data (bootstrapping-key rows, digit
//! spectra, accumulator spectra) lives in the transform plan's
//! bit-reversed slot order end to end — the `strix-fft` kernel never
//! runs a permutation pass, and nothing in PBS ever needs natural bin
//! order. Batched epochs additionally hoist the per-iteration modulus
//! switch: every job's mask is switched once into a per-epoch table
//! before the key-major loop starts. Epochs scale across cores with
//! [`BootstrapKey::bootstrap_batch_parallel`]: the job list is split
//! into contiguous shards, each shard walks the shared bootstrapping
//! key in key-major order with its own scratch, and the results come
//! back in job order, bit-identical to the sequential
//! [`BootstrapKey::bootstrap_batch`].

use strix_fft::{MonomialTable, NegacyclicFft};

use crate::decompose::DecompositionParams;
use crate::ggsw::{FourierGgsw, GgswCiphertext};
use crate::glwe::{GlweCiphertext, GlweSecretKey};
use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::params::{PbsKernel, TfheParameters};
use crate::poly::TorusPolynomial;
use crate::profiler::{NoProbe, PbsStage, Probe, StageTimings, TimingProbe};
use crate::rng::NoiseSampler;
use crate::scratch::{MultiBitPbsScratch, PbsScratch, CMUX_JOB_BLOCK};
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

/// The bootstrapping key: `n` Fourier-domain GGSW encryptions of the LWE
/// secret-key bits, plus the FFT plan they were transformed under.
#[derive(Clone, Debug)]
pub struct BootstrapKey {
    ggsws: Vec<FourierGgsw>,
    fft: NegacyclicFft,
    glwe_dimension: usize,
    poly_size: usize,
    decomp: DecompositionParams,
}

impl BootstrapKey {
    /// Generates a bootstrapping key encrypting `lwe_sk` under `glwe_sk`.
    pub fn generate(
        lwe_sk: &LweSecretKey,
        glwe_sk: &GlweSecretKey,
        params: &TfheParameters,
        rng: &mut NoiseSampler,
    ) -> Self {
        let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
        let fft = NegacyclicFft::with_backend(params.polynomial_size, params.fft_backend)
            // lint:allow(panic) parameters were validated at construction
            .expect("validated parameters have power-of-two N and an available backend");
        let ggsws = lwe_sk
            .bits()
            .iter()
            .map(|&s| {
                GgswCiphertext::encrypt_scalar(s, glwe_sk, decomp, params.glwe_noise_std, rng)
                    .to_fourier(&fft)
            })
            .collect();
        Self {
            ggsws,
            fft,
            glwe_dimension: params.glwe_dimension,
            poly_size: params.polynomial_size,
            decomp,
        }
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
        let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
        let fft = NegacyclicFft::with_backend(params.polynomial_size, params.fft_backend)
            // lint:allow(panic) parameters were validated at construction
            .expect("validated parameters have power-of-two N and an available backend");
        // GGSW of message 1: gadget terms give the spectra non-trivial
        // values so the FFT timing is honest.
        let template =
            GgswCiphertext::trivial(1, params.glwe_dimension, params.polynomial_size, decomp)
                .to_fourier(&fft);
        let ggsws = vec![template; params.lwe_dimension];
        Self {
            ggsws,
            fft,
            glwe_dimension: params.glwe_dimension,
            poly_size: params.polynomial_size,
            decomp,
        }
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
        let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
        let fft = NegacyclicFft::with_backend(params.polynomial_size, params.fft_backend)
            // lint:allow(panic) parameters were validated at construction
            .expect("validated parameters have power-of-two N and an available backend");
        let ggsws = bodies
            .iter()
            .map(|entry| {
                GgswCiphertext::from_seeded_parts(entry, decomp, params.glwe_dimension, crs)
                    .to_fourier(&fft)
            })
            .collect();
        Self {
            ggsws,
            fft,
            glwe_dimension: params.glwe_dimension,
            poly_size: params.polynomial_size,
            decomp,
        }
    }

    /// Input LWE dimension `n` (number of blind-rotation iterations).
    #[inline]
    pub fn input_dimension(&self) -> usize {
        self.ggsws.len()
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
        PbsScratch::new(self.glwe_dimension, self.poly_size, self.decomp)
    }

    /// Total Fourier-domain key size in bytes (HBM traffic per full PBS).
    pub fn byte_size(&self) -> usize {
        self.ggsws.iter().map(FourierGgsw::byte_size).sum()
    }

    /// Blind rotation (Algorithm 1 lines 2–12): rotates `lut` by the
    /// encrypted phase of `ct`, returning the GLWE accumulator.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if the ciphertext
    /// dimension or LUT size disagrees with the key.
    pub fn blind_rotate(&self, ct: &LweCiphertext, lut: &Lut) -> Result<GlweCiphertext, TfheError> {
        let mut scratch = self.scratch();
        self.blind_rotate_with(ct, lut, &mut scratch)
    }

    /// As [`Self::blind_rotate`] with caller-provided scratch: after
    /// the initial accumulator setup, the CMUX loop performs no heap
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was sized for a different parameter set.
    pub fn blind_rotate_with(
        &self,
        ct: &LweCiphertext,
        lut: &Lut,
        scratch: &mut PbsScratch,
    ) -> Result<GlweCiphertext, TfheError> {
        self.blind_rotate_core(ct, lut, scratch, &mut NoProbe)
    }

    /// The single implementation behind the per-job blind-rotation
    /// entry points, generic over a [`Probe`]: the production path
    /// passes [`NoProbe`] (inlines to nothing), the profiled path a
    /// [`TimingProbe`] — one rotation loop, so instrumented and
    /// production execution can never drift.
    // lint:hot-path-start — the classical per-job CMUX loop must stay allocation-free
    fn blind_rotate_core<P: Probe>(
        &self,
        ct: &LweCiphertext,
        lut: &Lut,
        scratch: &mut PbsScratch,
        probe: &mut P,
    ) -> Result<GlweCiphertext, TfheError> {
        self.check_shape(ct, lut)?;
        scratch.check_shape(self.glwe_dimension, self.poly_size, self.decomp.level);
        let log2_two_n = self.poly_size.trailing_zeros() + 1;
        let b_tilde =
            probe.time(PbsStage::ModSwitch, || modulus_switch(ct.body(), log2_two_n)) as usize;
        let mut acc = probe.time(PbsStage::Rotate, || {
            GlweCiphertext::trivial(self.glwe_dimension, lut.poly().rotate_left(b_tilde))
        });
        for (ggsw, &a) in self.ggsws.iter().zip(ct.mask()) {
            let a_tilde =
                probe.time(PbsStage::ModSwitch, || modulus_switch(a, log2_two_n)) as usize;
            if a_tilde == 0 {
                continue;
            }
            // CMUX: acc ← acc + ggsw ⊡ (X^ã·acc − acc), allocation-free.
            let PbsScratch { diff, prod, ep, .. } = scratch;
            probe.time(PbsStage::Rotate, || {
                acc.rotate_right_into(a_tilde, diff);
                // lint:allow(panic) shape invariant established at construction
                diff.sub_assign(&acc).expect("scratch shape is pre-validated");
            });
            ggsw.external_product_probed(diff, &self.fft, prod, ep, probe);
            // lint:allow(panic) shape invariant established at construction
            acc.add_assign(prod).expect("scratch shape is pre-validated");
        }
        Ok(acc)
    }
    // lint:hot-path-end

    /// Blind rotation with stage timing instrumentation — the same
    /// rotation loop as [`Self::blind_rotate_with`], observed through
    /// a timing probe.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn blind_rotate_profiled(
        &self,
        ct: &LweCiphertext,
        lut: &Lut,
        timings: &mut StageTimings,
    ) -> Result<GlweCiphertext, TfheError> {
        let mut scratch = self.scratch();
        self.blind_rotate_core(ct, lut, &mut scratch, &mut TimingProbe(timings))
    }

    /// Checks that a `(ciphertext, LUT)` pair matches this key's shape
    /// — the single validation both the single and batched bootstrap
    /// paths apply, exposed so schedulers can pre-validate jobs before
    /// committing them to a shared batch.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] naming the mismatch.
    pub fn check_shape(&self, ct: &LweCiphertext, lut: &Lut) -> Result<(), TfheError> {
        if ct.dimension() != self.input_dimension() {
            return Err(TfheError::ParameterMismatch {
                what: "lwe dimension",
                left: ct.dimension(),
                right: self.input_dimension(),
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

    /// Blind-rotates a whole batch with **key-major iteration order**,
    /// the software analogue of the paper's core-level batching
    /// (§IV-C): the outer loop walks the `n` bootstrapping-key entries
    /// and the inner loop applies each GGSW to every accumulator in
    /// the batch, so one key fetch is reused `batch` times — exactly
    /// how an HSC amortises its per-iteration bsk stream. Jobs may
    /// carry different LUTs; only the key material is shared.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if any job's ciphertext
    /// dimension or LUT size disagrees with the key.
    pub fn blind_rotate_batch(
        &self,
        jobs: &[PbsJob<'_>],
    ) -> Result<Vec<GlweCiphertext>, TfheError> {
        let mut scratch = self.scratch();
        self.blind_rotate_batch_with(jobs, &mut scratch)
    }

    /// As [`Self::blind_rotate_batch`] with caller-provided scratch —
    /// one scratch serves the whole epoch, so the key-major loop
    /// performs no heap allocation beyond the output accumulators and
    /// one per-epoch switched-mask table: every job's mask is
    /// modulus-switched **once, up front**, rather than per key entry
    /// inside the hot loop (epoch-wide hoisting of Algorithm 1 line 5).
    ///
    /// This is the **coefficient-batched, job-blocked** CMUX path (the
    /// paper's two batching levels realised together): per key entry,
    /// accumulators are processed in blocks of
    /// [`CMUX_JOB_BLOCK`] jobs whose
    /// digit polynomials go through one batched split-complex forward
    /// transform each ([`NegacyclicFft::forward_i64_many`]) and whose
    /// VMA runs **row-major across the block**, so each key row is
    /// fetched once per block instead of once per job. Outputs are
    /// bit-identical to the per-job oracle path
    /// ([`Self::blind_rotate_with`]) — the schedule changes, the
    /// per-job arithmetic does not.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on any shape mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was sized for a different parameter set.
    pub fn blind_rotate_batch_with(
        &self,
        jobs: &[PbsJob<'_>],
        scratch: &mut PbsScratch,
    ) -> Result<Vec<GlweCiphertext>, TfheError> {
        self.blind_rotate_batch_core(jobs, scratch, &mut NoProbe)
    }

    /// The single implementation behind the batched blind rotation,
    /// generic over a [`Probe`] (production: [`NoProbe`]; the
    /// per-stage breakdown harness: [`TimingProbe`]).
    fn blind_rotate_batch_core<P: Probe>(
        &self,
        jobs: &[PbsJob<'_>],
        scratch: &mut PbsScratch,
        probe: &mut P,
    ) -> Result<Vec<GlweCiphertext>, TfheError> {
        let log2_two_n = self.poly_size.trailing_zeros() + 1;
        for job in jobs {
            self.check_shape(job.ct, job.lut)?;
        }
        scratch.check_shape(self.glwe_dimension, self.poly_size, self.decomp.level);

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
        // once, up front, instead of re-running `modulus_switch` inside
        // the key-major inner loop (`n · batch` calls per epoch). The
        // table is **entry-major** (`switched[i·batch + j]`), so the
        // key-major loop below reads each entry's rotation amounts as
        // one contiguous slice per block. The switched values live in
        // `[0, 2N)` so `u32` keeps the table a quarter the size of the
        // masks it replaces. `modulus_switch` is a pure rounding shift,
        // so precomputation is bit-identical to switching in-loop.
        let n_iter = self.ggsws.len();
        let batch = jobs.len();
        let mut switched = vec![0u32; batch * n_iter];
        probe.time(PbsStage::ModSwitch, || {
            for (j, job) in jobs.iter().enumerate() {
                for (i, &a) in job.ct.mask().iter().enumerate() {
                    switched[i * batch + j] = modulus_switch(a, log2_two_n) as u32;
                }
            }
        });

        // Key-major, job-blocked blind rotation: fetch GGSW i once,
        // use it for the whole batch, block by block.
        for (i, ggsw) in self.ggsws.iter().enumerate() {
            let amounts = &switched[i * batch..(i + 1) * batch];
            for (accs_block, amounts_block) in
                accs.chunks_mut(CMUX_JOB_BLOCK).zip(amounts.chunks(CMUX_JOB_BLOCK))
            {
                self.cmux_block(ggsw, accs_block, amounts_block, scratch, probe);
            }
        }
        Ok(accs)
    }

    /// One blocked CMUX step: applies `ggsw` to every accumulator of
    /// the block whose rotation amount is non-zero, computing
    /// `acc ← acc + ggsw ⊡ (X^ã·acc − acc)` for each, bit-identically
    /// to the per-job path but scheduled for locality:
    ///
    /// 1. **Stage** — per job and column, one pass
    ///    ([`DecompositionParams::decompose_rotated_difference_levels`])
    ///    reads the accumulator polynomial and writes the rounded
    ///    digits of `X^ã·acc − acc` straight into the level buffer: the
    ///    rotation is an index shift with a sign folded into the
    ///    decomposer's rounding step, so no difference polynomial is
    ///    ever written. Then all `(k+1)·l` forward FFTs run as one
    ///    batched split-complex transform.
    /// 2. **VMA, row-major across the block** — for each of the
    ///    `(k+1)·l` key rows, multiply–accumulate it against every
    ///    staged job before the next row streams in, so the row stays
    ///    in L1 across the block.
    /// 3. **Drain** — per job: one batched inverse transform of the
    ///    `k+1` accumulator spectra, then one packed pass per column
    ///    that converts to the torus and accumulates
    ///    ([`crate::torus::f64_to_torus`] is integer bit arithmetic,
    ///    so this loop vectorises).
    ///
    /// Per job, rows are visited in the same order and every
    /// floating-point/torus operation is the same as in the per-job
    /// oracle (rotate → subtract → [`FourierGgsw::external_product_scratch`])
    /// — the staging pass computes the same wrapping differences
    /// without storing them, and only the loop nesting across
    /// *independent* jobs differs, which cannot change a bit of any
    /// output.
    // lint:hot-path-start — the blocked classical CMUX kernel must stay allocation-free
    fn cmux_block<P: Probe>(
        &self,
        ggsw: &FourierGgsw,
        accs: &mut [GlweCiphertext],
        amounts: &[u32],
        scratch: &mut PbsScratch,
        probe: &mut P,
    ) {
        debug_assert_eq!(accs.len(), amounts.len());
        debug_assert!(accs.len() <= CMUX_JOB_BLOCK);
        let k = self.glwe_dimension;
        let n = self.poly_size;
        let level = self.decomp.level;
        let PbsScratch { ep, all_digits, digit_batch, acc_batch, time_batch, .. } = scratch;

        // Stage: one rotate-subtract-decompose pass per column, then the
        // batched forward FFTs. The fused pass accounts to `Decompose`.
        for ((acc, &amt), digits) in accs.iter().zip(amounts).zip(digit_batch.iter_mut()) {
            if amt == 0 {
                continue;
            }
            probe.time(PbsStage::Decompose, || {
                for (j, poly) in acc.polys().enumerate() {
                    self.decomp.decompose_rotated_difference_levels(
                        poly,
                        amt as usize,
                        &mut all_digits[j * level * n..(j + 1) * level * n],
                        &mut ep.decomp_state,
                    );
                }
            });
            probe.time(PbsStage::Fft, || {
                self.fft
                    .forward_i64_many(all_digits, digits)
                    // lint:allow(panic) shape invariant established at construction
                    .expect("digit batch matches the fft plan");
            });
        }

        // VMA, row-major across the block: key row `r` is loaded once
        // and applied to every staged job while hot.
        probe.time(PbsStage::VectorMultiply, || {
            for spec in
                acc_batch.iter_mut().zip(amounts).filter(|(_, &amt)| amt != 0).map(|(s, _)| s)
            {
                spec.fill_zero();
            }
            for r in 0..(k + 1) * level {
                for (digits, spec) in digit_batch
                    .iter()
                    .zip(acc_batch.iter_mut())
                    .zip(amounts)
                    .filter(|(_, &amt)| amt != 0)
                    .map(|(pair, _)| pair)
                {
                    let (d_re, d_im) = digits.transform(r);
                    for col in 0..=k {
                        let (k_re, k_im) = ggsw.row_col(r, col);
                        let (a_re, a_im) = spec.transform_mut(col);
                        self.fft.pointwise_mul_add_soa(a_re, a_im, d_re, d_im, k_re, k_im);
                    }
                }
            }
        });

        // Drain: batched inverse, then a packed convert-and-accumulate.
        for ((acc, &amt), spec) in accs.iter_mut().zip(amounts).zip(acc_batch.iter_mut()) {
            if amt == 0 {
                continue;
            }
            probe.time(PbsStage::IfftAccumulate, || {
                self.fft
                    .backward_f64_many(spec, time_batch)
                    // lint:allow(panic) shape invariant established at construction
                    .expect("accumulator batch matches the fft plan");
                for (col, time) in time_batch.chunks_exact(n).enumerate() {
                    // lint:allow(panic) shape invariant established at construction
                    let poly = acc.poly_mut(col).expect("column within GLWE dimension");
                    for (o, &v) in poly.coeffs_mut().iter_mut().zip(time) {
                        *o = o.wrapping_add(f64_to_torus(v));
                    }
                }
            });
        }
    }
    // lint:hot-path-end

    /// Batched programmable bootstrap: [`Self::blind_rotate_batch`]
    /// followed by per-job sample extraction. Outputs are in job order
    /// and still under the extracted (`k·N`) key.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on any shape mismatch.
    pub fn bootstrap_batch(&self, jobs: &[PbsJob<'_>]) -> Result<Vec<LweCiphertext>, TfheError> {
        Ok(self.blind_rotate_batch(jobs)?.iter().map(GlweCiphertext::sample_extract).collect())
    }

    /// As [`Self::bootstrap_batch`] with per-stage timing
    /// instrumentation over the **production blocked CMUX path** —
    /// the same kernel the un-instrumented batch runs, observed
    /// through a timing probe, so the per-stage breakdown
    /// (decompose / forward FFT / VMA / inverse FFT) reflects exactly
    /// what production executes. Used by the `bench_snapshot` harness.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on any shape mismatch.
    pub fn bootstrap_batch_profiled(
        &self,
        jobs: &[PbsJob<'_>],
        timings: &mut StageTimings,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        let mut scratch = self.scratch();
        let mut probe = TimingProbe(timings);
        let accs = self.blind_rotate_batch_core(jobs, &mut scratch, &mut probe)?;
        Ok(probe.time(PbsStage::SampleExtract, || {
            accs.iter().map(GlweCiphertext::sample_extract).collect()
        }))
    }

    /// Parallel epoch execution: splits `jobs` into `threads`
    /// contiguous shards and runs each through the key-major
    /// [`Self::bootstrap_batch`] on its own [`std::thread::scope`]
    /// worker with its own [`PbsScratch`], all sharing this
    /// `&BootstrapKey`. This is the software form of the paper's
    /// two-level batching actually running in parallel: core-level
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
        // worker trails the rest by more than one PBS. Contiguity
        // preserves key-major order within each shard and job order
        // across the concatenated results.
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

    /// Profiled variant of [`Self::bootstrap`].
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
        let acc = self.blind_rotate_profiled(ct, lut, timings)?;
        let t0 = std::time::Instant::now();
        let out = acc.sample_extract();
        timings.add(PbsStage::SampleExtract, t0.elapsed());
        Ok(out)
    }
}

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
#[derive(Clone, Debug)]
pub struct MultiBitBootstrapKey {
    /// Group `i` holds `2^{m_i}` pattern entries (`m_i = g` except for
    /// the remainder group).
    groups: Vec<Vec<FourierGgsw>>,
    fft: NegacyclicFft,
    mono: MonomialTable,
    glwe_dimension: usize,
    poly_size: usize,
    decomp: DecompositionParams,
    grouping_factor: usize,
    input_dimension: usize,
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
        Self::check_grouping(grouping_factor, lwe_sk.bits().len());
        let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
        let fft = NegacyclicFft::with_backend(params.polynomial_size, params.fft_backend)
            // lint:allow(panic) parameters were validated at construction
            .expect("validated parameters have power-of-two N and an available backend");
        let groups = lwe_sk
            .bits()
            .chunks(grouping_factor)
            .map(|bits| {
                (0..1usize << bits.len())
                    .map(|pattern| {
                        let indicator: u64 = bits
                            .iter()
                            .enumerate()
                            .map(|(t, &s)| if (pattern >> t) & 1 == 1 { s } else { 1 - s })
                            .product();
                        GgswCiphertext::encrypt_scalar(
                            indicator,
                            glwe_sk,
                            decomp,
                            params.glwe_noise_std,
                            rng,
                        )
                        .to_fourier(&fft)
                    })
                    .collect()
            })
            .collect();
        let mono = MonomialTable::for_plan(&fft);
        Self {
            groups,
            fft,
            mono,
            glwe_dimension: params.glwe_dimension,
            poly_size: params.polynomial_size,
            decomp,
            grouping_factor,
            input_dimension: params.lwe_dimension,
        }
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
        Self::check_grouping(grouping_factor, params.lwe_dimension);
        let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
        let fft = NegacyclicFft::with_backend(params.polynomial_size, params.fft_backend)
            // lint:allow(panic) parameters were validated at construction
            .expect("validated parameters have power-of-two N and an available backend");
        let template =
            GgswCiphertext::trivial(1, params.glwe_dimension, params.polynomial_size, decomp)
                .to_fourier(&fft);
        let full_groups = params.lwe_dimension / grouping_factor;
        let remainder = params.lwe_dimension % grouping_factor;
        let mut groups: Vec<Vec<FourierGgsw>> =
            vec![vec![template.clone(); 1 << grouping_factor]; full_groups];
        if remainder > 0 {
            groups.push(vec![template; 1 << remainder]);
        }
        let mono = MonomialTable::for_plan(&fft);
        Self {
            groups,
            fft,
            mono,
            glwe_dimension: params.glwe_dimension,
            poly_size: params.polynomial_size,
            decomp,
            grouping_factor,
            input_dimension: params.lwe_dimension,
        }
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
        Self::check_grouping(grouping_factor, params.lwe_dimension);
        assert_eq!(
            group_bodies.len(),
            params.multi_bit_group_count(grouping_factor),
            "seeded mbsk group count"
        );
        let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
        let fft = NegacyclicFft::with_backend(params.polynomial_size, params.fft_backend)
            // lint:allow(panic) parameters were validated at construction
            .expect("validated parameters have power-of-two N and an available backend");
        let groups = group_bodies
            .iter()
            .map(|entries| {
                entries
                    .iter()
                    .map(|entry| {
                        GgswCiphertext::from_seeded_parts(entry, decomp, params.glwe_dimension, crs)
                            .to_fourier(&fft)
                    })
                    .collect()
            })
            .collect();
        let mono = MonomialTable::for_plan(&fft);
        Self {
            groups,
            fft,
            mono,
            glwe_dimension: params.glwe_dimension,
            poly_size: params.polynomial_size,
            decomp,
            grouping_factor,
            input_dimension: params.lwe_dimension,
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

    /// Secret bits collapsed per key entry.
    #[inline]
    pub fn grouping_factor(&self) -> usize {
        self.grouping_factor
    }

    /// Number of blind-rotation groups `⌈n/g⌉` (= external products per
    /// bootstrap).
    #[inline]
    pub fn group_count(&self) -> usize {
        self.groups.len()
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

    /// Allocates a [`MultiBitPbsScratch`] sized to this key — one per
    /// thread, reused across every bootstrap that thread performs.
    pub fn scratch(&self) -> MultiBitPbsScratch {
        MultiBitPbsScratch::new(
            self.glwe_dimension,
            self.poly_size,
            self.decomp,
            self.grouping_factor,
        )
    }

    /// Total Fourier-domain key size in bytes — `2^g/g ×` the classical
    /// key (`Σ` over groups of `2^{m_i}` entries).
    pub fn byte_size(&self) -> usize {
        self.groups.iter().flatten().map(FourierGgsw::byte_size).sum()
    }

    /// Checks that a `(ciphertext, LUT)` pair matches this key's shape —
    /// identical validation to [`BootstrapKey::check_shape`].
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

    /// Grouped blind rotation: rotates `lut` by the encrypted phase of
    /// `ct` in `⌈n/g⌉` external products.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn blind_rotate(&self, ct: &LweCiphertext, lut: &Lut) -> Result<GlweCiphertext, TfheError> {
        let mut scratch = self.scratch();
        self.blind_rotate_with(ct, lut, &mut scratch)
    }

    /// As [`Self::blind_rotate`] with caller-provided scratch. A single
    /// job runs through the same grouped batch core as an epoch, so the
    /// single and batched paths are bit-identical by construction.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was sized for a different parameter set or
    /// grouping factor.
    pub fn blind_rotate_with(
        &self,
        ct: &LweCiphertext,
        lut: &Lut,
        scratch: &mut MultiBitPbsScratch,
    ) -> Result<GlweCiphertext, TfheError> {
        let jobs = [PbsJob { ct, lut }];
        let mut accs = self.blind_rotate_batch_core(&jobs, scratch, &mut NoProbe)?;
        // lint:allow(panic) batch core returns one accumulator per job
        Ok(accs.pop().expect("one job in, one accumulator out"))
    }

    /// Grouped blind rotation of a whole batch, key-major and
    /// job-blocked like the classical kernel: the outer loop walks the
    /// `⌈n/g⌉` groups, and within each group the batch is processed in
    /// blocks of [`CMUX_JOB_BLOCK`] jobs so a group's `2^g` pattern
    /// entries are streamed once per block rather than once per job.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on any shape mismatch.
    pub fn blind_rotate_batch(
        &self,
        jobs: &[PbsJob<'_>],
    ) -> Result<Vec<GlweCiphertext>, TfheError> {
        let mut scratch = self.scratch();
        self.blind_rotate_batch_with(jobs, &mut scratch)
    }

    /// As [`Self::blind_rotate_batch`] with caller-provided scratch.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on any shape mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was sized for a different parameter set or
    /// grouping factor.
    pub fn blind_rotate_batch_with(
        &self,
        jobs: &[PbsJob<'_>],
        scratch: &mut MultiBitPbsScratch,
    ) -> Result<Vec<GlweCiphertext>, TfheError> {
        self.blind_rotate_batch_core(jobs, scratch, &mut NoProbe)
    }

    /// The single implementation behind every grouped blind-rotation
    /// entry point, generic over a [`Probe`] so the profiled and
    /// production paths cannot drift.
    fn blind_rotate_batch_core<P: Probe>(
        &self,
        jobs: &[PbsJob<'_>],
        scratch: &mut MultiBitPbsScratch,
        probe: &mut P,
    ) -> Result<Vec<GlweCiphertext>, TfheError> {
        let log2_two_n = self.poly_size.trailing_zeros() + 1;
        for job in jobs {
            self.check_shape(job.ct, job.lut)?;
        }
        scratch.check_shape(
            self.glwe_dimension,
            self.poly_size,
            self.decomp.level,
            self.grouping_factor,
        );

        // Initial rotation by each body (identical to the classical
        // kernel — only the mask handling differs between kernels).
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

        // Epoch-wide hoisted modulus switch, entry-major exactly like
        // the classical batch path: bit `i`'s switched amounts for the
        // whole batch are one contiguous slice.
        let n_in = self.input_dimension;
        let batch = jobs.len();
        let mut switched = vec![0u32; batch * n_in];
        probe.time(PbsStage::ModSwitch, || {
            for (j, job) in jobs.iter().enumerate() {
                for (i, &a) in job.ct.mask().iter().enumerate() {
                    switched[i * batch + j] = modulus_switch(a, log2_two_n) as u32;
                }
            }
        });

        // Group-major, job-blocked grouped rotation: fetch group `gi`'s
        // pattern entries once per block of jobs.
        for (gi, entries) in self.groups.iter().enumerate() {
            let first_bit = gi * self.grouping_factor;
            let group_bits = entries.len().trailing_zeros() as usize;
            for (bi, accs_block) in accs.chunks_mut(CMUX_JOB_BLOCK).enumerate() {
                self.grouped_cmux_block(
                    entries,
                    first_bit,
                    group_bits,
                    &switched,
                    batch,
                    bi * CMUX_JOB_BLOCK,
                    accs_block,
                    scratch,
                    probe,
                );
            }
        }
        Ok(accs)
    }

    /// One blocked grouped-CMUX step: replaces every active accumulator
    /// of the block with `G_job ⊡ acc`, where `G_job` is the job's
    /// combined GGSW for this group. Four stages:
    ///
    /// 1. **Degrees** — per job, first an all-zero probe of the group's
    ///    digits (a job whose digits are all zero is skipped outright,
    ///    *before* any degree work: `G` would encrypt `X^0 = 1`, the
    ///    exact identity the classical kernel also takes on `ã = 0`),
    ///    then the `2^m` monomial degrees
    ///    `d_b = Σ_{t: b_t=1} ã_t mod 2N` by binary-counting recurrence
    ///    (`d_{b|bit} = d_b + ã_t`). A block with no active job returns
    ///    here.
    /// 2. **Assembly, pattern-major across the block** — seed each
    ///    job's combined spectrum with the pattern-0 entry (its degree
    ///    is always 0: a plane copy), then for every other pattern MAC
    ///    `entry_b × X^{d_b}` into it; the monomial spectrum is built
    ///    once per `(job, pattern)` and reused across all
    ///    `(k+1)·l · (k+1)` transforms. Pattern-major order streams
    ///    each key entry once per block.
    /// 3. **External product staging** — per job: gadget-decompose the
    ///    accumulator polynomials *directly* (no rotate-and-subtract —
    ///    the combined GGSW carries the rotation), one batched forward
    ///    transform, then the job-major VMA against the job's combined
    ///    spectrum (plane pointers hoisted once per job).
    /// 4. **Drain** — one batched inverse transform per job, then one
    ///    packed torus-conversion pass per column **replacing** the
    ///    accumulator (`acc ← G ⊡ acc`, not `acc += …`).
    #[allow(clippy::too_many_arguments)]
    // lint:hot-path-start — the blocked grouped CMUX kernel must stay allocation-free
    fn grouped_cmux_block<P: Probe>(
        &self,
        entries: &[FourierGgsw],
        first_bit: usize,
        group_bits: usize,
        switched: &[u32],
        batch: usize,
        job0: usize,
        accs: &mut [GlweCiphertext],
        scratch: &mut MultiBitPbsScratch,
        probe: &mut P,
    ) {
        debug_assert!(accs.len() <= CMUX_JOB_BLOCK);
        let k = self.glwe_dimension;
        let n = self.poly_size;
        let two_n = 2 * n;
        let level = self.decomp.level;
        let cols = k + 1;
        let rows = cols * level;
        let patterns = 1usize << group_bits;
        let MultiBitPbsScratch {
            decomp_state,
            all_digits,
            digit_batch,
            acc_batch,
            comb_batch,
            mono_re,
            mono_im,
            degrees,
            time_batch,
            ..
        } = scratch;

        // Stage 1: active flags, then monomial degrees for active jobs
        // only. The all-zero probe runs *before* the `2^m` degree
        // recurrence: a job whose group digits are all zero would
        // assemble `G = GGSW(X^0·Σ m_b) = GGSW(1)`, the exact identity
        // the classical kernel also skips on `ã = 0`, so neither the
        // recurrence nor any later stage needs to touch it.
        let mut active = [false; CMUX_JOB_BLOCK];
        let mut any_active = false;
        probe.time(PbsStage::ModSwitch, || {
            for (j, slot) in active.iter_mut().enumerate().take(accs.len()) {
                let digits =
                    (0..group_bits).map(|t| switched[(first_bit + t) * batch + job0 + j] as usize);
                if digits.clone().all(|a| a == 0) {
                    continue;
                }
                *slot = true;
                any_active = true;
                let d = &mut degrees[j * patterns..(j + 1) * patterns];
                d[0] = 0;
                for (t, a) in digits.enumerate() {
                    let bit = 1usize << t;
                    for b in 0..bit {
                        d[bit | b] = (d[b] + a) & (two_n - 1);
                    }
                }
            }
        });
        // A fully idle block (common in sparse-mask workloads) pays for
        // nothing beyond the probe above.
        if !any_active {
            return;
        }

        // Stage 2: assemble each active job's combined GGSW spectrum.
        // Plane base pointers are hoisted out of the transform walk:
        // one `planes()` borrow per `(pattern, job)` and a
        // `chunks_exact` sweep, instead of `rows·cols` bounds-computed
        // `transform()` calls per MAC.
        let half = mono_re.len();
        probe.time(PbsStage::VectorMultiply, || {
            for (j, comb) in comb_batch.iter_mut().enumerate().take(accs.len()) {
                if active[j] {
                    comb.copy_from(entries[0].spectra());
                }
            }
            for (pattern, entry) in entries.iter().enumerate().skip(1) {
                let (e_re_plane, e_im_plane) = entry.spectra().planes();
                for (j, comb) in comb_batch.iter_mut().enumerate().take(accs.len()) {
                    if !active[j] {
                        continue;
                    }
                    self.mono
                        .spectrum_into(degrees[j * patterns + pattern], mono_re, mono_im)
                        // lint:allow(panic) shape invariant established at construction
                        .expect("monomial planes are sized to the fft plan");
                    let (c_re_plane, c_im_plane) = comb.planes_mut();
                    let chunks = c_re_plane
                        .chunks_exact_mut(half)
                        .zip(c_im_plane.chunks_exact_mut(half))
                        .zip(e_re_plane.chunks_exact(half).zip(e_im_plane.chunks_exact(half)));
                    for ((c_re, c_im), (e_re, e_im)) in chunks {
                        self.fft.pointwise_mul_add_soa(c_re, c_im, e_re, e_im, mono_re, mono_im);
                    }
                }
            }
        });

        // Stage 3a: decompose the accumulators directly and transform.
        for (j, acc) in accs.iter().enumerate() {
            if !active[j] {
                continue;
            }
            probe.time(PbsStage::Decompose, || {
                for (p, poly) in acc.polys().enumerate() {
                    self.decomp.decompose_polynomial_levels(
                        poly,
                        &mut all_digits[p * level * n..(p + 1) * level * n],
                        decomp_state,
                    );
                }
            });
            probe.time(PbsStage::Fft, || {
                self.fft
                    .forward_i64_many(all_digits, &mut digit_batch[j])
                    // lint:allow(panic) shape invariant established at construction
                    .expect("digit batch matches the fft plan");
            });
        }

        // Stage 3b: VMA, job-major. Unlike the classical kernel — whose
        // row-major-across-jobs order reuses one shared key row for the
        // whole block — the combined spectrum here is *per job*, so
        // row-major order has nothing to reuse and only re-derives the
        // three spectra's plane pointers every row. Job-major hoists
        // them once per job; per accumulator column the additions still
        // run over `r` in ascending order, so results stay bit-identical
        // to the row-major schedule (the per-job accumulators are
        // disjoint).
        probe.time(PbsStage::VectorMultiply, || {
            for j in 0..accs.len() {
                if !active[j] {
                    continue;
                }
                acc_batch[j].fill_zero();
                let (d_re_plane, d_im_plane) = digit_batch[j].planes();
                let (k_re_plane, k_im_plane) = comb_batch[j].planes();
                let (a_re_plane, a_im_plane) = acc_batch[j].planes_mut();
                for r in 0..rows {
                    let d_re = &d_re_plane[r * half..(r + 1) * half];
                    let d_im = &d_im_plane[r * half..(r + 1) * half];
                    for col in 0..cols {
                        let s = (r * cols + col) * half;
                        let k_re = &k_re_plane[s..s + half];
                        let k_im = &k_im_plane[s..s + half];
                        let a_re = &mut a_re_plane[col * half..(col + 1) * half];
                        let a_im = &mut a_im_plane[col * half..(col + 1) * half];
                        self.fft.pointwise_mul_add_soa(a_re, a_im, d_re, d_im, k_re, k_im);
                    }
                }
            }
        });

        // Stage 4: batched inverse, then a packed torus conversion
        // *replacing* the accumulator.
        for (j, acc) in accs.iter_mut().enumerate() {
            if !active[j] {
                continue;
            }
            probe.time(PbsStage::IfftAccumulate, || {
                self.fft
                    .backward_f64_many(&mut acc_batch[j], time_batch)
                    // lint:allow(panic) shape invariant established at construction
                    .expect("accumulator batch matches the fft plan");
                for (col, time) in time_batch.chunks_exact(n).enumerate() {
                    // lint:allow(panic) shape invariant established at construction
                    let poly = acc.poly_mut(col).expect("column within GLWE dimension");
                    for (o, &v) in poly.coeffs_mut().iter_mut().zip(time) {
                        *o = f64_to_torus(v);
                    }
                }
            });
        }
    }
    // lint:hot-path-end

    /// Batched multi-bit programmable bootstrap: grouped blind rotation
    /// followed by per-job sample extraction, in job order.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on any shape mismatch.
    pub fn bootstrap_batch(&self, jobs: &[PbsJob<'_>]) -> Result<Vec<LweCiphertext>, TfheError> {
        Ok(self.blind_rotate_batch(jobs)?.iter().map(GlweCiphertext::sample_extract).collect())
    }

    /// As [`Self::bootstrap_batch`] with per-stage timing
    /// instrumentation over the production grouped path — the same
    /// kernel the un-instrumented batch runs, observed through a
    /// timing probe (combined-GGSW assembly and the VMA both account
    /// to [`PbsStage::VectorMultiply`]; monomial-degree computation to
    /// [`PbsStage::ModSwitch`]).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on any shape mismatch.
    pub fn bootstrap_batch_profiled(
        &self,
        jobs: &[PbsJob<'_>],
        timings: &mut StageTimings,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        let mut scratch = self.scratch();
        let mut probe = TimingProbe(timings);
        let accs = self.blind_rotate_batch_core(jobs, &mut scratch, &mut probe)?;
        Ok(probe.time(PbsStage::SampleExtract, || {
            accs.iter().map(GlweCiphertext::sample_extract).collect()
        }))
    }

    /// Parallel multi-bit epoch execution: contiguous balanced shards,
    /// one scratch per worker, results in job order — the same
    /// scheduling contract as [`BootstrapKey::bootstrap_batch_parallel`]
    /// and bit-identical to the sequential [`Self::bootstrap_batch`].
    ///
    /// `threads` is clamped to `[1, jobs.len()]`.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if any job's shape
    /// disagrees with the key (validated before any thread spawns).
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

    /// Full multi-bit programmable bootstrap of a single ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn bootstrap(&self, ct: &LweCiphertext, lut: &Lut) -> Result<LweCiphertext, TfheError> {
        Ok(self.blind_rotate(ct, lut)?.sample_extract())
    }
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
        let mut wrong = crate::scratch::PbsScratch::new(
            fx.params.glwe_dimension,
            fx.params.polynomial_size * 2,
            fx.bsk.decomposition(),
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

    #[test]
    fn benchmark_key_has_real_key_shape_and_runs() {
        let params = TfheParameters::testing_fast();
        let bsk = BootstrapKey::generate_for_benchmark(&params);
        assert_eq!(bsk.input_dimension(), params.lwe_dimension);
        assert_eq!(bsk.byte_size(), params.bootstrap_key_bytes());
        // PBS must execute (timing-equivalent arithmetic), whatever the
        // output decrypts to.
        let ct = LweCiphertext::trivial(params.lwe_dimension, encode_bool(true));
        let lut = Lut::sign(params.polynomial_size, encode_fraction(1, 3));
        let out = bsk.bootstrap(&ct, &lut).unwrap();
        assert_eq!(out.dimension(), bsk.output_dimension());
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
        let mut wrong = crate::scratch::MultiBitPbsScratch::new(
            fx.params.glwe_dimension,
            fx.params.polynomial_size,
            mbsk.decomposition(),
            3,
        );
        let _ = mbsk.blind_rotate_with(&ct, &lut, &mut wrong);
    }

    #[test]
    fn multi_bit_benchmark_key_has_real_shape_and_runs() {
        let params = TfheParameters::testing_fast();
        for g in [2usize, 3] {
            let mbsk = MultiBitBootstrapKey::generate_for_benchmark(&params, g);
            assert_eq!(mbsk.byte_size(), params.multi_bit_bootstrap_key_bytes(g), "g={g}");
            let ct = LweCiphertext::trivial(params.lwe_dimension, encode_bool(true));
            let lut = Lut::sign(params.polynomial_size, encode_fraction(1, 3));
            let out = mbsk.bootstrap(&ct, &lut).unwrap();
            assert_eq!(out.dimension(), mbsk.output_dimension());
        }
    }
}
