//! GGSW ciphertexts and the external product.
//!
//! The bootstrapping key is a vector of `n` GGSW ciphertexts, each a
//! `(k+1)·l_b × (k+1)` matrix of degree-`N−1` polynomials (§II-D). The
//! external product `GGSW(s) ⊡ GLWE(μ) ≈ GLWE(s·μ)` is the inner loop of
//! blind rotation (Algorithm 1 lines 7–10): gadget-decompose the GLWE,
//! transform the digit polynomials, multiply–accumulate against the
//! Fourier-domain key rows, and transform back.
//!
//! Two evaluation paths are provided:
//!
//! * [`FourierGgsw::external_product`] — the per-job FFT path
//!   (decomposer → FFT → VMA → IFFT → accumulator, the Strix PBS
//!   cluster's stages) that the classical reference blind rotation
//!   drives and the blocked engine in [`crate::bootstrap`] is pinned to,
//! * [`GgswCiphertext::external_product_exact`] — an exact integer path
//!   used as the correctness oracle in tests.

use strix_fft::{pointwise_mul_add_soa, NegacyclicFft, SoaSpectrum};

use crate::decompose::DecompositionParams;
use crate::glwe::{add_noise, GlweCiphertext, GlweKeyProduct, GlweSecretKey};
use crate::poly::TorusPolynomial;
use crate::rng::NoiseSampler;
use crate::torus::f64_to_torus;

/// A GGSW ciphertext in the standard (time) domain: `(k+1)·l` GLWE rows.
///
/// Row `(j, lvl)` is a GLWE encryption of zero with `m · q/B^{lvl+1}`
/// added to polynomial `j` (the gadget matrix `m·G`).
#[derive(Clone, Debug)]
pub struct GgswCiphertext {
    rows: Vec<GlweCiphertext>,
    decomp: DecompositionParams,
    glwe_dimension: usize,
}

impl GgswCiphertext {
    /// Encrypts a small scalar (in blind rotation: a secret-key bit).
    ///
    /// Row `(j, lvl)` is a GLWE encryption of zero — `k` mask
    /// polynomials, then `N` noise draws — with `m·q/B^{lvl+1}` added to
    /// coefficient 0 of polynomial `j`. A one-off call builds its own
    /// key product; key generation reuses one per key.
    pub fn encrypt_scalar(
        message: u64,
        glwe_sk: &GlweSecretKey,
        decomp: DecompositionParams,
        noise_std: f64,
        rng: &mut NoiseSampler,
    ) -> Self {
        Self::row_by_row(message, glwe_sk, decomp, |keygen, j, gadget| {
            keygen.classical_row(j, gadget, noise_std, rng);
        })
    }

    /// Seeded encryption of a small scalar: every mask polynomial is
    /// drawn from the shared CRS stream `crs`, so only the body
    /// polynomials (one per row) have to ship — a `(k+1)×` transport
    /// compression of the bootstrapping key. Generation writes the
    /// bodies alone ([`GgswKeygen::seeded_bodies_into`]); this form
    /// keeps the masks too, for the tests that decrypt and expand it.
    ///
    /// The gadget term cannot be folded into a CRS mask (the receiver
    /// must regenerate masks from the seed alone), so each row instead
    /// encrypts the gadget's *phase contribution* directly: row
    /// `(j, lvl)` with `j < k` is a GLWE encryption of
    /// `−m·q/B^{lvl+1}·S_j`, and the body row `j = k` encrypts the
    /// constant `m·q/B^{lvl+1}`. Both have exactly the phase of the
    /// classical row (`encrypt_scalar` adds the gadget to polynomial
    /// `j`, which shifts the phase by the same amount), so the external
    /// product is oblivious to which generation path produced the key.
    #[cfg(test)]
    pub(crate) fn encrypt_scalar_seeded(
        message: u64,
        glwe_sk: &GlweSecretKey,
        decomp: DecompositionParams,
        noise_std: f64,
        noise_rng: &mut NoiseSampler,
        crs: &mut NoiseSampler,
    ) -> Self {
        Self::row_by_row(message, glwe_sk, decomp, |keygen, j, gadget| {
            keygen.seeded_row(j, gadget, noise_std, noise_rng, crs);
        })
    }

    /// A one-off GGSW of `message`: `row(keygen, j, gadget)` fills the
    /// keygen's row `(j, lvl)`, whose gadget term is `gadget`, under a
    /// plan and key product built for this call.
    fn row_by_row(
        message: u64,
        glwe_sk: &GlweSecretKey,
        decomp: DecompositionParams,
        mut row: impl FnMut(&mut GgswKeygen<'_>, usize, u64),
    ) -> Self {
        let fft = glwe_sk.one_off_plan();
        let mut keygen = GgswKeygen::new(glwe_sk, &fft);
        let rows = (0..(glwe_sk.dimension() + 1) * decomp.level)
            .map(|r| {
                let gadget = message.wrapping_mul(decomp.gadget_scale(r % decomp.level + 1));
                row(&mut keygen, r / decomp.level, gadget);
                keygen.row_ciphertext()
            })
            .collect();
        Self { rows, decomp, glwe_dimension: glwe_sk.dimension() }
    }

    /// A *trivial* (noiseless, zero-mask) GGSW encryption of `message`:
    /// rows carry only the gadget terms `m·q/B^{lvl+1}`. Useful for
    /// tests and for timing-equivalent benchmark keys — the arithmetic
    /// shape of the external product is identical to a real key's.
    pub fn trivial(
        message: u64,
        glwe_dimension: usize,
        poly_size: usize,
        decomp: DecompositionParams,
    ) -> Self {
        let mut rows = Vec::with_capacity((glwe_dimension + 1) * decomp.level);
        for j in 0..=glwe_dimension {
            for lvl in 1..=decomp.level {
                let mut row = GlweCiphertext::zero(glwe_dimension, poly_size);
                // lint:allow(panic) shape invariant established at construction
                let target = row.poly_mut(j).expect("row index within GLWE dimension");
                target[0] = message.wrapping_mul(decomp.gadget_scale(lvl));
                rows.push(row);
            }
        }
        Self { rows, decomp, glwe_dimension }
    }

    /// The GLWE rows, in `(j, lvl)` row-major order.
    #[inline]
    pub fn rows(&self) -> &[GlweCiphertext] {
        &self.rows
    }

    /// Decomposition parameters used by the gadget.
    #[inline]
    pub fn decomposition(&self) -> DecompositionParams {
        self.decomp
    }

    /// Exact (FFT-free) external product, the test oracle:
    /// `self ⊡ glwe ≈ GLWE(m · phase(glwe))`.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch (oracle-only code path).
    pub fn external_product_exact(&self, glwe: &GlweCiphertext) -> GlweCiphertext {
        let k = self.glwe_dimension;
        assert_eq!(glwe.dimension(), k, "glwe dimension mismatch");
        let n = glwe.poly_size();
        let mut acc = GlweCiphertext::zero(k, n);
        let mut row_idx = 0;
        for poly in glwe.polys() {
            let levels = self.decomp.decompose_polynomial(poly);
            for digits in levels.iter() {
                let row = &self.rows[row_idx];
                for col in 0..=k {
                    let row_poly = if col < k { &row.masks()[col] } else { row.body() };
                    let prod =
                        strix_fft::reference::negacyclic_mul_torus(digits, row_poly.coeffs());
                    // lint:allow(panic) shape invariant established at construction
                    let out = acc.poly_mut(col).expect("column within GLWE dimension");
                    for (o, p) in out.coeffs_mut().iter_mut().zip(&prod) {
                        *o = o.wrapping_add(*p);
                    }
                }
                row_idx += 1;
            }
        }
        acc
    }

    /// Converts to the Fourier domain for use in blind rotation. The
    /// resulting spectra are in `fft`'s digit-reversed slot order —
    /// globally consistent with every other spectrum produced under
    /// the same plan, which is the only way they are ever consumed —
    /// and are stored **split** (structure-of-arrays): one real plane
    /// and one imaginary plane per `(row, column)` polynomial, the
    /// layout the SIMD-friendly VMA kernels stream.
    ///
    /// All `(k+1)·l·(k+1)` polynomials go through one batched
    /// [`NegacyclicFft::forward_i64_many`] call on their signed
    /// coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `fft.poly_size()` differs from the ciphertext's.
    pub fn to_fourier(&self, fft: &NegacyclicFft) -> FourierGgsw {
        let n = fft.poly_size();
        let polys = self.rows.iter().flat_map(GlweCiphertext::polys);
        let coeffs: Vec<i64> = polys
            .flat_map(|poly| {
                assert_eq!(poly.size(), n, "ggsw polynomial size must match the fft plan");
                poly.coeffs().iter().map(|&c| c as i64)
            })
            .collect();
        FourierGgsw::from_coefficients(&coeffs, self.decomp, self.glwe_dimension, fft)
    }
}

/// Per-key state of GGSW key generation: the Fourier-domain key product
/// and one GLWE row (`k` masks, then the body), reused across every row
/// of every entry of one key, so the row loop allocates nothing.
///
/// Each row draws exactly what the time-domain encryption draws, in
/// the same order — its `k·N` mask words, then `N` noise words — and
/// the product is exact, so every key is the one the window-sum
/// product made, bit for bit.
pub(crate) struct GgswKeygen<'a> {
    glwe_sk: &'a GlweSecretKey,
    product: GlweKeyProduct<'a>,
    /// The current row: `k` mask polynomials, then the body.
    row: Vec<u64>,
}

impl<'a> GgswKeygen<'a> {
    /// Transforms `glwe_sk` under `fft` (a plan of the key's `N`, built
    /// with the parameter set's backend) and sizes the row scratch.
    pub(crate) fn new(glwe_sk: &'a GlweSecretKey, fft: &'a NegacyclicFft) -> Self {
        let row = vec![0; (glwe_sk.dimension() + 1) * glwe_sk.poly_size()];
        Self { glwe_sk, product: GlweKeyProduct::new(glwe_sk, fft), row }
    }

    // lint:hot-path-start — the key-generation row loop runs once per GLWE row of every key
    /// Writes GGSW(`message`)'s signed coefficients — the
    /// [`GgswCiphertext::encrypt_scalar`] rows, row-major then column —
    /// into `coeffs`, resized to `(k+1)·l·(k+1)·N` words: the input of
    /// one batched transform, bit-identical to what
    /// [`GgswCiphertext::to_fourier`] transforms for that ciphertext.
    pub(crate) fn encrypt_scalar_into(
        &mut self,
        message: u64,
        decomp: DecompositionParams,
        noise_std: f64,
        rng: &mut NoiseSampler,
        coeffs: &mut Vec<i64>,
    ) {
        let row_len = self.row.len();
        coeffs.resize((self.glwe_sk.dimension() + 1) * decomp.level * row_len, 0);
        for (r, slot) in coeffs.chunks_exact_mut(row_len).enumerate() {
            let gadget = message.wrapping_mul(decomp.gadget_scale(r % decomp.level + 1));
            self.classical_row(r / decomp.level, gadget, noise_std, rng);
            for (s, &c) in slot.iter_mut().zip(&self.row) {
                *s = c as i64;
            }
        }
    }

    /// Writes the body polynomials of seeded GGSW(`message`) — the
    /// bodies of the rows `GgswCiphertext::encrypt_scalar_seeded`
    /// builds, row after row — into `bodies`; the masks are drawn from
    /// `crs` and dropped.
    ///
    /// # Panics
    ///
    /// Panics unless `bodies` holds `(k+1)·l·N` words.
    pub(crate) fn seeded_bodies_into(
        &mut self,
        message: u64,
        decomp: DecompositionParams,
        noise_std: f64,
        noise_rng: &mut NoiseSampler,
        crs: &mut NoiseSampler,
        bodies: &mut [u64],
    ) {
        let (k, n) = (self.glwe_sk.dimension(), self.glwe_sk.poly_size());
        assert_eq!(bodies.len(), (k + 1) * decomp.level * n, "seeded ggsw body words");
        for (r, out) in bodies.chunks_exact_mut(n).enumerate() {
            let gadget = message.wrapping_mul(decomp.gadget_scale(r % decomp.level + 1));
            self.seeded_row(r / decomp.level, gadget, noise_std, noise_rng, crs);
            out.copy_from_slice(&self.row[k * n..]);
        }
    }

    /// Row `(j, ·)` of a classical GGSW whose gadget term is `gadget`:
    /// masks and noise from `rng`, then the gadget added to
    /// coefficient 0 of polynomial `j`.
    fn classical_row(&mut self, j: usize, gadget: u64, noise_std: f64, rng: &mut NoiseSampler) {
        let kn = self.glwe_sk.dimension() * self.glwe_sk.poly_size();
        let (masks, body) = self.row.split_at_mut(kn);
        rng.fill_uniform(masks);
        body.fill(0);
        self.encrypt_body(noise_std, rng);
        let target = j * self.glwe_sk.poly_size();
        self.row[target] = self.row[target].wrapping_add(gadget);
    }

    /// Row `(j, ·)` of a seeded GGSW whose gadget term is `gadget`:
    /// masks from `crs`, the body encrypting the gadget's phase
    /// contribution (`−gadget·S_j`, or the constant `gadget` at `j = k`)
    /// with noise from `noise_rng`.
    fn seeded_row(
        &mut self,
        j: usize,
        gadget: u64,
        noise_std: f64,
        noise_rng: &mut NoiseSampler,
        crs: &mut NoiseSampler,
    ) {
        let kn = self.glwe_sk.dimension() * self.glwe_sk.poly_size();
        let (masks, body) = self.row.split_at_mut(kn);
        crs.fill_uniform(masks);
        match self.glwe_sk.polys().get(j) {
            Some(key) => {
                for (b, &s) in body.iter_mut().zip(key.coeffs()) {
                    *b = gadget.wrapping_mul(s).wrapping_neg();
                }
            }
            None => {
                body.fill(0);
                body[0] = gadget;
            }
        }
        self.encrypt_body(noise_std, noise_rng);
    }

    /// Adds noise from `rng` and the key product of the row's masks to
    /// the row's body (which holds the message).
    fn encrypt_body(&mut self, noise_std: f64, rng: &mut NoiseSampler) {
        let n = self.glwe_sk.poly_size();
        let (masks, body) = self.row.split_at_mut(self.glwe_sk.dimension() * n);
        add_noise(body, noise_std, rng);
        self.product.add_product(masks.chunks_exact(n), body, false);
    }
    // lint:hot-path-end

    /// The current row as a ciphertext (one-off encryptions only).
    fn row_ciphertext(&self) -> GlweCiphertext {
        let n = self.glwe_sk.poly_size();
        let (masks, body) = self.row.split_at(self.glwe_sk.dimension() * n);
        let masks = masks.chunks_exact(n).map(|m| TorusPolynomial::from_coeffs(m.to_vec()));
        GlweCiphertext::from_parts(masks.collect(), TorusPolynomial::from_coeffs(body.to_vec()))
    }
}

/// A GGSW ciphertext with every polynomial stored in the Fourier domain
/// (`N/2` complex points per polynomial) — the format in which Strix
/// streams bootstrapping keys from HBM, and in which Concrete stores
/// them in memory.
///
/// Spectra follow the transform plan's **bit-reversed (digit-reversed)
/// slot order**: [`GgswCiphertext::to_fourier`] produces them under
/// the same [`NegacyclicFft`] plan that later transforms the
/// decomposed digits, so the VMA's pointwise multiply lines up slot
/// for slot and no spectrum is ever reordered. A `FourierGgsw` is only
/// meaningful together with the plan that created it.
///
/// Storage is **split-complex** ([`SoaSpectrum`]): all `(k+1)·l·(k+1)`
/// polynomials live in two contiguous `f64` planes (real, imaginary),
/// row-major then column. This is the layout the four-array VMA of
/// both the blocked CMUX and the per-job
/// [`FourierGgsw::external_product`] streams directly.
#[derive(Clone, Debug)]
pub struct FourierGgsw {
    /// Transform `row·(k+1) + col` holds the spectrum of row `row`
    /// (row-major `(j, lvl)` order), column `col`.
    spectra: SoaSpectrum,
    decomp: DecompositionParams,
    glwe_dimension: usize,
}

impl FourierGgsw {
    /// Transforms the packed signed coefficients of `(k+1)·l·(k+1)`
    /// polynomials (row-major, then column) in one batched call.
    pub(crate) fn from_coefficients(
        coeffs: &[i64],
        decomp: DecompositionParams,
        glwe_dimension: usize,
        fft: &NegacyclicFft,
    ) -> Self {
        let mut spectra = SoaSpectrum::new(coeffs.len() / fft.poly_size(), fft.fourier_size());
        fft.forward_i64_many(coeffs, &mut spectra)
            // lint:allow(panic) the coefficient buffer is sized from the same plan
            .expect("ggsw coefficients must match the fft plan");
        Self { spectra, decomp, glwe_dimension }
    }

    /// Expansion half of seeded transport, straight to the Fourier
    /// domain: regenerates the CRS masks in the draw order of
    /// [`GgswCiphertext::encrypt_scalar_seeded`], writes them and the
    /// stored bodies as signed coefficients into `coeffs` — sized to
    /// `(k+1)·l·(k+1)·N` words on first use and reused across every
    /// entry of a key — and transforms the entry in one batched call.
    /// Bit-identical to rebuilding the time-domain GGSW and calling
    /// [`GgswCiphertext::to_fourier`].
    ///
    /// `bodies` holds the entry's `(k+1)·l` body polynomials back to
    /// back, row-major, `N` coefficients each.
    ///
    /// # Panics
    ///
    /// Panics if `bodies` does not hold `(k+1)·l·N` words at the plan's
    /// `N` (transport payload invariant).
    pub(crate) fn from_seeded_parts(
        bodies: &[u64],
        decomp: DecompositionParams,
        glwe_dimension: usize,
        crs: &mut NoiseSampler,
        fft: &NegacyclicFft,
        coeffs: &mut Vec<i64>,
    ) -> Self {
        Self::seeded_coefficients_into(
            bodies,
            decomp,
            glwe_dimension,
            crs,
            fft.poly_size(),
            coeffs,
        );
        Self::from_coefficients(coeffs, decomp, glwe_dimension, fft)
    }

    /// The coefficient half of [`Self::from_seeded_parts`]: regenerates
    /// the CRS masks and writes them and the stored bodies as signed
    /// words into `coeffs`, ready for one batched transform.
    ///
    /// # Panics
    ///
    /// Panics if `bodies` does not hold `(k+1)·l` rows of `n`
    /// coefficients (transport payload invariant).
    pub(crate) fn seeded_coefficients_into(
        bodies: &[u64],
        decomp: DecompositionParams,
        glwe_dimension: usize,
        crs: &mut NoiseSampler,
        n: usize,
        coeffs: &mut Vec<i64>,
    ) {
        let rows = (glwe_dimension + 1) * decomp.level;
        let row_len = (glwe_dimension + 1) * n;
        assert_eq!(bodies.len(), rows * n, "seeded ggsw body words");
        coeffs.resize(rows * row_len, 0);
        // lint:hot-path-start — per-GGSW seeded expansion must stay allocation-free
        for (row, body) in coeffs.chunks_exact_mut(row_len).zip(bodies.chunks_exact(n)) {
            let (masks, body_slot) = row.split_at_mut(glwe_dimension * n);
            for m in masks {
                *m = crs.uniform_torus() as i64;
            }
            for (s, &c) in body_slot.iter_mut().zip(body) {
                *s = c as i64;
            }
        }
        // lint:hot-path-end
    }

    /// Decomposition parameters used by the gadget.
    #[inline]
    pub fn decomposition(&self) -> DecompositionParams {
        self.decomp
    }

    /// Number of GLWE rows (`(k+1)·l`).
    #[inline]
    pub fn row_count(&self) -> usize {
        self.spectra.count() / (self.glwe_dimension + 1)
    }

    /// The split `(re, im)` planes of the `(row, col)` polynomial's
    /// spectrum — the unit of key streaming in the CMUX VMA loops.
    ///
    /// # Panics
    ///
    /// Panics if `row`/`col` are out of range.
    #[inline]
    pub(crate) fn row_col(&self, row: usize, col: usize) -> (&[f64], &[f64]) {
        assert!(col <= self.glwe_dimension, "ggsw column out of range");
        self.spectra.transform(row * (self.glwe_dimension + 1) + col)
    }

    /// The full split-complex batch of this entry's spectra
    /// (`(k+1)·l·(k+1)` transforms, row-major then column) — what the
    /// multi-bit key builders scatter into their slot-tile-major layout.
    #[inline]
    pub(crate) fn spectra(&self) -> &SoaSpectrum {
        &self.spectra
    }

    /// Number of bytes this key entry occupies (the per-iteration HBM
    /// traffic of one blind-rotation step).
    pub fn byte_size(&self) -> usize {
        self.spectra.byte_size()
    }

    /// External product via the FFT: `self ⊡ glwe ≈ GLWE(m · phase(glwe))`,
    /// one job on buffers it allocates — the per-job form the classical
    /// reference blind rotation drives. The blocked engine re-schedules
    /// the same arithmetic across jobs and is pinned to this one bit
    /// for bit:
    ///
    /// 1. each GLWE polynomial is decomposed into its `l` digit levels;
    /// 2. one [`NegacyclicFft::forward_i64_many`] transforms all
    ///    `(k+1)·l` digit polynomials;
    /// 3. the split VMA ([`pointwise_mul_add_soa`]) accumulates row by
    ///    row, each row into every column's spectrum;
    /// 4. one [`NegacyclicFft::backward_f64_many`] brings the `k+1`
    ///    accumulators back, rounded onto the torus.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch (the bootstrap key constructor
    /// guarantees compatibility).
    pub fn external_product(&self, glwe: &GlweCiphertext, fft: &NegacyclicFft) -> GlweCiphertext {
        let k = self.glwe_dimension;
        assert_eq!(glwe.dimension(), k, "glwe dimension mismatch");
        let n = glwe.poly_size();
        assert_eq!(fft.poly_size(), n, "fft plan size mismatch");
        let (level, half) = (self.decomp.level, fft.fourier_size());

        let mut state = vec![0u64; n];
        let mut digits = vec![0i64; (k + 1) * level * n];
        for (poly, levels) in glwe.polys().zip(digits.chunks_exact_mut(level * n)) {
            self.decomp.decompose_polynomial_levels(poly, levels, &mut state);
        }
        let mut digit_spectra = SoaSpectrum::new((k + 1) * level, half);
        fft.forward_i64_many(&digits, &mut digit_spectra)
            // lint:allow(panic) shape invariant asserted above
            .expect("digit batch matches fft plan");

        let mut acc = SoaSpectrum::new(k + 1, half);
        for row in 0..self.row_count() {
            let (d_re, d_im) = digit_spectra.transform(row);
            for col in 0..=k {
                let (k_re, k_im) = self.row_col(row, col);
                let (a_re, a_im) = acc.transform_mut(col);
                pointwise_mul_add_soa(a_re, a_im, d_re, d_im, k_re, k_im);
            }
        }

        let mut time = vec![0.0f64; (k + 1) * n];
        fft.backward_f64_many(&mut acc, &mut time)
            // lint:allow(panic) shape invariant asserted above
            .expect("accumulator batch matches fft plan");
        let mut out = GlweCiphertext::zero(k, n);
        for (col, values) in time.chunks_exact(n).enumerate() {
            // lint:allow(panic) k+1 columns by construction
            let poly = out.poly_mut(col).expect("column within GLWE dimension");
            for (o, &v) in poly.coeffs_mut().iter_mut().zip(values) {
                *o = f64_to_torus(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::{decode_message, encode_fraction};

    const STD: f64 = 1.0e-12;

    struct Fixture {
        glwe_sk: GlweSecretKey,
        rng: NoiseSampler,
        fft: NegacyclicFft,
        decomp: DecompositionParams,
        k: usize,
        n: usize,
    }

    fn fixture(k: usize, n: usize) -> Fixture {
        let mut rng = NoiseSampler::from_seed(99);
        let glwe_sk = GlweSecretKey::generate(k, n, &mut rng);
        let fft = NegacyclicFft::new(n).unwrap();
        let decomp = DecompositionParams::new(10, 3);
        Fixture { glwe_sk, rng, fft, decomp, k, n }
    }

    fn test_message(n: usize) -> TorusPolynomial {
        TorusPolynomial::from_coeffs((0..n).map(|j| encode_fraction((j % 8) as i64, 4)).collect())
    }

    #[test]
    fn external_product_by_one_preserves_message() {
        let mut fx = fixture(1, 64);
        let ggsw = GgswCiphertext::encrypt_scalar(1, &fx.glwe_sk, fx.decomp, STD, &mut fx.rng);
        let msg = test_message(fx.n);
        let ct = fx.glwe_sk.encrypt(&msg, STD, &mut fx.rng);
        let fourier = ggsw.to_fourier(&fx.fft);
        let prod = fourier.external_product(&ct, &fx.fft);
        let phase = fx.glwe_sk.decrypt_phase(&prod).unwrap();
        for (p, m) in phase.coeffs().iter().zip(msg.coeffs()) {
            assert_eq!(decode_message(*p, 4), decode_message(*m, 4));
        }
    }

    #[test]
    fn external_product_by_zero_kills_message() {
        let mut fx = fixture(1, 64);
        let ggsw = GgswCiphertext::encrypt_scalar(0, &fx.glwe_sk, fx.decomp, STD, &mut fx.rng);
        let msg = test_message(fx.n);
        let ct = fx.glwe_sk.encrypt(&msg, STD, &mut fx.rng);
        let fourier = ggsw.to_fourier(&fx.fft);
        let prod = fourier.external_product(&ct, &fx.fft);
        let phase = fx.glwe_sk.decrypt_phase(&prod).unwrap();
        for p in phase.coeffs() {
            assert_eq!(decode_message(*p, 4), 0);
        }
    }

    #[test]
    fn fourier_path_matches_exact_path() {
        let mut fx = fixture(2, 32);
        let ggsw = GgswCiphertext::encrypt_scalar(1, &fx.glwe_sk, fx.decomp, STD, &mut fx.rng);
        let msg = test_message(fx.n);
        let ct = fx.glwe_sk.encrypt(&msg, STD, &mut fx.rng);
        let exact = ggsw.external_product_exact(&ct);
        let fourier = ggsw.to_fourier(&fx.fft).external_product(&ct, &fx.fft);
        // The two paths agree up to FFT rounding noise, far below the
        // decoding threshold used here.
        let pe = fx.glwe_sk.decrypt_phase(&exact).unwrap();
        let pf = fx.glwe_sk.decrypt_phase(&fourier).unwrap();
        for (a, b) in pe.coeffs().iter().zip(pf.coeffs()) {
            assert_eq!(decode_message(*a, 4), decode_message(*b, 4));
        }
    }

    #[test]
    fn seeded_ggsw_matches_classical_semantics() {
        // A seeded GGSW row encrypts the gadget's phase contribution
        // instead of folding the gadget into a mask; the external
        // product must be unable to tell the difference.
        for (k, n) in [(1usize, 64usize), (2, 32)] {
            let mut fx = fixture(k, n);
            for message in [0u64, 1] {
                let mut crs = NoiseSampler::from_seed(4242);
                let ggsw = GgswCiphertext::encrypt_scalar_seeded(
                    message,
                    &fx.glwe_sk,
                    fx.decomp,
                    STD,
                    &mut fx.rng,
                    &mut crs,
                );
                let msg = test_message(fx.n);
                let ct = fx.glwe_sk.encrypt(&msg, STD, &mut fx.rng);
                let prod = ggsw.external_product_exact(&ct);
                let phase = fx.glwe_sk.decrypt_phase(&prod).unwrap();
                for (p, m) in phase.coeffs().iter().zip(msg.coeffs()) {
                    let want = if message == 1 { decode_message(*m, 4) } else { 0 };
                    assert_eq!(decode_message(*p, 4), want, "k={k} n={n} m={message}");
                }
            }
        }
    }

    #[test]
    fn seeded_ggsw_expansion_is_bit_identical() {
        let mut fx = fixture(2, 32);
        let mut crs = NoiseSampler::from_seed(7);
        let ggsw = GgswCiphertext::encrypt_scalar_seeded(
            1,
            &fx.glwe_sk,
            fx.decomp,
            STD,
            &mut fx.rng,
            &mut crs,
        );
        // Transport payload: the bodies only, row after row.
        let bodies: Vec<u64> =
            ggsw.rows().iter().flat_map(|r| r.body().coeffs().iter().copied()).collect();
        let mut crs2 = NoiseSampler::from_seed(7);
        // Stale buffer contents must not leak into the expanded entry.
        let mut coeffs = vec![-1i64; bodies.len() * 3];
        let expanded =
            FourierGgsw::from_seeded_parts(&bodies, fx.decomp, 2, &mut crs2, &fx.fft, &mut coeffs);
        let bits = |g: &FourierGgsw| {
            let (re, im) = g.spectra().planes();
            re.iter().chain(im).map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&expanded), bits(&ggsw.to_fourier(&fx.fft)));
    }

    #[test]
    fn external_product_is_linear_in_the_glwe() {
        // GGSW(1) ⊡ (c1 + c2) ≈ GGSW(1)⊡c1 + GGSW(1)⊡c2 (up to noise).
        let mut fx = fixture(1, 64);
        let ggsw = GgswCiphertext::encrypt_scalar(1, &fx.glwe_sk, fx.decomp, STD, &mut fx.rng)
            .to_fourier(&fx.fft);
        let m1 = TorusPolynomial::constant(fx.n, encode_fraction(1, 4));
        let m2 = TorusPolynomial::constant(fx.n, encode_fraction(2, 4));
        let c1 = fx.glwe_sk.encrypt(&m1, STD, &mut fx.rng);
        let c2 = fx.glwe_sk.encrypt(&m2, STD, &mut fx.rng);
        let mut sum = c1.clone();
        sum.add_assign(&c2).unwrap();
        let p_sum = ggsw.external_product(&sum, &fx.fft);
        let phase = fx.glwe_sk.decrypt_phase(&p_sum).unwrap();
        assert_eq!(decode_message(phase[0], 4), 3);
    }

    #[test]
    fn ggsw_row_count_and_fourier_size() {
        let mut fx = fixture(1, 64);
        let ggsw = GgswCiphertext::encrypt_scalar(1, &fx.glwe_sk, fx.decomp, STD, &mut fx.rng);
        assert_eq!(ggsw.rows().len(), (fx.k + 1) * fx.decomp.level);
        let fourier = ggsw.to_fourier(&fx.fft);
        // (k+1)l rows × (k+1) cols × N/2 points × 16 bytes
        assert_eq!(
            fourier.byte_size(),
            (fx.k + 1) * fx.decomp.level * (fx.k + 1) * (fx.n / 2) * 16
        );
    }

    #[test]
    fn trivial_ggsw_acts_like_noiseless_encryption() {
        // Trivial GGSW(1) ⊡ ct must preserve the message exactly like
        // an encrypted GGSW(1), with zero key noise.
        let mut fx = fixture(1, 64);
        let trivial = GgswCiphertext::trivial(1, 1, 64, fx.decomp).to_fourier(&fx.fft);
        let msg = test_message(fx.n);
        let ct = fx.glwe_sk.encrypt(&msg, STD, &mut fx.rng);
        let prod = trivial.external_product(&ct, &fx.fft);
        let phase = fx.glwe_sk.decrypt_phase(&prod).unwrap();
        for (p, m) in phase.coeffs().iter().zip(msg.coeffs()) {
            assert_eq!(decode_message(*p, 4), decode_message(*m, 4));
        }
    }
}
