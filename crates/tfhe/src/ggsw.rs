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

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use strix_fft::{pointwise_mul_add_soa, NegacyclicFft, SoaSpectrum};

use crate::decompose::DecompositionParams;
use crate::glwe::{GlweCiphertext, GlweKeyProduct, GlweSecretKey};
use crate::poly::TorusPolynomial;
use crate::rng::NoiseSampler;
use crate::torus::f64_to_torus;

/// A GGSW ciphertext in the standard (time) domain: `(k+1)·l` GLWE rows.
///
/// Row `(j, lvl)` has the phase of a GLWE encryption of zero with
/// `m · q/B^{lvl+1}` added to polynomial `j` (the gadget matrix `m·G`).
#[derive(Clone, Debug)]
pub struct GgswCiphertext {
    rows: Vec<GlweCiphertext>,
    decomp: DecompositionParams,
    glwe_dimension: usize,
}

impl GgswCiphertext {
    /// Encrypts a small scalar (in blind rotation: a secret-key bit).
    ///
    /// Every row draws its `k` mask polynomials from `masks` — a public
    /// stream, so a receiver holding its seed regenerates them — and
    /// then `N` noise words from `noise`. The gadget term cannot ride in
    /// a mask the receiver regenerates, so each row carries its phase
    /// contribution in the body instead: row `(j, lvl)` with `j < k`
    /// encrypts `−m·q/B^{lvl+1}·S_j`, and the body row `j = k` the
    /// constant `m·q/B^{lvl+1}`. Both have the phase of the gadget added
    /// to polynomial `j`, which is all the external product reads. This
    /// one-off form draws and encrypts on the calling thread under a key
    /// product of its own; key generation runs the same rows on two
    /// threads ([`GgswKeygen`]).
    pub fn encrypt_scalar(
        message: u64,
        glwe_sk: &GlweSecretKey,
        decomp: DecompositionParams,
        noise_std: f64,
        noise: &mut NoiseSampler,
        masks: &mut NoiseSampler,
    ) -> Self {
        let fft = glwe_sk.one_off_plan();
        let mut keygen = GgswKeygen::new(glwe_sk, &fft, decomp, noise_std);
        let mut words = vec![0; keygen.entry_words()];
        keygen.encrypt_inline(message, &mut KeySamplers { noise, crs: masks }, &mut words);
        let (k, n) = (glwe_sk.dimension(), glwe_sk.poly_size());
        let rows = words
            .chunks_exact((k + 1) * n)
            .map(|row| {
                let (masks, body) = row.split_at(k * n);
                let masks = masks.chunks_exact(n).map(|m| TorusPolynomial::from_coeffs(m.to_vec()));
                GlweCiphertext::from_parts(
                    masks.collect(),
                    TorusPolynomial::from_coeffs(body.to_vec()),
                )
            })
            .collect();
        Self { rows, decomp, glwe_dimension: k }
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

/// The samplers one key's draws come from: the client's stream for the
/// noise, and a common-reference stream for the masks, which whoever
/// holds its seed regenerates.
pub(crate) struct KeySamplers<'r> {
    /// The client's stream: every noise word.
    pub(crate) noise: &'r mut NoiseSampler,
    /// The common-reference stream: every mask word.
    pub(crate) crs: &'r mut NoiseSampler,
}

/// The draw stage's view of a key entry: its rows and their split.
#[derive(Clone, Copy, Debug)]
struct DrawShape {
    /// Mask words per row (`k·N`).
    mask_words: usize,
    /// Noise words per row (`N`).
    n: usize,
    noise_std: f64,
}

impl DrawShape {
    // lint:hot-path-start — the draw stage runs once per GLWE row of every key
    /// Fills `draws`, whole rows of `k·N + N` words, with what each row
    /// draws, in stream order: its `k·N` mask words from the CRS stream,
    /// then `N` noise words from the client's stream.
    fn fill(self, draws: &mut [u64], samplers: &mut KeySamplers<'_>) {
        for row in draws.chunks_exact_mut(self.mask_words + self.n) {
            let (masks, noise) = row.split_at_mut(self.mask_words);
            samplers.crs.fill_uniform(masks);
            for e in noise {
                *e = samplers.noise.gaussian_torus(self.noise_std);
            }
        }
    }
    // lint:hot-path-end
}

/// Per-key state of GGSW key generation: the Fourier-domain key product,
/// built once per key and reused across every row of every entry.
///
/// Generation runs in two stages ([`Self::generate`]): a helper thread
/// draws each entry's masks and noise in stream order
/// ([`KeySamplers`]), while the calling thread turns the draws into
/// rows — key product and gadget term added to each row's noise — and
/// hands each finished entry on. The keys are the ones a single thread
/// draws and encrypts in turn ([`Self::encrypt_inline`]), bit for bit:
/// each sampler makes the same calls in the same order, including a
/// Box–Muller spare cached by an earlier encryption, and the product
/// is exact, so adding noise and product to a body in either order
/// gives the same word mod 2⁶⁴.
pub(crate) struct GgswKeygen<'a> {
    glwe_sk: &'a GlweSecretKey,
    product: GlweKeyProduct<'a>,
    decomp: DecompositionParams,
    shape: DrawShape,
}

impl<'a> GgswKeygen<'a> {
    /// Transforms `glwe_sk` under `fft` (a plan of the key's `N`, built
    /// with the parameter set's backend) for GGSW entries of gadget
    /// `decomp` and noise `noise_std`.
    pub(crate) fn new(
        glwe_sk: &'a GlweSecretKey,
        fft: &'a NegacyclicFft,
        decomp: DecompositionParams,
        noise_std: f64,
    ) -> Self {
        let n = glwe_sk.poly_size();
        let shape = DrawShape { mask_words: glwe_sk.dimension() * n, n, noise_std };
        Self { glwe_sk, product: GlweKeyProduct::new(glwe_sk, fft), decomp, shape }
    }

    /// Words of one entry, drawn or encrypted: `(k+1)·l` rows of `k`
    /// mask polynomials, then the body.
    pub(crate) fn entry_words(&self) -> usize {
        let row_words = self.shape.mask_words + self.shape.n;
        (self.glwe_sk.dimension() + 1) * self.decomp.level * row_words
    }

    /// Runs key generation's two stages over one entry per plaintext: a
    /// scoped helper thread fills each entry's draws from `samplers`,
    /// while `consume`, on the calling thread, takes the entries in
    /// order through [`KeyEntries`], entry `i` encrypting
    /// `plaintexts[i]`. Two entry buffers, allocated here, cycle between
    /// the threads; a closed channel ends the helper, and the scope
    /// re-raises a panic from either side.
    pub(crate) fn generate<R>(
        &mut self,
        mut samplers: KeySamplers<'_>,
        plaintexts: &[u64],
        consume: impl FnOnce(&mut KeyEntries<'_, 'a>) -> R,
    ) -> R {
        let (shape, entries) = (self.shape, plaintexts.len());
        let buffers = [vec![0; self.entry_words()], vec![0; self.entry_words()]];
        std::thread::scope(|scope| {
            let (full_tx, full) = sync_channel(buffers.len());
            let (empty, empty_rx) = sync_channel::<Vec<u64>>(buffers.len());
            scope.spawn(move || {
                let recycled = std::iter::from_fn(|| empty_rx.recv().ok());
                for mut draws in buffers.into_iter().chain(recycled).take(entries) {
                    shape.fill(&mut draws, &mut samplers);
                    if full_tx.send(draws).is_err() {
                        return;
                    }
                }
            });
            consume(&mut KeyEntries { keygen: self, plaintexts: plaintexts.iter(), full, empty })
        })
    }

    /// One entry drawn and encrypted as GGSW(`message`) on the calling
    /// thread, into `words` ([`Self::entry_words`] long): the one-off
    /// form of what [`Self::generate`] splits across two threads.
    pub(crate) fn encrypt_inline(
        &mut self,
        message: u64,
        samplers: &mut KeySamplers<'_>,
        words: &mut [u64],
    ) {
        self.shape.fill(words, samplers);
        self.encrypt(message, words);
    }

    // lint:hot-path-start — the key-generation row loop runs once per GLWE row of every key
    /// Turns one entry's draws into GGSW(`message`) in place, row by
    /// row: row `(j, lvl)`'s body — its noise words — gains the gadget
    /// term's phase contribution (`−m·q/B^{lvl+1}·S_j`, or the constant
    /// `m·q/B^{lvl+1}` at `j = k`) and the key product of its public
    /// masks, which stay as drawn.
    fn encrypt(&mut self, message: u64, entry: &mut [u64]) {
        let DrawShape { mask_words, n, .. } = self.shape;
        let level = self.decomp.level;
        for (r, row) in entry.chunks_exact_mut(mask_words + n).enumerate() {
            let (j, gadget) =
                (r / level, message.wrapping_mul(self.decomp.gadget_scale(r % level + 1)));
            let (masks, body) = row.split_at_mut(mask_words);
            match self.glwe_sk.polys().get(j) {
                Some(key) => {
                    for (b, &s) in body.iter_mut().zip(key.coeffs()) {
                        *b = b.wrapping_sub(gadget.wrapping_mul(s));
                    }
                }
                None => body[0] = body[0].wrapping_add(gadget),
            }
            self.product.add_product(masks.chunks_exact(n), body, false);
        }
    }
    // lint:hot-path-end
}

/// The calling thread's end of [`GgswKeygen::generate`]: the entries
/// the helper draws, taken in stream order, each with its plaintext.
pub(crate) struct KeyEntries<'k, 'a> {
    keygen: &'k mut GgswKeygen<'a>,
    plaintexts: std::slice::Iter<'k, u64>,
    full: Receiver<Vec<u64>>,
    empty: SyncSender<Vec<u64>>,
}

impl KeyEntries<'_, '_> {
    /// Encrypts the next entry and writes its signed coefficients — row
    /// by row, masks then body — into `coeffs`, resized to
    /// `(k+1)·l·(k+1)·N` words: the input of one batched transform,
    /// what [`FourierGgsw::seeded_coefficients_into`] rebuilds from the
    /// entry's bodies and mask stream.
    pub(crate) fn next_coefficients(&mut self, coeffs: &mut Vec<i64>) {
        self.next(|entry| {
            coeffs.resize(entry.len(), 0);
            for (c, &w) in coeffs.iter_mut().zip(entry) {
                *c = w as i64;
            }
        });
    }

    /// Encrypts the next entry and writes its body polynomials, row
    /// after row, into `bodies`; the CRS masks are dropped.
    ///
    /// # Panics
    ///
    /// Panics unless `bodies` holds `(k+1)·l·N` words.
    pub(crate) fn next_bodies(&mut self, bodies: &mut [u64]) {
        let DrawShape { mask_words, n, .. } = self.keygen.shape;
        let entry_words = self.keygen.entry_words();
        assert_eq!(bodies.len() * (mask_words + n), entry_words * n, "seeded ggsw body words");
        self.next(|entry| {
            for (out, row) in bodies.chunks_exact_mut(n).zip(entry.chunks_exact(mask_words + n)) {
                out.copy_from_slice(&row[mask_words..]);
            }
        });
    }

    /// Takes the next entry's draws from the helper, encrypts them as
    /// GGSW of the next plaintext, lets `sink` read the entry and hands
    /// the buffer back for the helper to refill.
    fn next(&mut self, sink: impl FnOnce(&[u64])) {
        let drawn = self.plaintexts.next().zip(self.full.recv().ok());
        // lint:allow(panic) the helper draws one entry per plaintext unless it panicked, which the scope re-raises
        let (&message, mut entry) = drawn.expect("the key draw helper stopped early");
        self.keygen.encrypt(message, &mut entry);
        sink(&entry);
        // After the last entry the helper has returned and the buffer
        // is dropped here; before it, the channel has room for both.
        let _ = self.empty.send(entry);
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

    /// Expansion's feed of a key builder: regenerates one entry's CRS
    /// masks in the order key generation drew them, and writes them and
    /// the stored bodies as signed words into `coeffs` — sized to
    /// `(k+1)·l·(k+1)·N` words on first use and reused across every
    /// entry of a key — ready for one batched transform. The words are
    /// the ones [`KeyEntries::next_coefficients`] wrote for the entry
    /// at generation.
    ///
    /// `bodies` holds the entry's `(k+1)·l` body polynomials back to
    /// back, row-major, `N` coefficients each.
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
        crs: NoiseSampler,
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
        Fixture { glwe_sk, rng, crs: NoiseSampler::from_seed(4242), fft, decomp, k, n }
    }

    impl Fixture {
        /// GGSW(`message`), masks from the fixture's CRS stream.
        fn ggsw(&mut self, message: u64) -> GgswCiphertext {
            let (noise, crs) = (&mut self.rng, &mut self.crs);
            GgswCiphertext::encrypt_scalar(message, &self.glwe_sk, self.decomp, STD, noise, crs)
        }
    }

    fn test_message(n: usize) -> TorusPolynomial {
        TorusPolynomial::from_coeffs((0..n).map(|j| encode_fraction((j % 8) as i64, 4)).collect())
    }

    #[test]
    fn external_product_by_one_preserves_message() {
        let mut fx = fixture(1, 64);
        let ggsw = fx.ggsw(1);
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
        let ggsw = fx.ggsw(0);
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
        let ggsw = fx.ggsw(1);
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
        // A row encrypts the gadget's phase contribution instead of
        // adding the gadget to a mask; the external product must decrypt
        // as if the gadget sat in polynomial j.
        for (k, n) in [(1usize, 64usize), (2, 32)] {
            let mut fx = fixture(k, n);
            for message in [0u64, 1] {
                let ggsw = fx.ggsw(message);
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
        let ggsw = fx.ggsw(1);
        // Transport payload: the bodies only, row after row.
        let bodies: Vec<u64> =
            ggsw.rows().iter().flat_map(|r| r.body().coeffs().iter().copied()).collect();
        let mut crs2 = NoiseSampler::from_seed(4242);
        // Stale buffer contents must not leak into the expanded entry.
        let mut coeffs = vec![-1i64; bodies.len() * 3];
        FourierGgsw::seeded_coefficients_into(&bodies, fx.decomp, 2, &mut crs2, fx.n, &mut coeffs);
        let expanded = FourierGgsw::from_coefficients(&coeffs, fx.decomp, 2, &fx.fft);
        let bits = |g: &FourierGgsw| {
            let (re, im) = g.spectra().planes();
            re.iter().chain(im).map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&expanded), bits(&ggsw.to_fourier(&fx.fft)));
    }

    #[test]
    fn a_panicking_consumer_ends_the_draw_helper() {
        // The helper is blocked on a buffer the consumer never returns;
        // the consumer's unwinding must close the channel and end it,
        // or the scope would wait forever.
        let mut fx = fixture(1, 64);
        let mut keygen = GgswKeygen::new(&fx.glwe_sk, &fx.fft, fx.decomp, STD);
        let samplers = KeySamplers { noise: &mut fx.rng, crs: &mut fx.crs };
        let run = std::panic::AssertUnwindSafe(|| {
            keygen.generate(samplers, &[1; 8], |entries| {
                entries.next_coefficients(&mut Vec::new());
                panic!("consumer fails after one entry");
            })
        });
        assert!(std::panic::catch_unwind(run).is_err());
    }

    #[test]
    #[should_panic(expected = "the key draw helper stopped early")]
    fn taking_more_entries_than_drawn_panics_instead_of_waiting() {
        let mut fx = fixture(1, 64);
        let mut keygen = GgswKeygen::new(&fx.glwe_sk, &fx.fft, fx.decomp, STD);
        let samplers = KeySamplers { noise: &mut fx.rng, crs: &mut fx.crs };
        keygen.generate(samplers, &[1], |entries| {
            for _ in 0..2 {
                entries.next_coefficients(&mut Vec::new());
            }
        });
    }

    #[test]
    fn external_product_is_linear_in_the_glwe() {
        // GGSW(1) ⊡ (c1 + c2) ≈ GGSW(1)⊡c1 + GGSW(1)⊡c2 (up to noise).
        let mut fx = fixture(1, 64);
        let ggsw = fx.ggsw(1).to_fourier(&fx.fft);
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
        let ggsw = fx.ggsw(1);
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
