//! GLWE ciphertexts — the paper's test-vector matrices
//! `tv[k+1] = [A_1(X), …, A_k(X), B(X)]`.
//!
//! A GLWE ciphertext generalises LWE to polynomial rings: the mask is a
//! vector of `k` torus polynomials and the body satisfies
//! `B = Σ A_j·S_j + M + E` in `T_q[X]/(X^N+1)`. During programmable
//! bootstrapping the accumulator (`tv` in Algorithm 1) is a GLWE
//! ciphertext that the blind rotation rotates one secret bit at a time.

use serde::{Deserialize, Serialize};
use strix_fft::{pointwise_mul_add_soa, NegacyclicFft, SoaSpectrum};

use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::poly::TorusPolynomial;
use crate::rng::NoiseSampler;
use crate::torus::f64_to_torus;
use crate::TfheError;

/// A binary GLWE secret key: `k` polynomials of `N` binary coefficients.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlweSecretKey {
    polys: Vec<TorusPolynomial>,
}

impl GlweSecretKey {
    /// Samples a fresh binary key with `k` polynomials of size `N`.
    pub fn generate(glwe_dimension: usize, poly_size: usize, rng: &mut NoiseSampler) -> Self {
        let polys = (0..glwe_dimension)
            .map(|_| {
                let mut p = TorusPolynomial::zero(poly_size);
                rng.fill_binary(p.coeffs_mut());
                p
            })
            .collect();
        Self { polys }
    }

    /// GLWE mask length `k`.
    #[inline]
    pub fn dimension(&self) -> usize {
        self.polys.len()
    }

    /// Polynomial size `N`.
    #[inline]
    pub fn poly_size(&self) -> usize {
        self.polys[0].size()
    }

    /// Borrow of the key polynomials.
    #[inline]
    pub fn polys(&self) -> &[TorusPolynomial] {
        &self.polys
    }

    /// Flattens the key into the LWE key of dimension `k·N` under which
    /// sample-extracted ciphertexts decrypt (§II-E: the PBS output key).
    pub fn to_extracted_lwe_key(&self) -> LweSecretKey {
        let mut bits = Vec::with_capacity(self.dimension() * self.poly_size());
        for p in &self.polys {
            bits.extend_from_slice(p.coeffs());
        }
        LweSecretKey::from_bits(bits)
    }

    /// Encrypts a message polynomial.
    pub fn encrypt(
        &self,
        message: &TorusPolynomial,
        noise_std: f64,
        rng: &mut NoiseSampler,
    ) -> GlweCiphertext {
        let n = self.poly_size();
        let mut masks = Vec::with_capacity(self.dimension());
        for _ in 0..self.dimension() {
            let mut m = TorusPolynomial::zero(n);
            rng.fill_uniform(m.coeffs_mut());
            masks.push(m);
        }
        self.encrypt_with_mask(masks, message, noise_std, rng)
    }

    /// Encrypts `message` under caller-supplied mask polynomials.
    ///
    /// Noise comes from `rng`, one draw per body coefficient in order,
    /// after whatever drew the masks; the key product draws nothing. A
    /// one-off call builds its own plan and key spectra — key
    /// generation builds one [`GlweKeyProduct`] per key instead.
    ///
    /// # Panics
    ///
    /// Panics if the mask vector or message does not match the key
    /// shape (internal key-generation invariant, not a runtime path).
    pub(crate) fn encrypt_with_mask(
        &self,
        masks: Vec<TorusPolynomial>,
        message: &TorusPolynomial,
        noise_std: f64,
        rng: &mut NoiseSampler,
    ) -> GlweCiphertext {
        assert_eq!(message.size(), self.poly_size(), "message polynomial size mismatch");
        let mut body = message.clone();
        add_noise(body.coeffs_mut(), noise_std, rng);
        let fft = self.one_off_plan();
        GlweKeyProduct::new(self, &fft).add_product(
            masks.iter().map(TorusPolynomial::coeffs),
            body.coeffs_mut(),
            false,
        );
        GlweCiphertext { masks, body }
    }

    /// Computes the phase `B − Σ A_j·S_j = M + E`.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn decrypt_phase(&self, ct: &GlweCiphertext) -> Result<TorusPolynomial, TfheError> {
        if ct.dimension() != self.dimension() {
            return Err(TfheError::ParameterMismatch {
                what: "glwe dimension",
                left: ct.dimension(),
                right: self.dimension(),
            });
        }
        if ct.poly_size() != self.poly_size() {
            return Err(TfheError::ParameterMismatch {
                what: "polynomial size",
                left: ct.poly_size(),
                right: self.poly_size(),
            });
        }
        let mut phase = ct.body.clone();
        let fft = self.one_off_plan();
        GlweKeyProduct::new(self, &fft).add_product(
            ct.masks.iter().map(TorusPolynomial::coeffs),
            phase.coeffs_mut(),
            true,
        );
        Ok(phase)
    }

    /// A transform plan for one-off key products. The product is exact
    /// on every backend, so the runtime-detected one is as good as any.
    pub(crate) fn one_off_plan(&self) -> NegacyclicFft {
        NegacyclicFft::new(self.poly_size())
            // lint:allow(panic) key polynomials come from power-of-two parameter sets
            .expect("glwe key polynomial size must be a power of two")
    }
}

/// Adds one fresh Gaussian draw to each coefficient of `body`, in
/// order: the noise half of a GLWE encryption.
pub(crate) fn add_noise(body: &mut [u64], noise_std: f64, rng: &mut NoiseSampler) {
    for b in body {
        *b = b.wrapping_add(rng.gaussian_torus(noise_std));
    }
}

/// Bits of each of the two low limbs of a split torus word.
const LIMB_BITS: u32 = 22;

/// Limbs per torus word: `t = l₀ + l₁·2²² + l₂·2⁴⁴ (mod 2⁶⁴)`.
const LIMBS: usize = 3;

/// Splits a torus word into three signed limbs with
/// `t ≡ l₀ + l₁·2²² + l₂·2⁴⁴ (mod 2⁶⁴)`: `l₀, l₁ ∈ [−2²¹, 2²¹)` are the
/// balanced low 22-bit digits and `l₂ ∈ [−2¹⁹, 2¹⁹)` the balanced top
/// 20 bits (a carry out of bit 63 vanishes mod 2⁶⁴).
#[inline]
fn split_limbs(t: u64) -> [i64; LIMBS] {
    const SHIFT: u32 = 64 - LIMB_BITS;
    let l0 = ((t << SHIFT) as i64) >> SHIFT;
    let rest = t.wrapping_sub(l0 as u64) >> LIMB_BITS;
    let l1 = ((rest << SHIFT) as i64) >> SHIFT;
    let top = rest.wrapping_sub(l1 as u64) >> LIMB_BITS;
    let l2 = ((top << (2 * LIMB_BITS)) as i64) >> (2 * LIMB_BITS);
    [l0, l1, l2]
}

/// The exact product of torus polynomials with a binary GLWE secret,
/// through the negacyclic FFT: the key's `k` spectra plus the scratch
/// of one GLWE row, built once per key-generation call and reused for
/// every row.
///
/// [`Self::add_product`] splits each mask word into three signed limbs,
/// `t ≡ l₀ + l₁·2²² + l₂·2⁴⁴ (mod 2⁶⁴)` with `l₀, l₁ ∈ [−2²¹, 2²¹)` and
/// `l₂ ∈ [−2¹⁹, 2¹⁹)`, transforms the `3k` limb polynomials in one
/// batched [`NegacyclicFft::forward_i64_many`], multiplies each by its
/// key spectrum and sums over the `k` masks in the Fourier domain, runs
/// one batched [`NegacyclicFft::backward_f64_many`] of 3 transforms,
/// rounds each coefficient to an integer and recombines the limbs with
/// wrapping shifts.
///
/// # Why the rounding is exact
///
/// A limb is at most `2²¹` in magnitude and a key coefficient is 0 or
/// 1, so the operands of every limb product `l·S_j` have
/// `‖l‖₂·‖S_j‖₂ ≤ √N·2²¹·√N = N·2²¹`. Percival's bound for FFT
/// convolution puts the error of every output coefficient below
/// `‖a‖₂·‖b‖₂·((1+ε)^{3m}(1+ε√5)^{3m+1}(1+β)^{3m} − 1)` for
/// `m = log₂N` transform levels, unit roundoff
/// `ε = 2⁻⁵³` and twiddle error `β ≤ ε` (the twiddles are direct
/// `sin`/`cos` evaluations): below `2⁻⁴⁵·‖a‖₂·‖b‖₂` for every `N ≤ 2¹⁶`.
/// At `N = 2¹⁴` (set IV) a limb product is within `2³⁵·2⁻⁴⁵ = 2⁻¹⁰` of
/// its integer value, and the `k` products of a row at most `k·2⁻¹⁰`,
/// far below the `½` at which rounding could pick the wrong integer.
/// Each rounded limb product is then the true integer, and so is the
/// recombination mod `2⁶⁴`: the result is the window-sum product bit
/// for bit, on every FFT backend. Debug builds assert that every
/// rounding residual is below `¼`.
#[derive(Debug)]
pub struct GlweKeyProduct<'a> {
    fft: &'a NegacyclicFft,
    /// Spectra of the `k` key polynomials.
    key: SoaSpectrum,
    /// Limb polynomials, limb-major: polynomial `i·k + j` is limb `i`
    /// of mask `j`.
    limbs: Vec<i64>,
    /// Spectra of `limbs`, in the same order.
    limb_spectra: SoaSpectrum,
    /// Per limb, `Σ_j spectrum(limb i of mask j) · spectrum(S_j)`.
    sums: SoaSpectrum,
    /// The three limb products in the time domain, back to back.
    time: Vec<f64>,
}

impl<'a> GlweKeyProduct<'a> {
    /// Transforms `sk`'s polynomials under `fft` and sizes the row
    /// scratch.
    ///
    /// # Panics
    ///
    /// Panics if `fft` is not a plan of the key's polynomial size, or if
    /// a key coefficient is not 0 or 1 (the exactness bound needs a
    /// binary key).
    pub fn new(sk: &GlweSecretKey, fft: &'a NegacyclicFft) -> Self {
        let (k, n, half) = (sk.dimension(), sk.poly_size(), fft.fourier_size());
        assert_eq!(fft.poly_size(), n, "key product plan size mismatch");
        let bits: Vec<i64> =
            sk.polys.iter().flat_map(|p| p.coeffs().iter().map(|&b| b as i64)).collect();
        assert!(bits.iter().all(|&b| b == 0 || b == 1), "glwe secret key must be binary");
        let mut key = SoaSpectrum::new(k, half);
        fft.forward_i64_many(&bits, &mut key)
            // lint:allow(panic) the key buffer is sized from the same plan
            .expect("key polynomials match the plan");
        Self {
            fft,
            key,
            limbs: vec![0; LIMBS * k * n],
            limb_spectra: SoaSpectrum::new(LIMBS * k, half),
            sums: SoaSpectrum::new(LIMBS, half),
            time: vec![0.0; LIMBS * n],
        }
    }

    // lint:hot-path-start — the key product runs once per GLWE row of every key
    /// Accumulates `acc ± Σ_j masks_j · S_j` in `T_q[X]/(X^N+1)`
    /// (subtracted when `subtract`), exactly (see the type docs).
    /// `masks` yields the `k` mask polynomials in key order.
    ///
    /// # Panics
    ///
    /// Panics unless `masks` yields exactly `k` polynomials and every
    /// polynomial, `acc` included, has the key's `N` coefficients.
    pub fn add_product<'m>(
        &mut self,
        masks: impl IntoIterator<Item = &'m [u64]>,
        acc: &mut [u64],
        subtract: bool,
    ) {
        let (k, n) = (self.key.count(), self.fft.poly_size());
        assert_eq!(acc.len(), n, "accumulator polynomial size mismatch");
        let (l0, rest) = self.limbs.split_at_mut(k * n);
        let (l1, l2) = rest.split_at_mut(k * n);
        let limb_rows =
            l0.chunks_exact_mut(n).zip(l1.chunks_exact_mut(n)).zip(l2.chunks_exact_mut(n));
        // The limb rows lead the zip, so a surplus mask is left in
        // `masks` for the length check below.
        let mut masks = masks.into_iter();
        let mut count = 0;
        for (((d0, d1), d2), mask) in limb_rows.zip(masks.by_ref()) {
            assert_eq!(mask.len(), n, "mask polynomial size mismatch");
            for (((&t, x0), x1), x2) in mask.iter().zip(d0).zip(d1).zip(d2) {
                [*x0, *x1, *x2] = split_limbs(t);
            }
            count += 1;
        }
        assert!(count == k && masks.next().is_none(), "mask vector length mismatch");
        self.fft
            .forward_i64_many(&self.limbs, &mut self.limb_spectra)
            // lint:allow(panic) scratch is sized from the same plan
            .expect("limb polynomials match the plan");
        self.sums.fill_zero();
        for i in 0..LIMBS {
            let (sum_re, sum_im) = self.sums.transform_mut(i);
            for j in 0..k {
                let (a_re, a_im) = self.limb_spectra.transform(i * k + j);
                let (b_re, b_im) = self.key.transform(j);
                pointwise_mul_add_soa(sum_re, sum_im, a_re, a_im, b_re, b_im);
            }
        }
        self.fft
            .backward_f64_many(&mut self.sums, &mut self.time)
            // lint:allow(panic) scratch is sized from the same plan
            .expect("limb products match the plan");
        debug_assert!(
            self.time.iter().all(|v| (v - v.round()).abs() < 0.25),
            "key product rounding residual reached 1/4: the exactness bound is broken"
        );
        let (p0, rest) = self.time.split_at(n);
        let (p1, p2) = rest.split_at(n);
        for (((a, &v0), &v1), &v2) in acc.iter_mut().zip(p0).zip(p1).zip(p2) {
            let prod = f64_to_torus(v0)
                .wrapping_add(f64_to_torus(v1) << LIMB_BITS)
                .wrapping_add(f64_to_torus(v2) << (2 * LIMB_BITS));
            *a = if subtract { a.wrapping_sub(prod) } else { a.wrapping_add(prod) };
        }
    }
    // lint:hot-path-end
}

/// Exact negacyclic product of a torus polynomial with a binary key
/// polynomial, accumulated into `acc`: `acc ± torus · key` in
/// `T_q[X]/(X^N+1)` (subtracted when `subtract`) — the integer oracle
/// [`GlweKeyProduct`] is pinned against.
///
/// The negacyclic extension `ext = [−t ‖ t]` (its halves swapped to
/// subtract) turns `X^i·t` into the contiguous window
/// `ext[N−i .. 2N−i]`, so the product is a sum of windows: four set key
/// bits per pass over `acc`, wrapping adds only. Integer arithmetic mod
/// 2^64 is exact, so the grouping of the additions cannot change a bit
/// of the result. `ext` is caller-owned scratch of `2N` words.
///
/// # Panics
///
/// Panics if `torus`, `key` or `ext` do not match `acc`'s length `N`.
#[cfg(test)]
fn add_binary_product(
    acc: &mut [u64],
    torus: &[u64],
    key: &[u64],
    subtract: bool,
    ext: &mut [u64],
) {
    let n = acc.len();
    assert_eq!(torus.len(), n, "torus polynomial size mismatch");
    assert_eq!(key.len(), n, "key polynomial size mismatch");
    assert_eq!(ext.len(), 2 * n, "extension buffer size mismatch");
    let (lo, hi) = ext.split_at_mut(n);
    let (neg, pos) = if subtract { (hi, lo) } else { (lo, hi) };
    for ((ng, p), &t) in neg.iter_mut().zip(pos.iter_mut()).zip(torus) {
        *ng = t.wrapping_neg();
        *p = t;
    }
    let ext = &*ext;
    let window = move |i: usize| &ext[n - i..2 * n - i];
    let mut pending = [0usize; 4];
    let mut count = 0;
    for i in key.iter().enumerate().filter(|&(_, &bit)| bit != 0).map(|(i, _)| i) {
        pending[count] = i;
        count += 1;
        if count == pending.len() {
            let (w0, w1, w2, w3) =
                (window(pending[0]), window(pending[1]), window(pending[2]), window(pending[3]));
            for ((((a, &x0), &x1), &x2), &x3) in acc.iter_mut().zip(w0).zip(w1).zip(w2).zip(w3) {
                *a = a.wrapping_add(x0.wrapping_add(x1).wrapping_add(x2.wrapping_add(x3)));
            }
            count = 0;
        }
    }
    for &i in &pending[..count] {
        for (a, &x) in acc.iter_mut().zip(window(i)) {
            *a = a.wrapping_add(x);
        }
    }
}

/// A GLWE ciphertext `[A_1(X), …, A_k(X), B(X)]`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlweCiphertext {
    masks: Vec<TorusPolynomial>,
    body: TorusPolynomial,
}

impl GlweCiphertext {
    /// A noiseless encryption of `message` under any key: zero masks.
    ///
    /// This is how the initial test vector enters the blind rotation.
    pub fn trivial(glwe_dimension: usize, message: TorusPolynomial) -> Self {
        let n = message.size();
        Self { masks: vec![TorusPolynomial::zero(n); glwe_dimension], body: message }
    }

    /// The ciphertext with mask polynomials `masks` and body `body`.
    pub(crate) fn from_parts(masks: Vec<TorusPolynomial>, body: TorusPolynomial) -> Self {
        Self { masks, body }
    }

    /// The all-zero ciphertext (trivial encryption of zero).
    pub fn zero(glwe_dimension: usize, poly_size: usize) -> Self {
        Self::trivial(glwe_dimension, TorusPolynomial::zero(poly_size))
    }

    /// GLWE mask length `k`.
    #[inline]
    pub fn dimension(&self) -> usize {
        self.masks.len()
    }

    /// Polynomial size `N`.
    #[inline]
    pub fn poly_size(&self) -> usize {
        self.body.size()
    }

    /// The mask polynomials `A_1 … A_k`.
    #[inline]
    pub fn masks(&self) -> &[TorusPolynomial] {
        &self.masks
    }

    /// The body polynomial `B`.
    #[inline]
    pub fn body(&self) -> &TorusPolynomial {
        &self.body
    }

    /// Iterates over all `k+1` polynomials, masks first then body —
    /// the row order of the paper's test-vector matrix.
    pub fn polys(&self) -> impl Iterator<Item = &TorusPolynomial> {
        self.masks.iter().chain(std::iter::once(&self.body))
    }

    /// Mutable access to polynomial `j` (`j = k` is the body).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if `j > k`. Indexing
    /// mistakes surface as an error the caller can route around
    /// instead of a panic that would take a serving thread down.
    pub fn poly_mut(&mut self, j: usize) -> Result<&mut TorusPolynomial, TfheError> {
        let k = self.masks.len();
        if j < k {
            Ok(&mut self.masks[j])
        } else if j == k {
            Ok(&mut self.body)
        } else {
            Err(TfheError::ParameterMismatch { what: "glwe polynomial index", left: j, right: k })
        }
    }

    /// Homomorphic addition.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn add_assign(&mut self, other: &GlweCiphertext) -> Result<(), TfheError> {
        self.check_shape(other)?;
        for (a, b) in self.masks.iter_mut().zip(&other.masks) {
            a.add_assign(b);
        }
        self.body.add_assign(&other.body);
        Ok(())
    }

    /// Homomorphic subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn sub_assign(&mut self, other: &GlweCiphertext) -> Result<(), TfheError> {
        self.check_shape(other)?;
        for (a, b) in self.masks.iter_mut().zip(&other.masks) {
            a.sub_assign(b);
        }
        self.body.sub_assign(&other.body);
        Ok(())
    }

    /// Returns `X^amount · self` — the rotate-right of Algorithm 1
    /// line 6, applied to every polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `amount >= 2N`.
    pub fn rotate_right(&self, amount: usize) -> GlweCiphertext {
        GlweCiphertext {
            masks: self.masks.iter().map(|p| p.rotate_right(amount)).collect(),
            body: self.body.rotate_right(amount),
        }
    }

    /// Returns `X^{-amount} · self` — the rotate-left of Algorithm 1
    /// line 4.
    ///
    /// # Panics
    ///
    /// Panics if `amount >= 2N`.
    pub fn rotate_left(&self, amount: usize) -> GlweCiphertext {
        GlweCiphertext {
            masks: self.masks.iter().map(|p| p.rotate_left(amount)).collect(),
            body: self.body.rotate_left(amount),
        }
    }

    /// As [`Self::rotate_right`], writing into a caller-provided
    /// ciphertext — the allocation-free rotate of the scratch-based
    /// blind rotation (Algorithm 1 line 6 without the `Vec` churn).
    ///
    /// # Panics
    ///
    /// Panics if `amount >= 2N` or the shapes differ.
    pub fn rotate_right_into(&self, amount: usize, out: &mut GlweCiphertext) {
        assert_eq!(self.dimension(), out.dimension(), "glwe dimension mismatch");
        for (src, dst) in self.masks.iter().zip(&mut out.masks) {
            src.rotate_right_into(amount, dst);
        }
        self.body.rotate_right_into(amount, &mut out.body);
    }

    /// Sample extraction (Algorithm 1 line 13): forms the LWE ciphertext
    /// of coefficient 0 of the encrypted polynomial, of dimension `k·N`,
    /// under the extracted key ([`GlweSecretKey::to_extracted_lwe_key`]).
    pub fn sample_extract(&self) -> LweCiphertext {
        let n = self.poly_size();
        let k = self.dimension();
        let mut data = Vec::with_capacity(k * n + 1);
        for mask in &self.masks {
            let c = mask.coeffs();
            data.push(c[0]);
            for v in 1..n {
                data.push(c[n - v].wrapping_neg());
            }
        }
        data.push(self.body.coeffs()[0]);
        LweCiphertext::from_raw(data)
    }

    fn check_shape(&self, other: &GlweCiphertext) -> Result<(), TfheError> {
        if self.dimension() != other.dimension() {
            return Err(TfheError::ParameterMismatch {
                what: "glwe dimension",
                left: self.dimension(),
                right: other.dimension(),
            });
        }
        if self.poly_size() != other.poly_size() {
            return Err(TfheError::ParameterMismatch {
                what: "polynomial size",
                left: self.poly_size(),
                right: other.poly_size(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::{decode_message, encode_fraction};

    const STD: f64 = 1.0e-10;

    fn setup(k: usize, n: usize) -> (GlweSecretKey, NoiseSampler) {
        let mut rng = NoiseSampler::from_seed(77);
        let sk = GlweSecretKey::generate(k, n, &mut rng);
        (sk, rng)
    }

    fn message_poly(n: usize) -> TorusPolynomial {
        let coeffs: Vec<u64> = (0..n).map(|j| encode_fraction((j % 16) as i64, 4)).collect();
        TorusPolynomial::from_coeffs(coeffs)
    }

    /// The schoolbook `O(N·w)` oracle: one branchy pass per set key
    /// bit, wrapping at `N` with a sign flip.
    fn naive_binary_product(torus: &[u64], key: &[u64]) -> Vec<u64> {
        let n = torus.len();
        let mut out = vec![0u64; n];
        for (i, &b) in key.iter().enumerate() {
            if b == 0 {
                continue;
            }
            for (j, &t) in torus.iter().enumerate() {
                let k = i + j;
                if k < n {
                    out[k] = out[k].wrapping_add(t);
                } else {
                    out[k - n] = out[k - n].wrapping_sub(t);
                }
            }
        }
        out
    }

    /// Key shapes the oracle tests cover at every size.
    #[derive(Clone, Copy, Debug)]
    enum KeyShape {
        Random,
        Weight0,
        /// Every bit set: the magnitude worst case of the FFT product.
        WeightN,
        FirstBit,
        LastBit,
    }

    const SHAPES: [KeyShape; 5] = [
        KeyShape::Random,
        KeyShape::Weight0,
        KeyShape::WeightN,
        KeyShape::FirstBit,
        KeyShape::LastBit,
    ];

    fn key_of(shape: KeyShape, n: usize, rng: &mut NoiseSampler) -> Vec<u64> {
        let mut key = vec![0u64; n];
        match shape {
            KeyShape::Random => rng.fill_binary(&mut key),
            KeyShape::Weight0 => {}
            KeyShape::WeightN => key.fill(1),
            KeyShape::FirstBit => key[0] = 1,
            KeyShape::LastBit => key[n - 1] = 1,
        }
        key
    }

    /// A GLWE key of the given binary polynomials.
    fn key_from_bits(polys: &[Vec<u64>]) -> GlweSecretKey {
        GlweSecretKey {
            polys: polys.iter().map(|p| TorusPolynomial::from_coeffs(p.clone())).collect(),
        }
    }

    /// Torus words on the limb edges: each side of the 2²¹ limb sign
    /// boundary, the 2²² and 2⁴⁴ limb boundaries, both low limbs at
    /// −2²¹ at once, the top bit, all ones and alternating bits.
    const EDGE_WORDS: [u64; 13] = [
        0,
        1,
        (1 << 21) - 1,
        1 << 21,
        (1 << 22) - 1,
        1 << 43,
        (1 << 21) | (1 << 43),
        (1 << 44) - 1,
        1 << 44,
        1 << 63,
        u64::MAX,
        0xaaaa_aaaa_aaaa_aaaa,
        0x5555_5555_5555_5555,
    ];

    /// `acc ± Σ_j torus_j · key_j` by the naive oracle.
    fn oracle_sum(acc: &[u64], masks: &[Vec<u64>], keys: &[Vec<u64>], subtract: bool) -> Vec<u64> {
        let mut want = acc.to_vec();
        for (mask, key) in masks.iter().zip(keys) {
            for (w, p) in want.iter_mut().zip(naive_binary_product(mask, key)) {
                *w = if subtract { w.wrapping_sub(p) } else { w.wrapping_add(p) };
            }
        }
        want
    }

    /// The Fourier product of `masks` with a key of `keys`, into a copy
    /// of `acc`.
    fn fourier_sum(
        product: &mut GlweKeyProduct<'_>,
        acc: &[u64],
        masks: &[Vec<u64>],
        subtract: bool,
    ) -> Vec<u64> {
        let mut got = acc.to_vec();
        product.add_product(masks.iter().map(Vec::as_slice), &mut got, subtract);
        got
    }

    #[test]
    fn limb_split_recombines_within_its_ranges() {
        let mut rng = NoiseSampler::from_seed(5);
        let random: Vec<u64> = (0..1000).map(|_| rng.uniform_torus()).collect();
        for &t in EDGE_WORDS.iter().chain(&random) {
            let [l0, l1, l2] = split_limbs(t);
            assert!((-(1 << 21)..1 << 21).contains(&l0), "{t:#x}: l0 = {l0}");
            assert!((-(1 << 21)..1 << 21).contains(&l1), "{t:#x}: l1 = {l1}");
            assert!((-(1 << 19)..1 << 19).contains(&l2), "{t:#x}: l2 = {l2}");
            let back = (l0 as u64)
                .wrapping_add((l1 as u64) << LIMB_BITS)
                .wrapping_add((l2 as u64) << (2 * LIMB_BITS));
            assert_eq!(back, t);
        }
    }

    #[test]
    fn key_product_is_exact_on_limb_edge_words() {
        let mut rng = NoiseSampler::from_seed(11);
        for n in [2usize, 64, 1024, 2048] {
            let fft = NegacyclicFft::new(n).unwrap();
            let mixed: Vec<u64> = (0..n).map(|c| EDGE_WORDS[c % EDGE_WORDS.len()]).collect();
            let torus_polys = EDGE_WORDS.iter().map(|&w| vec![w; n]).chain([mixed]);
            let torus_polys: Vec<Vec<u64>> = torus_polys.collect();
            for shape in SHAPES {
                let key = vec![key_of(shape, n, &mut rng)];
                let mut product = GlweKeyProduct::new(&key_from_bits(&key), &fft);
                let mut acc = vec![0u64; n];
                rng.fill_uniform(&mut acc);
                for torus in &torus_polys {
                    let masks = std::slice::from_ref(torus);
                    let prod = naive_binary_product(torus, &key[0]);
                    for subtract in [false, true] {
                        let want: Vec<u64> = acc
                            .iter()
                            .zip(&prod)
                            .map(
                                |(&a, &p)| {
                                    if subtract {
                                        a.wrapping_sub(p)
                                    } else {
                                        a.wrapping_add(p)
                                    }
                                },
                            )
                            .collect();
                        assert_eq!(
                            fourier_sum(&mut product, &acc, masks, subtract),
                            want,
                            "n={n} {shape:?} word {:#x} subtract={subtract}",
                            torus[0]
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mask vector length mismatch")]
    fn key_product_rejects_a_surplus_mask() {
        let fft = NegacyclicFft::new(4).unwrap();
        let mut product = GlweKeyProduct::new(&key_from_bits(&[vec![1, 0, 0, 1]]), &fft);
        product.add_product([[1u64; 4].as_slice(), &[2; 4]], &mut [0; 4], false);
    }

    #[test]
    #[should_panic(expected = "glwe secret key must be binary")]
    fn key_product_rejects_a_non_binary_key() {
        let fft = NegacyclicFft::new(4).unwrap();
        GlweKeyProduct::new(&key_from_bits(&[vec![1, 2, 0, 1]]), &fft);
    }

    /// Set IV's N = 2¹⁴, where the bound of the type docs is tightest:
    /// the all-ones key against masks whose low limbs are all −2²¹ puts
    /// every limb product at its largest. The window sum stands in for
    /// the naive oracle it is pinned against. Release-only: at this size
    /// the oracle runs 2²⁸ additions per product.
    #[test]
    fn key_product_is_exact_at_the_largest_parameter_size() {
        if cfg!(debug_assertions) {
            return;
        }
        let n = 1 << 14;
        let fft = NegacyclicFft::new(n).unwrap();
        let mut rng = NoiseSampler::from_seed(14);
        let mut random = vec![0u64; n];
        rng.fill_uniform(&mut random);
        for shape in [KeyShape::WeightN, KeyShape::Random] {
            let key = key_of(shape, n, &mut rng);
            let mut product = GlweKeyProduct::new(&key_from_bits(std::slice::from_ref(&key)), &fft);
            for torus in [vec![(1 << 21) | (1 << 43); n], vec![u64::MAX; n], random.clone()] {
                for subtract in [false, true] {
                    let mut want = vec![0u64; n];
                    add_binary_product(&mut want, &torus, &key, subtract, &mut vec![0; 2 * n]);
                    let got = fourier_sum(
                        &mut product,
                        &[0; 1 << 14],
                        std::slice::from_ref(&torus),
                        subtract,
                    );
                    assert!(got == want, "{shape:?} word {:#x} subtract={subtract}", torus[0]);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The FFT product equals the schoolbook oracle on every size and
        /// key shape, and so does the window sum up to N = 1024, both
        /// over stale scratch.
        #[test]
        fn binary_product_matches_naive_oracle(
            subtract in proptest::any::<bool>(),
            seed in proptest::any::<u64>(),
        ) {
            let mut rng = NoiseSampler::from_seed(seed);
            for n in [2usize, 4, 64, 256, 1024, 2048] {
                let fft = NegacyclicFft::new(n).unwrap();
                for shape in SHAPES {
                    let key = vec![key_of(shape, n, &mut rng)];
                    let mut product = GlweKeyProduct::new(&key_from_bits(&key), &fft);
                    let mut acc = vec![0u64; n];
                    rng.fill_uniform(&mut acc);
                    let mut torus = vec![0u64; n];
                    // Stale scratch contents must not leak into either product.
                    rng.fill_uniform(&mut torus);
                    fourier_sum(&mut product, &acc, &[torus.clone()], subtract);
                    rng.fill_uniform(&mut torus);
                    let masks = [torus];
                    let want = oracle_sum(&acc, &masks, &key, subtract);
                    let got = fourier_sum(&mut product, &acc, &masks, subtract);
                    proptest::prop_assert_eq!(&got, &want, "fft n={} {:?}", n, shape);
                    if n > 1024 {
                        // The window sum's sizes; the largest one checks
                        // it against the FFT product instead.
                        continue;
                    }
                    let mut ext = vec![0u64; 2 * n];
                    rng.fill_uniform(&mut ext);
                    add_binary_product(&mut acc, &masks[0], &key[0], subtract, &mut ext);
                    proptest::prop_assert_eq!(acc, want, "window n={} {:?}", n, shape);
                }
            }
        }

        /// With `k > 1` the products of the `k` masks are summed in the
        /// Fourier domain before one inverse transform per limb.
        #[test]
        fn fourier_sum_over_masks_matches_oracle(
            k in 2usize..4,
            log_n in proptest::prop::sample::select(vec![1u32, 6, 10]),
            subtract in proptest::any::<bool>(),
            seed in proptest::any::<u64>(),
        ) {
            let n = 1usize << log_n;
            let mut rng = NoiseSampler::from_seed(seed);
            let fft = NegacyclicFft::new(n).unwrap();
            let keys: Vec<Vec<u64>> = SHAPES[..k].iter().map(|&s| key_of(s, n, &mut rng)).collect();
            let mut product = GlweKeyProduct::new(&key_from_bits(&keys), &fft);
            let masks: Vec<Vec<u64>> = (0..k)
                .map(|j| {
                    let mut m = vec![0u64; n];
                    rng.fill_uniform(&mut m);
                    m[j % n] = EDGE_WORDS[j + 5];
                    m
                })
                .collect();
            let mut acc = vec![0u64; n];
            rng.fill_uniform(&mut acc);
            proptest::prop_assert_eq!(
                fourier_sum(&mut product, &acc, &masks, subtract),
                oracle_sum(&acc, &masks, &keys, subtract)
            );
        }

        /// A noiseless encryption's body is `M + Σ_j A_j·S_j` by the
        /// naive oracle (for `k ≥ 2` through the Fourier-domain sum),
        /// and its phase is `M` again.
        #[test]
        fn noiseless_decrypt_phase_inverts_encrypt_exactly(
            log_n in proptest::prop::sample::select(vec![1u32, 2, 6, 10, 11]),
            k in 1usize..4,
            seed in proptest::any::<u64>(),
        ) {
            let n = 1usize << log_n;
            let mut rng = NoiseSampler::from_seed(seed);
            let sk = GlweSecretKey::generate(k, n, &mut rng);
            let mut msg = TorusPolynomial::zero(n);
            rng.fill_uniform(msg.coeffs_mut());
            let ct = sk.encrypt(&msg, 0.0, &mut rng);
            let masks: Vec<Vec<u64>> = ct.masks().iter().map(|m| m.coeffs().to_vec()).collect();
            let keys: Vec<Vec<u64>> = sk.polys().iter().map(|p| p.coeffs().to_vec()).collect();
            let body = oracle_sum(msg.coeffs(), &masks, &keys, false);
            proptest::prop_assert_eq!(ct.body().coeffs(), body.as_slice());
            proptest::prop_assert_eq!(sk.decrypt_phase(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        for (k, n) in [(1, 64), (2, 32), (3, 16)] {
            let (sk, mut rng) = setup(k, n);
            let msg = message_poly(n);
            let ct = sk.encrypt(&msg, STD, &mut rng);
            let phase = sk.decrypt_phase(&ct).unwrap();
            for (p, m) in phase.coeffs().iter().zip(msg.coeffs()) {
                assert_eq!(decode_message(*p, 4), decode_message(*m, 4), "k={k} n={n}");
            }
        }
    }

    #[test]
    fn trivial_encryption_has_zero_mask() {
        let msg = message_poly(32);
        let ct = GlweCiphertext::trivial(2, msg.clone());
        assert!(ct.masks().iter().all(|m| m.coeffs().iter().all(|&c| c == 0)));
        let (sk, _) = setup(2, 32);
        assert_eq!(sk.decrypt_phase(&ct).unwrap(), msg);
    }

    #[test]
    fn homomorphic_add_sub() {
        let (sk, mut rng) = setup(1, 64);
        let m1 = TorusPolynomial::constant(64, encode_fraction(3, 4));
        let m2 = TorusPolynomial::constant(64, encode_fraction(2, 4));
        let mut c1 = sk.encrypt(&m1, STD, &mut rng);
        let c2 = sk.encrypt(&m2, STD, &mut rng);
        c1.add_assign(&c2).unwrap();
        let phase = sk.decrypt_phase(&c1).unwrap();
        assert_eq!(decode_message(phase[0], 4), 5);
        c1.sub_assign(&c2).unwrap();
        let phase = sk.decrypt_phase(&c1).unwrap();
        assert_eq!(decode_message(phase[0], 4), 3);
    }

    #[test]
    fn rotation_commutes_with_decryption() {
        // Dec(X^a · ct) = X^a · Dec(ct): rotation is a homomorphism.
        let (sk, mut rng) = setup(2, 32);
        let msg = message_poly(32);
        let ct = sk.encrypt(&msg, STD, &mut rng);
        for amount in [0usize, 1, 5, 31, 32, 40, 63] {
            let rotated = ct.rotate_right(amount);
            let phase = sk.decrypt_phase(&rotated).unwrap();
            let expected = msg.rotate_right(amount);
            for (p, m) in phase.coeffs().iter().zip(expected.coeffs()) {
                assert_eq!(decode_message(*p, 4), decode_message(*m, 4), "amount {amount}");
            }
        }
    }

    #[test]
    fn sample_extract_recovers_constant_coefficient() {
        let (sk, mut rng) = setup(2, 32);
        let msg = message_poly(32);
        let ct = sk.encrypt(&msg, STD, &mut rng);
        let extracted = ct.sample_extract();
        assert_eq!(extracted.dimension(), 2 * 32);
        let lwe_key = sk.to_extracted_lwe_key();
        let phase = lwe_key.decrypt_phase(&extracted).unwrap();
        assert_eq!(decode_message(phase, 4), decode_message(msg[0], 4));
    }

    #[test]
    fn sample_extract_after_rotation_reads_any_coefficient() {
        // Rotating left by j then extracting reads coefficient j — the
        // mechanism by which PBS selects the LUT entry.
        let (sk, mut rng) = setup(1, 64);
        let msg = message_poly(64);
        let ct = sk.encrypt(&msg, STD, &mut rng);
        let lwe_key = sk.to_extracted_lwe_key();
        for j in [0usize, 1, 17, 63] {
            let phase = lwe_key.decrypt_phase(&ct.rotate_left(j).sample_extract()).unwrap();
            assert_eq!(decode_message(phase, 4), decode_message(msg[j], 4), "j={j}");
        }
    }

    #[test]
    fn encrypt_with_mask_round_trips_and_reassembles() {
        let (sk, mut rng) = setup(2, 32);
        let msg = message_poly(32);
        let mut crs = NoiseSampler::from_seed(99);
        let mut masks = Vec::new();
        for _ in 0..2 {
            let mut m = TorusPolynomial::zero(32);
            crs.fill_uniform(m.coeffs_mut());
            masks.push(m);
        }
        let ct = sk.encrypt_with_mask(masks.clone(), &msg, STD, &mut rng);
        // The stored masks are exactly the CRS draws.
        assert_eq!(ct.masks(), masks.as_slice());
        let phase = sk.decrypt_phase(&ct).unwrap();
        for (p, m) in phase.coeffs().iter().zip(msg.coeffs()) {
            assert_eq!(decode_message(*p, 4), decode_message(*m, 4));
        }
        // Expansion: regenerated masks + stored body reproduce the
        // ciphertext bit for bit.
        let rebuilt = GlweCiphertext { masks, body: ct.body().clone() };
        assert_eq!(rebuilt, ct);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let (sk, mut rng) = setup(1, 64);
        let ct = sk.encrypt(&message_poly(64), STD, &mut rng);
        let mut other = GlweCiphertext::zero(2, 64);
        assert!(other.add_assign(&ct).is_err());
        let mut other = GlweCiphertext::zero(1, 32);
        assert!(other.add_assign(&ct).is_err());
        let (sk2, _) = setup(2, 64);
        assert!(sk2.decrypt_phase(&ct).is_err());
    }

    #[test]
    fn poly_mut_indexes_masks_then_body() {
        let mut ct = GlweCiphertext::zero(2, 16);
        ct.poly_mut(0).unwrap()[0] = 1;
        ct.poly_mut(1).unwrap()[0] = 2;
        ct.poly_mut(2).unwrap()[0] = 3;
        assert_eq!(ct.masks()[0][0], 1);
        assert_eq!(ct.masks()[1][0], 2);
        assert_eq!(ct.body()[0], 3);
    }

    #[test]
    fn poly_mut_rejects_out_of_range_as_error() {
        let mut ct = GlweCiphertext::zero(1, 16);
        assert!(matches!(
            ct.poly_mut(2),
            Err(TfheError::ParameterMismatch { what: "glwe polynomial index", left: 2, right: 1 })
        ));
    }
}
