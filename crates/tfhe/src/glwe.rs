//! GLWE ciphertexts — the paper's test-vector matrices
//! `tv[k+1] = [A_1(X), …, A_k(X), B(X)]`.
//!
//! A GLWE ciphertext generalises LWE to polynomial rings: the mask is a
//! vector of `k` torus polynomials and the body satisfies
//! `B = Σ A_j·S_j + M + E` in `T_q[X]/(X^N+1)`. During programmable
//! bootstrapping the accumulator (`tv` in Algorithm 1) is a GLWE
//! ciphertext that the blind rotation rotates one secret bit at a time.

use serde::{Deserialize, Serialize};

use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::poly::TorusPolynomial;
use crate::rng::NoiseSampler;
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
    /// Seeded key transport draws the masks from a shared CRS stream so
    /// only the body has to be stored; generation and expansion both
    /// call this with identical masks, which keeps the two sides of the
    /// transport bit-identical by construction. Noise still comes from
    /// the private `rng`.
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
        assert_eq!(masks.len(), self.dimension(), "mask vector length mismatch");
        assert_eq!(message.size(), self.poly_size(), "message polynomial size mismatch");
        let n = self.poly_size();
        let mut body = TorusPolynomial::zero(n);
        for (b, &m) in body.coeffs_mut().iter_mut().zip(message.coeffs()) {
            *b = m.wrapping_add(rng.gaussian_torus(noise_std));
        }
        let mut ext = vec![0u64; 2 * n];
        for (mask, key) in masks.iter().zip(&self.polys) {
            assert_eq!(mask.size(), n, "mask polynomial size mismatch");
            add_binary_product(body.coeffs_mut(), mask.coeffs(), key.coeffs(), false, &mut ext);
        }
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
        let mut ext = vec![0u64; 2 * self.poly_size()];
        for (mask, key) in ct.masks.iter().zip(&self.polys) {
            add_binary_product(phase.coeffs_mut(), mask.coeffs(), key.coeffs(), true, &mut ext);
        }
        Ok(phase)
    }
}

// lint:hot-path-start — the key product runs once per GLWE row of every key
/// Exact negacyclic product of a torus polynomial with a binary key
/// polynomial, accumulated into `acc`: `acc ± torus · key` in
/// `T_q[X]/(X^N+1)` (subtracted when `subtract`). Keys are binary, so
/// the product is a sum of shifted copies of `torus` and stays exact —
/// no FFT noise inside key operations.
///
/// The negacyclic extension `ext = [−t ‖ t]` (its halves swapped to
/// subtract) turns `X^i·t` into the contiguous window
/// `ext[N−i .. 2N−i]`, so the product is a sum of windows: four set key
/// bits per pass over `acc`, wrapping adds only, no branch in the inner
/// loop. Integer arithmetic mod 2^64 is exact, so the grouping of the
/// additions cannot change a bit of the result. `ext` is caller-owned
/// scratch of `2N` words.
///
/// # Panics
///
/// Panics if `torus`, `key` or `ext` do not match `acc`'s length `N`.
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
// lint:hot-path-end

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

    /// Key shapes the oracle test covers at every size.
    #[derive(Clone, Copy, Debug)]
    enum KeyShape {
        Random,
        Weight0,
        WeightN,
        FirstBit,
        LastBit,
    }

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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn binary_product_matches_naive_oracle(
            subtract in proptest::any::<bool>(),
            seed in proptest::any::<u64>(),
        ) {
            use KeyShape::*;
            let mut rng = NoiseSampler::from_seed(seed);
            for n in [2usize, 4, 64, 1024] {
                for shape in [Random, Weight0, WeightN, FirstBit, LastBit] {
                    let mut torus = vec![0u64; n];
                    rng.fill_uniform(&mut torus);
                    let mut acc = vec![0u64; n];
                    rng.fill_uniform(&mut acc);
                    let key = key_of(shape, n, &mut rng);
                    let prod = naive_binary_product(&torus, &key);
                    let want: Vec<u64> = acc
                        .iter()
                        .zip(&prod)
                        .map(|(&a, &p)| if subtract { a.wrapping_sub(p) } else { a.wrapping_add(p) })
                        .collect();
                    // Stale scratch contents must not leak into the product.
                    let mut ext = vec![0u64; 2 * n];
                    rng.fill_uniform(&mut ext);
                    add_binary_product(&mut acc, &torus, &key, subtract, &mut ext);
                    proptest::prop_assert_eq!(acc, want, "n={} {:?}", n, shape);
                }
            }
        }

        #[test]
        fn noiseless_decrypt_phase_inverts_encrypt_exactly(
            log_n in proptest::prop::sample::select(vec![1u32, 2, 6, 10]),
            k in 1usize..4,
            seed in proptest::any::<u64>(),
        ) {
            let n = 1usize << log_n;
            let mut rng = NoiseSampler::from_seed(seed);
            let sk = GlweSecretKey::generate(k, n, &mut rng);
            let mut msg = TorusPolynomial::zero(n);
            rng.fill_uniform(msg.coeffs_mut());
            let ct = sk.encrypt(&msg, 0.0, &mut rng);
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
