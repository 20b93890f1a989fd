//! LWE ciphertexts — the paper's `c[n+1] = [a_1, …, a_n, b]` vectors.
//!
//! Encryption follows the standard LWE template on the discretised
//! torus: `b = Σ a_i·s_i + m + e` with a binary secret and Gaussian
//! noise. The *phase* `b − Σ a_i·s_i = m + e` is what decryption and
//! the blind rotation consume.

use serde::{Deserialize, Serialize};

use crate::rng::NoiseSampler;
use crate::TfheError;

/// A binary LWE secret key of dimension `n`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LweSecretKey {
    bits: Vec<u64>,
}

impl LweSecretKey {
    /// Samples a fresh binary key of the given dimension.
    pub fn generate(dimension: usize, rng: &mut NoiseSampler) -> Self {
        let mut bits = vec![0u64; dimension];
        rng.fill_binary(&mut bits);
        Self { bits }
    }

    /// Builds a key from explicit bits (used by sample extraction).
    ///
    /// # Panics
    ///
    /// Panics if any entry is not 0 or 1.
    pub fn from_bits(bits: Vec<u64>) -> Self {
        assert!(bits.iter().all(|&b| b <= 1), "secret key bits must be binary");
        Self { bits }
    }

    /// Key dimension `n`.
    #[inline]
    pub fn dimension(&self) -> usize {
        self.bits.len()
    }

    /// Borrow of the key bits.
    #[inline]
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Encrypts a plaintext torus element with the given noise standard
    /// deviation (relative to the torus).
    pub fn encrypt(&self, plaintext: u64, noise_std: f64, rng: &mut NoiseSampler) -> LweCiphertext {
        let n = self.dimension();
        let mut data = vec![0u64; n + 1];
        rng.fill_uniform(&mut data[..n]);
        data[n] = self.body_for_mask(&data[..n], plaintext, noise_std, rng);
        LweCiphertext { data }
    }

    /// The body element `m + e + Σ a_i s_i` of an encryption under a
    /// caller-supplied mask — all that seeded key transport ships of a
    /// row whose mask comes from a shared CRS stream. Noise comes from
    /// the private `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the key dimension
    /// (internal key-generation invariant, not a runtime path).
    pub(crate) fn body_for_mask(
        &self,
        mask: &[u64],
        plaintext: u64,
        noise_std: f64,
        rng: &mut NoiseSampler,
    ) -> u64 {
        assert_eq!(mask.len(), self.dimension(), "mask length mismatch");
        let mut body = plaintext.wrapping_add(rng.gaussian_torus(noise_std));
        for (a, s) in mask.iter().zip(&self.bits) {
            body = body.wrapping_add(a.wrapping_mul(*s));
        }
        body
    }

    /// Computes the phase `b − Σ a_i s_i = m + e`.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if the ciphertext
    /// dimension differs from the key's.
    pub fn decrypt_phase(&self, ct: &LweCiphertext) -> Result<u64, TfheError> {
        if ct.dimension() != self.dimension() {
            return Err(TfheError::ParameterMismatch {
                what: "lwe dimension",
                left: ct.dimension(),
                right: self.dimension(),
            });
        }
        let mut phase = ct.body();
        for (a, s) in ct.mask().iter().zip(&self.bits) {
            phase = phase.wrapping_sub(a.wrapping_mul(*s));
        }
        Ok(phase)
    }
}

/// An LWE ciphertext `[a_1, …, a_n, b]`, stored contiguously with the
/// body in the last slot (the paper's layout).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LweCiphertext {
    data: Vec<u64>,
}

impl LweCiphertext {
    /// A noiseless encryption of `plaintext` under *any* key: zero mask,
    /// body = plaintext. Used for public constants.
    pub fn trivial(dimension: usize, plaintext: u64) -> Self {
        let mut data = vec![0u64; dimension + 1];
        data[dimension] = plaintext;
        Self { data }
    }

    /// Builds a ciphertext from raw elements `[a_1, …, a_n, b]`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty (there must at least be a body).
    pub fn from_raw(data: Vec<u64>) -> Self {
        assert!(!data.is_empty(), "an LWE ciphertext needs at least a body element");
        Self { data }
    }

    /// Mask length `n`.
    #[inline]
    pub fn dimension(&self) -> usize {
        self.data.len() - 1
    }

    /// The mask `[a_1, …, a_n]`.
    #[inline]
    pub fn mask(&self) -> &[u64] {
        &self.data[..self.data.len() - 1]
    }

    /// The body `b`.
    #[inline]
    pub fn body(&self) -> u64 {
        self.data[self.data.len() - 1]
    }

    /// Full element slice `[a_1, …, a_n, b]`.
    #[inline]
    pub fn as_raw(&self) -> &[u64] {
        &self.data
    }

    /// Mutable body access (used by gate offsets).
    #[inline]
    pub fn body_mut(&mut self) -> &mut u64 {
        let n = self.data.len() - 1;
        &mut self.data[n]
    }

    /// Homomorphic addition: `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on dimension mismatch.
    pub fn add_assign(&mut self, other: &LweCiphertext) -> Result<(), TfheError> {
        self.check_dim(other)?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = a.wrapping_add(*b);
        }
        Ok(())
    }

    /// Homomorphic subtraction: `self -= other`.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on dimension mismatch.
    pub fn sub_assign(&mut self, other: &LweCiphertext) -> Result<(), TfheError> {
        self.check_dim(other)?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = a.wrapping_sub(*b);
        }
        Ok(())
    }

    /// Homomorphic negation.
    pub fn negate(&mut self) {
        for a in &mut self.data {
            *a = a.wrapping_neg();
        }
    }

    /// Fused multiply-add: `self += c · other` in one pass, without
    /// materialising the scaled ciphertext. `c == 0` is a no-op
    /// (bit-identical to adding the explicitly-zeroed product). This is
    /// the linear-preamble hot path of the streaming executor.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on dimension mismatch.
    pub fn add_scaled_assign(&mut self, other: &LweCiphertext, c: i64) -> Result<(), TfheError> {
        self.check_dim(other)?;
        if c == 0 {
            return Ok(());
        }
        let c = c as u64;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = a.wrapping_add(b.wrapping_mul(c));
        }
        Ok(())
    }

    /// Homomorphic multiplication by a small signed integer constant.
    pub fn scalar_mul_assign(&mut self, c: i64) {
        let c = c as u64;
        for a in &mut self.data {
            *a = a.wrapping_mul(c);
        }
    }

    /// Adds a plaintext constant to the encrypted message.
    pub fn plaintext_add_assign(&mut self, plaintext: u64) {
        let n = self.data.len() - 1;
        self.data[n] = self.data[n].wrapping_add(plaintext);
    }

    fn check_dim(&self, other: &LweCiphertext) -> Result<(), TfheError> {
        if self.dimension() != other.dimension() {
            return Err(TfheError::ParameterMismatch {
                what: "lwe dimension",
                left: self.dimension(),
                right: other.dimension(),
            });
        }
        Ok(())
    }
}

// Lets batch entry points (`KeySwitchKey::keyswitch_batch[_parallel]`)
// accept `&[LweCiphertext]` and `&[&LweCiphertext]` alike, so callers
// holding ciphertexts inside larger structures (e.g. the runtime's
// per-request queue) can batch without cloning.
impl AsRef<LweCiphertext> for LweCiphertext {
    #[inline]
    fn as_ref(&self) -> &LweCiphertext {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::{decode_message, encode_fraction};

    fn setup() -> (LweSecretKey, NoiseSampler) {
        let mut rng = NoiseSampler::from_seed(2024);
        let sk = LweSecretKey::generate(128, &mut rng);
        (sk, rng)
    }

    #[test]
    fn add_scaled_assign_matches_scale_then_add() {
        let (sk, mut rng) = setup();
        let std = 2.0f64.powi(-30);
        for c in [-2i64, -1, 0, 1, 2, 7] {
            let a = sk.encrypt(encode_fraction(1, 5), std, &mut rng);
            let b = sk.encrypt(encode_fraction(2, 5), std, &mut rng);
            let mut fused = a.clone();
            fused.add_scaled_assign(&b, c).unwrap();
            let mut reference = b.clone();
            reference.scalar_mul_assign(c);
            let mut expected = a;
            expected.add_assign(&reference).unwrap();
            assert_eq!(fused, expected, "c = {c}");
        }
        // Dimension mismatch is rejected.
        let mut short = LweCiphertext::trivial(4, 0);
        assert!(short.add_scaled_assign(&LweCiphertext::trivial(5, 0), 1).is_err());
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let (sk, mut rng) = setup();
        for msg in 0..8u64 {
            let pt = encode_fraction(msg as i64, 3);
            let ct = sk.encrypt(pt, 2.0f64.powi(-20), &mut rng);
            let phase = sk.decrypt_phase(&ct).unwrap();
            assert_eq!(decode_message(phase, 3), msg);
        }
    }

    #[test]
    fn trivial_ciphertext_decrypts_under_any_key() {
        let (sk, _) = setup();
        let pt = encode_fraction(3, 3);
        let ct = LweCiphertext::trivial(sk.dimension(), pt);
        assert_eq!(sk.decrypt_phase(&ct).unwrap(), pt);
    }

    #[test]
    fn homomorphic_addition() {
        let (sk, mut rng) = setup();
        let std = 2.0f64.powi(-24);
        let mut c1 = sk.encrypt(encode_fraction(1, 4), std, &mut rng);
        let c2 = sk.encrypt(encode_fraction(2, 4), std, &mut rng);
        c1.add_assign(&c2).unwrap();
        let phase = sk.decrypt_phase(&c1).unwrap();
        assert_eq!(decode_message(phase, 4), 3);
    }

    #[test]
    fn homomorphic_subtraction_and_negation() {
        let (sk, mut rng) = setup();
        let std = 2.0f64.powi(-24);
        let mut c1 = sk.encrypt(encode_fraction(5, 4), std, &mut rng);
        let c2 = sk.encrypt(encode_fraction(2, 4), std, &mut rng);
        c1.sub_assign(&c2).unwrap();
        assert_eq!(decode_message(sk.decrypt_phase(&c1).unwrap(), 4), 3);

        c1.negate();
        // -3 ≡ 13 (mod 16)
        assert_eq!(decode_message(sk.decrypt_phase(&c1).unwrap(), 4), 13);
    }

    #[test]
    fn scalar_multiplication() {
        let (sk, mut rng) = setup();
        let mut ct = sk.encrypt(encode_fraction(1, 4), 2.0f64.powi(-30), &mut rng);
        ct.scalar_mul_assign(3);
        assert_eq!(decode_message(sk.decrypt_phase(&ct).unwrap(), 4), 3);
    }

    #[test]
    fn plaintext_addition_shifts_message() {
        let (sk, mut rng) = setup();
        let mut ct = sk.encrypt(encode_fraction(1, 4), 2.0f64.powi(-30), &mut rng);
        ct.plaintext_add_assign(encode_fraction(4, 4));
        assert_eq!(decode_message(sk.decrypt_phase(&ct).unwrap(), 4), 5);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let (sk, mut rng) = setup();
        let ct = sk.encrypt(0, 2.0f64.powi(-20), &mut rng);
        let other = LweCiphertext::trivial(64, 0);
        let mut c = ct.clone();
        assert!(matches!(
            c.add_assign(&other),
            Err(TfheError::ParameterMismatch { what: "lwe dimension", .. })
        ));
        assert!(sk.decrypt_phase(&other).is_err());
    }

    #[test]
    fn mask_is_random_body_depends_on_key() {
        let (sk, mut rng) = setup();
        let c1 = sk.encrypt(0, 2.0f64.powi(-20), &mut rng);
        let c2 = sk.encrypt(0, 2.0f64.powi(-20), &mut rng);
        assert_ne!(c1.mask(), c2.mask(), "fresh masks must differ");
    }
}
