//! Client and server key pairs.
//!
//! The [`ClientKey`] holds the secrets and performs encryption and
//! decryption; the [`ServerKey`] holds only public evaluation material
//! (the bootstrapping key and keyswitching key) and performs every
//! homomorphic operation. The split mirrors the deployment model the
//! paper targets: the server — or the Strix accelerator — never sees a
//! secret key.

use crate::bootstrap::{pattern_indicator, BootstrapKey, MultiBitBootstrapKey};
use crate::decompose::DecompositionParams;
use crate::ggsw::GgswCiphertext;
use crate::glwe::GlweSecretKey;
use crate::keyswitch::KeySwitchKey;
use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::params::TfheParameters;
use crate::poly::TorusPolynomial;
use crate::rng::{derive_seed, NoiseSampler};
use crate::TfheError;
use strix_fft::StrixFftBackend;

/// CRS stream labels: each seeded-key component regenerates its public
/// masks from an independent sub-stream of the one transported seed, so
/// expansion order never couples the components.
const CRS_BSK_STREAM: u64 = 1;
const CRS_MBSK_STREAM: u64 = 2;
const CRS_KSK_STREAM: u64 = 3;
const CRS_BENCHMARK_STREAM: u64 = 4;

/// Secret key material plus encryption/decryption helpers.
#[derive(Clone, Debug)]
pub struct ClientKey {
    params: TfheParameters,
    lwe_sk: LweSecretKey,
    glwe_sk: GlweSecretKey,
    extracted_sk: LweSecretKey,
    rng: NoiseSampler,
}

impl ClientKey {
    /// Generates a fresh client key.
    pub fn generate(params: &TfheParameters, seed: u64) -> Self {
        // lint:allow(panic) documented constructor contract
        params.validate().expect("parameter set must be valid");
        let mut rng = NoiseSampler::from_seed(seed);
        let lwe_sk = LweSecretKey::generate(params.lwe_dimension, &mut rng);
        let glwe_sk =
            GlweSecretKey::generate(params.glwe_dimension, params.polynomial_size, &mut rng);
        let extracted_sk = glwe_sk.to_extracted_lwe_key();
        Self { params: params.clone(), lwe_sk, glwe_sk, extracted_sk, rng }
    }

    /// The parameter set this key was generated for.
    #[inline]
    pub fn params(&self) -> &TfheParameters {
        &self.params
    }

    /// The LWE secret key (dimension `n`).
    #[inline]
    pub fn lwe_secret_key(&self) -> &LweSecretKey {
        &self.lwe_sk
    }

    /// The GLWE secret key.
    #[inline]
    pub fn glwe_secret_key(&self) -> &GlweSecretKey {
        &self.glwe_sk
    }

    /// The extracted LWE key (dimension `k·N`) under which raw PBS
    /// outputs decrypt.
    #[inline]
    pub fn extracted_secret_key(&self) -> &LweSecretKey {
        &self.extracted_sk
    }

    /// Encrypts a raw torus plaintext under the `n`-dimension key.
    pub fn encrypt_torus(&mut self, plaintext: u64) -> LweCiphertext {
        let std = self.params.lwe_noise_std;
        self.lwe_sk.encrypt(plaintext, std, &mut self.rng)
    }

    /// Decrypts the phase of a ciphertext under whichever of the two
    /// keys matches its dimension.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if the dimension matches
    /// neither key.
    pub fn decrypt_phase(&self, ct: &LweCiphertext) -> Result<u64, TfheError> {
        if ct.dimension() == self.lwe_sk.dimension() {
            self.lwe_sk.decrypt_phase(ct)
        } else {
            self.extracted_sk.decrypt_phase(ct)
        }
    }

    /// Derives the matching server key.
    ///
    /// The classical bootstrapping key is always generated (it is the
    /// fallback every dispatch path can rely on); when the parameter
    /// set selects [`PbsKernel::MultiBit`](crate::params::PbsKernel::MultiBit), the grouped multi-bit key
    /// is generated alongside it.
    pub fn server_key(&mut self) -> ServerKey {
        let bsk = BootstrapKey::generate(&self.lwe_sk, &self.glwe_sk, &self.params, &mut self.rng);
        let mbsk = self.params.pbs_kernel.grouping_factor().map(|g| {
            MultiBitBootstrapKey::generate(
                &self.lwe_sk,
                &self.glwe_sk,
                &self.params,
                g,
                &mut self.rng,
            )
        });
        let ksk =
            KeySwitchKey::generate(&self.extracted_sk, &self.lwe_sk, &self.params, &mut self.rng);
        ServerKey { params: self.params.clone(), bsk, mbsk, ksk }
    }

    /// Derives the matching server key in **seeded transport form**:
    /// every public mask is drawn from a common-reference stream of
    /// `crs_seed`, so the payload ships only the body polynomials —
    /// roughly `1/(k+1)` of the full bootstrapping-key bytes (half at
    /// `k = 1`). The receiving side calls [`SeededServerKey::expand`]
    /// to regenerate the masks and materialise the Fourier keys.
    pub fn seeded_server_key(&mut self, crs_seed: u64) -> SeededServerKey {
        let decomp = DecompositionParams::new(self.params.pbs_base_log, self.params.pbs_level);
        let noise_std = self.params.glwe_noise_std;
        let mut crs = NoiseSampler::from_derived_seed(crs_seed, CRS_BSK_STREAM);
        let bsk_bodies = self
            .lwe_sk
            .bits()
            .iter()
            .map(|&s| {
                let ggsw = GgswCiphertext::encrypt_scalar_seeded(
                    s,
                    &self.glwe_sk,
                    decomp,
                    noise_std,
                    &mut self.rng,
                    &mut crs,
                );
                ggsw.rows().iter().map(|r| r.body().clone()).collect()
            })
            .collect();
        let mbsk_bodies = self.params.pbs_kernel.grouping_factor().map(|g| {
            let mut crs = NoiseSampler::from_derived_seed(crs_seed, CRS_MBSK_STREAM);
            self.lwe_sk
                .bits()
                .chunks(g)
                .map(|bits| {
                    (0..1usize << bits.len())
                        .map(|pattern| {
                            let ggsw = GgswCiphertext::encrypt_scalar_seeded(
                                pattern_indicator(bits, pattern),
                                &self.glwe_sk,
                                decomp,
                                noise_std,
                                &mut self.rng,
                                &mut crs,
                            );
                            ggsw.rows().iter().map(|r| r.body().clone()).collect()
                        })
                        .collect()
                })
                .collect()
        });
        let mut crs = NoiseSampler::from_derived_seed(crs_seed, CRS_KSK_STREAM);
        let ksk_bodies = KeySwitchKey::generate_seeded(
            &self.extracted_sk,
            &self.lwe_sk,
            &self.params,
            &mut self.rng,
            &mut crs,
        )
        .bodies();
        SeededServerKey {
            params: self.params.clone(),
            crs_seed,
            payload: SeededKeyPayload::Real { bsk_bodies, mbsk_bodies, ksk_bodies },
        }
    }
}

/// Public evaluation keys: everything the server (or accelerator) needs.
#[derive(Clone, Debug)]
pub struct ServerKey {
    pub(crate) params: TfheParameters,
    pub(crate) bsk: BootstrapKey,
    pub(crate) mbsk: Option<MultiBitBootstrapKey>,
    pub(crate) ksk: KeySwitchKey,
}

impl ServerKey {
    /// The parameter set this key was generated for.
    #[inline]
    pub fn params(&self) -> &TfheParameters {
        &self.params
    }

    /// The classical bootstrapping key (always present).
    #[inline]
    pub fn bootstrap_key(&self) -> &BootstrapKey {
        &self.bsk
    }

    /// The multi-bit bootstrapping key, present when the parameter set
    /// was generated with a [`PbsKernel::MultiBit`](crate::params::PbsKernel::MultiBit) kernel. Dispatchers
    /// that find `None` fall back to the classical kernel.
    #[inline]
    pub fn multi_bit_bootstrap_key(&self) -> Option<&MultiBitBootstrapKey> {
        self.mbsk.as_ref()
    }

    /// The keyswitching key.
    #[inline]
    pub fn keyswitch_key(&self) -> &KeySwitchKey {
        &self.ksk
    }

    /// The resolved SIMD kernel backend this key's spectral plans run
    /// on (never [`StrixFftBackend::Auto`]): the parameter set's
    /// requested backend after runtime CPU dispatch.
    #[inline]
    pub fn fft_backend(&self) -> StrixFftBackend {
        self.bsk.fft().backend()
    }

    /// Total evaluation-key footprint in bytes (bsk + optional mbsk +
    /// ksk) — the quantity Table I contrasts against CKKS's
    /// gigabyte-scale keys.
    pub fn key_bytes(&self) -> usize {
        self.bsk.byte_size()
            + self.mbsk.as_ref().map_or(0, MultiBitBootstrapKey::byte_size)
            + self.ksk.byte_size()
    }

    /// Generates a *timing-equivalent* server key without the full
    /// (hours-long at production parameters) bootstrapping keygen: the
    /// bsk comes from [`BootstrapKey::generate_for_benchmark`] (same
    /// arithmetic, cryptographically meaningless), while the ksk is a
    /// real keyswitching key over freshly drawn secret keys — ksk
    /// generation is cheap, and a real ksk keeps the keyswitch path's
    /// memory traffic honest. Suitable only for performance
    /// measurements (the closed-loop SLO harness); outputs do not
    /// decrypt meaningfully.
    pub fn generate_for_benchmark(params: &TfheParameters, seed: u64) -> Self {
        // lint:allow(panic) documented constructor contract
        params.validate().expect("parameter set must be valid");
        let mut rng = NoiseSampler::from_seed(seed);
        let bsk = BootstrapKey::generate_for_benchmark(params);
        let mbsk = params
            .pbs_kernel
            .grouping_factor()
            .map(|g| MultiBitBootstrapKey::generate_for_benchmark(params, g));
        let glwe_sk =
            GlweSecretKey::generate(params.glwe_dimension, params.polynomial_size, &mut rng);
        let lwe_sk = LweSecretKey::generate(params.lwe_dimension, &mut rng);
        let ksk =
            KeySwitchKey::generate(&glwe_sk.to_extracted_lwe_key(), &lwe_sk, params, &mut rng);
        Self { params: params.clone(), bsk, mbsk, ksk }
    }
}

/// A server key in seeded (compressed) transport form.
///
/// LWE/GLWE mask material is uniformly random and therefore incompressible —
/// unless both sides agree to derive it from a shared seed. A seeded key
/// ships the 64-bit CRS seed plus only the *body* part of every key row
/// (phantom-zone's seed-expansion idiom): `1/(k+1)` of the GGSW bytes
/// and `1/(n+1)` of the keyswitching-key bytes. [`Self::expand`]
/// regenerates the masks deterministically through
/// [`NoiseSampler::from_derived_seed`] and materialises the Fourier-form
/// [`ServerKey`] — the lazy, CPU-heavy half the runtime's key registry
/// defers until a tenant's key first becomes resident.
#[derive(Clone, Debug)]
pub struct SeededServerKey {
    params: TfheParameters,
    crs_seed: u64,
    payload: SeededKeyPayload,
}

/// What the transport actually carries.
#[derive(Clone, Debug)]
enum SeededKeyPayload {
    /// Real bodies for every component (mbsk only under a multi-bit
    /// kernel), in generation order.
    Real {
        /// One entry per LWE secret bit; each holds `(k+1)·l` bodies.
        bsk_bodies: Vec<Vec<TorusPolynomial>>,
        /// Group-major, then pattern entry, then row.
        mbsk_bodies: Option<Vec<Vec<Vec<TorusPolynomial>>>>,
        /// One body element per keyswitching-key row.
        ksk_bodies: Vec<u64>,
    },
    /// Timing-equivalent stand-in: expansion runs
    /// [`ServerKey::generate_for_benchmark`] under a derived seed. Used
    /// by the capacity benchmarks, where real keygen at production
    /// parameters is prohibitive; byte accounting reports the size a
    /// real payload at these parameters would ship.
    Benchmark,
}

impl SeededServerKey {
    /// A timing-equivalent seeded key for capacity benchmarks: carries
    /// only parameters + seed and expands through the benchmark keygen
    /// path (same arithmetic shape, cryptographically meaningless).
    pub fn for_benchmark(params: &TfheParameters, crs_seed: u64) -> Self {
        // lint:allow(panic) documented constructor contract
        params.validate().expect("parameter set must be valid");
        Self { params: params.clone(), crs_seed, payload: SeededKeyPayload::Benchmark }
    }

    /// The parameter set this key was generated for.
    #[inline]
    pub fn params(&self) -> &TfheParameters {
        &self.params
    }

    /// The transported CRS seed.
    #[inline]
    pub fn crs_seed(&self) -> u64 {
        self.crs_seed
    }

    /// Expands the transport form into a full evaluation key:
    /// regenerates every mask from the CRS sub-streams in generation
    /// order, attaches the stored bodies, and materialises the
    /// Fourier-domain keys. Deterministic — expanding twice yields
    /// bit-identical key material.
    pub fn expand(&self) -> ServerKey {
        match &self.payload {
            SeededKeyPayload::Real { bsk_bodies, mbsk_bodies, ksk_bodies } => {
                let mut crs = NoiseSampler::from_derived_seed(self.crs_seed, CRS_BSK_STREAM);
                let bsk = BootstrapKey::from_seeded_parts(bsk_bodies, &self.params, &mut crs);
                let mbsk = self.params.pbs_kernel.grouping_factor().and_then(|g| {
                    mbsk_bodies.as_ref().map(|bodies| {
                        let mut crs =
                            NoiseSampler::from_derived_seed(self.crs_seed, CRS_MBSK_STREAM);
                        MultiBitBootstrapKey::from_seeded_parts(bodies, &self.params, g, &mut crs)
                    })
                });
                let mut crs = NoiseSampler::from_derived_seed(self.crs_seed, CRS_KSK_STREAM);
                let ksk = KeySwitchKey::from_seeded_parts(
                    ksk_bodies,
                    &self.params,
                    self.params.extracted_lwe_dimension(),
                    self.params.lwe_dimension,
                    &mut crs,
                );
                ServerKey { params: self.params.clone(), bsk, mbsk, ksk }
            }
            SeededKeyPayload::Benchmark => ServerKey::generate_for_benchmark(
                &self.params,
                derive_seed(self.crs_seed, CRS_BENCHMARK_STREAM),
            ),
        }
    }

    /// Bytes this key ships over the wire (bodies + the 8-byte seed).
    ///
    /// For the benchmark variant this reports the size a *real* payload
    /// at these parameters would occupy
    /// ([`TfheParameters::seeded_server_key_bytes`]), so capacity
    /// benchmarks account transport at production ratios.
    pub fn transport_bytes(&self) -> usize {
        match &self.payload {
            SeededKeyPayload::Real { bsk_bodies, mbsk_bodies, ksk_bodies } => {
                let poly_bytes = self.params.polynomial_size * 8;
                let bsk: usize = bsk_bodies.iter().map(|entry| entry.len() * poly_bytes).sum();
                let mbsk: usize = mbsk_bodies.as_ref().map_or(0, |groups| {
                    groups
                        .iter()
                        .flat_map(|entries| entries.iter().map(|entry| entry.len() * poly_bytes))
                        .sum()
                });
                bsk + mbsk + ksk_bodies.len() * 8 + 8
            }
            SeededKeyPayload::Benchmark => self.params.seeded_server_key_bytes(),
        }
    }
}

/// Generates a `(ClientKey, ServerKey)` pair from a seed.
///
/// # Example
///
/// ```
/// use strix_tfhe::prelude::*;
///
/// let params = TfheParameters::testing_fast();
/// let (mut client, server) = generate_keys(&params, 1);
/// let ct = client.encrypt_bool(true);
/// assert!(client.decrypt_bool(&ct));
/// # let _ = server;
/// ```
pub fn generate_keys(params: &TfheParameters, seed: u64) -> (ClientKey, ServerKey) {
    let mut client = ClientKey::generate(params, seed);
    let server = client.server_key();
    (client, server)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PbsKernel;

    #[test]
    fn generate_keys_produces_matching_dimensions() {
        let params = TfheParameters::testing_fast();
        let (client, server) = generate_keys(&params, 7);
        assert_eq!(client.lwe_secret_key().dimension(), params.lwe_dimension);
        assert_eq!(client.extracted_secret_key().dimension(), params.extracted_lwe_dimension());
        assert_eq!(server.bootstrap_key().input_dimension(), params.lwe_dimension);
        assert_eq!(server.keyswitch_key().output_dimension(), params.lwe_dimension);
        assert_eq!(server.keyswitch_key().input_dimension(), params.extracted_lwe_dimension());
    }

    #[test]
    fn key_bytes_matches_parameter_formulas() {
        let params = TfheParameters::testing_fast();
        let (_, server) = generate_keys(&params, 7);
        assert!(server.multi_bit_bootstrap_key().is_none());
        assert_eq!(server.key_bytes(), params.bootstrap_key_bytes() + params.keyswitch_key_bytes());
    }

    #[test]
    fn multi_bit_kernel_adds_grouped_key_material() {
        let g = 2;
        let params =
            TfheParameters::testing_fast().with_kernel(PbsKernel::MultiBit { grouping_factor: g });
        let (_, server) = generate_keys(&params, 7);
        let mbsk = server.multi_bit_bootstrap_key().expect("multi-bit kernel carries its key");
        assert_eq!(mbsk.grouping_factor(), g);
        assert_eq!(mbsk.group_count(), params.multi_bit_group_count(g));
        assert_eq!(
            server.key_bytes(),
            params.bootstrap_key_bytes()
                + params.multi_bit_bootstrap_key_bytes(g)
                + params.keyswitch_key_bytes()
        );
        // The classical key is still present as dispatch fallback.
        assert_eq!(server.bootstrap_key().input_dimension(), params.lwe_dimension);
    }

    #[test]
    fn benchmark_key_honours_multi_bit_kernel() {
        let params =
            TfheParameters::testing_fast().with_kernel(PbsKernel::MultiBit { grouping_factor: 3 });
        let server = ServerKey::generate_for_benchmark(&params, 5);
        let mbsk = server.multi_bit_bootstrap_key().expect("benchmark key honours the kernel");
        assert_eq!(mbsk.byte_size(), params.multi_bit_bootstrap_key_bytes(3));
        let lut = crate::bootstrap::Lut::sign(params.polynomial_size, 1);
        let ct = LweCiphertext::trivial(params.lwe_dimension, 0);
        assert!(mbsk.bootstrap(&ct, &lut).is_ok());
    }

    #[test]
    fn torus_encrypt_decrypt() {
        let params = TfheParameters::testing_fast();
        let (mut client, _) = generate_keys(&params, 11);
        let pt = crate::torus::encode_fraction(3, 4);
        let ct = client.encrypt_torus(pt);
        let phase = client.decrypt_phase(&ct).unwrap();
        assert_eq!(crate::torus::decode_message(phase, 4), 3);
    }

    #[test]
    fn benchmark_server_key_has_real_shapes() {
        let params = TfheParameters::testing_fast();
        let server = ServerKey::generate_for_benchmark(&params, 123);
        assert_eq!(server.bootstrap_key().input_dimension(), params.lwe_dimension);
        assert_eq!(server.keyswitch_key().input_dimension(), params.extracted_lwe_dimension());
        assert_eq!(server.keyswitch_key().output_dimension(), params.lwe_dimension);
        assert_eq!(server.key_bytes(), params.bootstrap_key_bytes() + params.keyswitch_key_bytes());
        // The PBS+KS pipeline runs end to end with the benchmark key.
        let lut = crate::bootstrap::Lut::sign(params.polynomial_size, 1);
        let ct = LweCiphertext::trivial(params.lwe_dimension, 0);
        let booted = server.bootstrap_key().bootstrap(&ct, &lut).unwrap();
        let switched = server.keyswitch_key().keyswitch(&booted).unwrap();
        assert_eq!(switched.dimension(), params.lwe_dimension);
    }

    #[test]
    fn seeded_key_expands_to_a_working_server_key() {
        let params = TfheParameters::testing_fast();
        let mut client = ClientKey::generate(&params, 21);
        let seeded = client.seeded_server_key(0xfeed);
        let server = seeded.expand();
        let a = client.encrypt_bool(true);
        let b = client.encrypt_bool(true);
        let c = server.nand(&a, &b).unwrap();
        assert!(!client.decrypt_bool(&c));
        let d = server.xor(&a, &c).unwrap();
        assert!(client.decrypt_bool(&d));
    }

    #[test]
    fn seeded_key_expands_with_multi_bit_kernel() {
        let params =
            TfheParameters::testing_fast().with_kernel(PbsKernel::MultiBit { grouping_factor: 2 });
        let mut client = ClientKey::generate(&params, 22);
        let server = client.seeded_server_key(0xbeef).expand();
        let mbsk = server.multi_bit_bootstrap_key().expect("multi-bit kernel carries its key");
        assert_eq!(mbsk.group_count(), params.multi_bit_group_count(2));
        let a = client.encrypt_bool(false);
        let b = client.encrypt_bool(true);
        let c = server.nand(&a, &b).unwrap();
        assert!(client.decrypt_bool(&c));
    }

    #[test]
    fn seeded_expansion_is_deterministic() {
        // Expanding twice must yield bit-identical evaluation keys —
        // the registry relies on eviction + re-expansion being
        // invisible to results.
        let params = TfheParameters::testing_fast();
        let mut client = ClientKey::generate(&params, 23);
        let seeded = client.seeded_server_key(77);
        let k1 = seeded.expand();
        let k2 = seeded.expand();
        let ct = client.encrypt_torus(crate::torus::encode_fraction(1, 4));
        let lut = crate::bootstrap::Lut::sign(params.polynomial_size, 1);
        let o1 = k1.bootstrap_key().bootstrap(&ct, &lut).unwrap();
        let o2 = k2.bootstrap_key().bootstrap(&ct, &lut).unwrap();
        assert_eq!(o1, o2);
        let s1 = k1.keyswitch_key().keyswitch(&o1).unwrap();
        let s2 = k2.keyswitch_key().keyswitch(&o2).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn seeded_transport_bytes_match_estimator_and_ratio() {
        for params in [
            TfheParameters::testing_fast(),
            TfheParameters::testing_fast().with_kernel(PbsKernel::MultiBit { grouping_factor: 2 }),
            TfheParameters::testing_k2(),
        ] {
            let mut client = ClientKey::generate(&params, 24);
            let seeded = client.seeded_server_key(1);
            assert_eq!(seeded.transport_bytes(), params.seeded_server_key_bytes());
            let full = seeded.expand().key_bytes();
            assert_eq!(full, params.server_key_bytes());
            let ratio = seeded.transport_bytes() as f64 / full as f64;
            assert!(ratio <= 0.6, "ratio {ratio} at {params:?}");
            // The benchmark stand-in accounts the same transport size.
            let bench = SeededServerKey::for_benchmark(&params, 1);
            assert_eq!(bench.transport_bytes(), seeded.transport_bytes());
            assert_eq!(bench.expand().key_bytes(), full);
        }
    }

    /// FNV-1a over 64-bit words: a stable fingerprint of key material.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3))
    }

    /// The bits of every real and imaginary Fourier plane, in entry order.
    fn planes(
        entries: impl Iterator<Item = impl Iterator<Item = f64>>,
    ) -> impl Iterator<Item = u64> {
        entries.flatten().map(f64::to_bits)
    }

    fn ksk_words(ksk: &KeySwitchKey) -> impl Iterator<Item = u64> + '_ {
        ksk.rows().iter().flat_map(|r| r.as_raw().iter().copied())
    }

    fn server_key_words(server: &ServerKey) -> impl Iterator<Item = u64> + '_ {
        let mbsk = server.mbsk.iter().flat_map(|m| planes(m.fourier_entries()));
        planes(server.bsk.fourier_entries()).chain(mbsk).chain(ksk_words(&server.ksk))
    }

    /// Digests of, in order: the classical bootstrapping key's Fourier
    /// planes, the g = 3 multi-bit key's planes, the keyswitching key's
    /// raw words (all three from `server_key`), the seeded payload's
    /// bodies, and the key `SeededServerKey::expand` materialises.
    fn key_digests(params: &TfheParameters, seed: u64) -> [u64; 5] {
        let params = params.clone().with_kernel(PbsKernel::MultiBit { grouping_factor: 3 });
        let mut client = ClientKey::generate(&params, seed);
        let server = client.server_key();
        let bsk = fnv(planes(server.bsk.fourier_entries()));
        let mbsk = fnv(planes(server.mbsk.as_ref().expect("g = 3 key").fourier_entries()));
        let ksk = fnv(ksk_words(&server.ksk));
        drop(server);
        let seeded = client.seeded_server_key(seed ^ 0x5eed);
        let SeededKeyPayload::Real { bsk_bodies, mbsk_bodies, ksk_bodies } = &seeded.payload else {
            panic!("a client key ships real bodies");
        };
        let mbsk_bodies = mbsk_bodies.iter().flatten().flatten().flatten();
        let bodies = fnv(bsk_bodies
            .iter()
            .flatten()
            .chain(mbsk_bodies)
            .flat_map(|p| p.coeffs().iter().copied())
            .chain(ksk_bodies.iter().copied()));
        let expanded = fnv(server_key_words(&seeded.expand()));
        [bsk, mbsk, ksk, bodies, expanded]
    }

    /// Key generation and seeded expansion must reproduce these keys bit
    /// for bit: every pinned PBS output downstream rests on them. A
    /// change here means the RNG draw order or the key arithmetic moved.
    #[test]
    fn key_material_matches_golden_digests() {
        let hex = |d: [u64; 5]| d.map(|x| format!("{x:#018x}"));
        assert_eq!(
            hex(key_digests(&TfheParameters::testing_fast(), 1)),
            [
                "0xb790779d01601b11",
                "0x34b931d8af592651",
                "0x6fec157c65f6fe11",
                "0x3e269a2d0f4e4b0d",
                "0x4ece94943e3713dc",
            ],
            "testing_fast"
        );
        // Set II generates ~28k GLWE rows: minutes unoptimized, ~2 s in
        // release, where CI's kernel-matrix step runs this test.
        if cfg!(debug_assertions) {
            return;
        }
        assert_eq!(
            hex(key_digests(&TfheParameters::set_ii(), 2)),
            [
                "0xbc0e087a5cd347af",
                "0xa174a04da431014b",
                "0xf208c9111f772296",
                "0x9f45df5e9c58f4b1",
                "0xca0b737dde2c0084",
            ],
            "set-II"
        );
    }

    /// Digest of a g = 3 multi-bit batch of nine PBS outputs: two full
    /// job blocks and a partial one, one zero-rotation (trivial) job,
    /// two alternating LUTs, on real keys of `params`.
    fn multi_bit_output_digest(params: &TfheParameters, seed: u64) -> u64 {
        use crate::bootstrap::{Lut, PbsJob};
        let params = params.clone().with_kernel(PbsKernel::MultiBit { grouping_factor: 3 });
        let mut client = ClientKey::generate(&params, seed);
        let server = client.server_key();
        let n = params.polynomial_size;
        let luts = [Lut::from_function(n, 2, |m| (3 * m + 1) % 4).unwrap(), Lut::sign(n, 1 << 61)];
        let mut cts: Vec<LweCiphertext> =
            (0..9u64).map(|m| client.encrypt_torus((m % 4) << 61)).collect();
        cts[4] = LweCiphertext::trivial(params.lwe_dimension, 1 << 61);
        let jobs: Vec<PbsJob<'_>> =
            cts.iter().enumerate().map(|(i, ct)| PbsJob { ct, lut: &luts[i % 2] }).collect();
        let mbsk = server.multi_bit_bootstrap_key().expect("g = 3 key");
        let outputs = mbsk.bootstrap_batch(&jobs).unwrap();
        fnv(outputs.iter().flat_map(|ct| ct.as_raw().iter().copied()))
    }

    /// The multi-bit kernel must reproduce these outputs bit for bit:
    /// any reordering of its floating-point work (key layout, assembly,
    /// VMA loop nest) that moves a single bit shows here.
    #[test]
    fn multi_bit_pbs_output_matches_golden_digest() {
        let hex = |d: u64| format!("{d:#018x}");
        assert_eq!(
            hex(multi_bit_output_digest(&TfheParameters::testing_fast(), 5)),
            "0xccbc398fdb9805bf",
            "testing_fast"
        );
        // Set-II keygen and PBS are release-only, like the key digests.
        if cfg!(debug_assertions) {
            return;
        }
        assert_eq!(
            hex(multi_bit_output_digest(&TfheParameters::set_ii(), 6)),
            "0x2a87e334bc7c19bf",
            "set-II"
        );
    }

    #[test]
    #[should_panic(expected = "parameter set must be valid")]
    fn invalid_parameters_panic_at_keygen() {
        let mut params = TfheParameters::testing_fast();
        params.polynomial_size = 100;
        ClientKey::generate(&params, 0);
    }
}
