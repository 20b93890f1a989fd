//! Client and server key pairs.
//!
//! The [`ClientKey`] holds the secrets and performs encryption and
//! decryption; the [`ServerKey`] holds only public evaluation material
//! (the bootstrapping key and keyswitching key) and performs every
//! homomorphic operation. The split mirrors the deployment model the
//! paper targets: the server — or the Strix accelerator — never sees a
//! secret key.

use crate::bootstrap::{
    pattern_indicator, BootstrapKey, ClassicalBootstrapKey, MultiBitBootstrapKey,
};
use crate::decompose::DecompositionParams;
use crate::ggsw::{FourierGgsw, GgswKeygen, KeyEntries, KeySamplers};
use crate::glwe::GlweSecretKey;
use crate::keyswitch::KeySwitchKey;
use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::params::{PbsKernel, TfheParameters};
use crate::rng::{derive_seed, NoiseSampler};
use crate::TfheError;
use std::sync::Arc;
use strix_fft::{NegacyclicFft, StrixFftBackend};

/// CRS stream labels: each seeded-key component regenerates its public
/// masks from an independent sub-stream of the one transported seed, so
/// expansion order never couples the components. The multi-bit key's
/// label is offset by its grouping factor.
const CRS_BSK_STREAM: u64 = 1;
const CRS_KSK_STREAM: u64 = 3;
const CRS_BENCHMARK_STREAM: u64 = 4;
const CRS_MBSK_STREAM: u64 = 0x20;

/// Client stream label of a multi-bit client, offset by its grouping
/// factor: after the secrets, such a client draws from this sub-stream
/// of its seed (see [`ClientKey::generate`]). Distinct from every CRS
/// label, so no client draw can equal a public mask draw.
const MULTI_BIT_CLIENT_STREAM: u64 = 0x10;

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
    ///
    /// The secret keys are the seed's first draws under every kernel, so
    /// one seed gives one pair of secrets whatever
    /// [`TfheParameters::pbs_kernel`] says. What follows continues the
    /// seed's stream on a classical client, and on a multi-bit client
    /// switches to a sub-stream of the seed, one per grouping factor.
    /// That stream is private: it carries a server key's seed draw, its
    /// key noise and keyswitching-key noise, and every encryption, while
    /// every public key mask comes from a stream of that drawn seed
    /// ([`Self::server_key`]). Clients of one seed under different
    /// kernels therefore share their secrets and no later draw: their
    /// server keys encrypt different plaintexts, and had two of them
    /// drawn one mask and noise for one entry, the difference of the
    /// bodies would reveal the secret bit. Two clients of one seed
    /// *and* kernel replay each other's draws, so reusing a seed is for
    /// tests only.
    pub fn generate(params: &TfheParameters, seed: u64) -> Self {
        // lint:allow(panic) documented constructor contract
        params.validate().expect("parameter set must be valid");
        let mut rng = NoiseSampler::from_seed(seed);
        let lwe_sk = LweSecretKey::generate(params.lwe_dimension, &mut rng);
        let glwe_sk =
            GlweSecretKey::generate(params.glwe_dimension, params.polynomial_size, &mut rng);
        let extracted_sk = glwe_sk.to_extracted_lwe_key();
        if let Some(g) = params.pbs_kernel.grouping_factor() {
            rng = NoiseSampler::from_derived_seed(seed, MULTI_BIT_CLIENT_STREAM + g as u64);
        }
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

    /// Derives the matching server key: one blind-rotation key, of the
    /// parameter set's kernel ([`TfheParameters::pbs_kernel`]), then the
    /// keyswitching key. A multi-bit server carries no classical key:
    /// every bootstrap on it, gates and LUTs included, runs the grouped
    /// kernel.
    ///
    /// It is the seeded key of one fresh seed, materialised in place:
    /// one draw from this client's stream gives a seed `s`, and the key
    /// is bit for bit `self.seeded_server_key(s).expand()` on a client
    /// before that draw. After the draw, this client's stream carries
    /// the blind-rotation key's noise, then the keyswitching key's;
    /// every mask comes from a public stream of `s`. Each entry goes
    /// straight from its (mask, body) words into the Fourier key, so no
    /// time-domain copy of the bodies is ever held beside it.
    pub fn server_key(&mut self) -> ServerKey {
        let crs_seed = self.rng.uniform_torus();
        let params = self.params.clone();
        let bsk = self.generate_entries(crs_seed, |entries| {
            BootstrapKey::build(&params, |coeffs| entries.next_coefficients(coeffs))
        });
        ServerKey { bsk, ksk: self.keyswitch_key(crs_seed), params }
    }

    /// Derives the matching server key in **seeded transport form**:
    /// every public mask is drawn from a common-reference stream of
    /// `crs_seed`, so the payload ships only the body polynomials of
    /// the one blind-rotation key (see [`Self::server_key`]) —
    /// roughly `1/(k+1)` of its full bytes (half at `k = 1`). The
    /// receiving side calls [`SeededServerKey::expand`] to regenerate
    /// the masks and materialise the Fourier keys.
    pub fn seeded_server_key(&mut self, crs_seed: u64) -> SeededServerKey {
        let entry_words = self.params.ggsw_row_count() * self.params.polynomial_size;
        let entries = entry_plaintexts(&self.params, self.lwe_sk.bits()).len();
        let mut bsk_bodies = vec![0; entries * entry_words];
        self.generate_entries(crs_seed, |entries| {
            for bodies in bsk_bodies.chunks_exact_mut(entry_words) {
                entries.next_bodies(bodies);
            }
        });
        let ksk_bodies = self.keyswitch_key(crs_seed).into_bodies();
        SeededServerKey::new(
            self.params.clone(),
            crs_seed,
            SeededKeyPayload::Real { bsk_bodies, ksk_bodies },
        )
    }

    /// Generates the blind-rotation key's entries, masks from
    /// `crs_seed`'s sub-stream for the kernel and noise from this
    /// client's stream: `consume` takes them in key order.
    fn generate_entries<R>(
        &mut self,
        crs_seed: u64,
        consume: impl FnOnce(&mut KeyEntries<'_, '_>) -> R,
    ) -> R {
        let params = &self.params;
        let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
        let plaintexts = entry_plaintexts(params, self.lwe_sk.bits());
        let mut crs = NoiseSampler::from_derived_seed(crs_seed, bsk_crs_stream(params));
        let fft = NegacyclicFft::with_backend(params.polynomial_size, params.fft_backend)
            // lint:allow(panic) parameters were validated at construction
            .expect("validated parameters have power-of-two N and an available backend");
        let mut keygen = GgswKeygen::new(&self.glwe_sk, &fft, decomp, params.glwe_noise_std);
        let samplers = KeySamplers { noise: &mut self.rng, crs: &mut crs };
        keygen.generate(samplers, &plaintexts, consume)
    }

    /// The keyswitching key, masks on `crs_seed`'s keyswitching
    /// sub-stream and row noise from this client's stream.
    fn keyswitch_key(&mut self, crs_seed: u64) -> KeySwitchKey {
        let mask_seed = derive_seed(crs_seed, CRS_KSK_STREAM);
        KeySwitchKey::with_mask_seed(
            &self.extracted_sk,
            &self.lwe_sk,
            &self.params,
            mask_seed,
            &mut self.rng,
        )
    }
}

/// Every blind-rotation key entry's plaintext, in generation order: the
/// secret `bits` themselves, or per group of a multi-bit kernel its
/// pattern indicators.
fn entry_plaintexts(params: &TfheParameters, bits: &[u64]) -> Vec<u64> {
    match params.pbs_kernel.grouping_factor() {
        None => bits.to_vec(),
        Some(g) => bits
            .chunks(g)
            .flat_map(|group| (0..1usize << group.len()).map(|p| pattern_indicator(group, p)))
            .collect(),
    }
}

/// The CRS sub-stream the blind-rotation key's masks come from: one per
/// kernel and grouping factor, so two keys of one CRS seed that encrypt
/// different plaintexts share no masks.
fn bsk_crs_stream(params: &TfheParameters) -> u64 {
    match params.pbs_kernel {
        PbsKernel::Classical => CRS_BSK_STREAM,
        PbsKernel::MultiBit { grouping_factor } => CRS_MBSK_STREAM + grouping_factor as u64,
    }
}

/// Public evaluation keys: everything the server (or accelerator) needs
/// — one blind-rotation key, whose variant is the server's PBS kernel,
/// and the keyswitching key.
#[derive(Clone, Debug)]
pub struct ServerKey {
    pub(crate) params: TfheParameters,
    pub(crate) bsk: BootstrapKey,
    pub(crate) ksk: KeySwitchKey,
}

impl ServerKey {
    /// The parameter set this key was generated for.
    #[inline]
    pub fn params(&self) -> &TfheParameters {
        &self.params
    }

    /// The server's one blind-rotation key, on either kernel: every
    /// bootstrap on this server runs through it.
    #[inline]
    pub fn bootstrap_key(&self) -> &BootstrapKey {
        &self.bsk
    }

    /// The grouped key, present exactly when the parameter set selects
    /// a [`PbsKernel::MultiBit`] kernel (the same key
    /// [`Self::bootstrap_key`] holds).
    #[inline]
    pub fn multi_bit_bootstrap_key(&self) -> Option<&MultiBitBootstrapKey> {
        match &self.bsk {
            BootstrapKey::MultiBit(k) => Some(k),
            BootstrapKey::Classical(_) => None,
        }
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

    /// Total evaluation-key footprint in bytes (blind-rotation key +
    /// ksk bodies and mask seed) — the quantity Table I contrasts against
    /// CKKS's gigabyte-scale keys.
    pub fn key_bytes(&self) -> usize {
        self.bsk.byte_size() + self.ksk.byte_size()
    }

    /// Generates a *timing-equivalent* server key without the full
    /// (hours-long at production parameters) bootstrapping keygen: the
    /// blind-rotation key of the parameter set's kernel comes from
    /// [`ClassicalBootstrapKey::generate_for_benchmark`] or
    /// [`MultiBitBootstrapKey::generate_for_benchmark`] (same
    /// arithmetic, cryptographically meaningless), while the ksk is a
    /// real keyswitching key over freshly drawn secret keys — ksk
    /// generation is cheap, and a real ksk keeps the keyswitch path's
    /// work honest. Suitable only for performance
    /// measurements (the closed-loop SLO harness); outputs do not
    /// decrypt meaningfully.
    pub fn generate_for_benchmark(params: &TfheParameters, seed: u64) -> Self {
        // lint:allow(panic) documented constructor contract
        params.validate().expect("parameter set must be valid");
        let mut rng = NoiseSampler::from_seed(seed);
        let bsk = match params.pbs_kernel {
            PbsKernel::Classical => {
                BootstrapKey::Classical(ClassicalBootstrapKey::generate_for_benchmark(params))
            }
            PbsKernel::MultiBit { grouping_factor } => BootstrapKey::MultiBit(
                MultiBitBootstrapKey::generate_for_benchmark(params, grouping_factor),
            ),
        };
        let glwe_sk =
            GlweSecretKey::generate(params.glwe_dimension, params.polynomial_size, &mut rng);
        let lwe_sk = LweSecretKey::generate(params.lwe_dimension, &mut rng);
        let ksk =
            KeySwitchKey::generate(&glwe_sk.to_extracted_lwe_key(), &lwe_sk, params, &mut rng);
        Self { params: params.clone(), bsk, ksk }
    }
}

/// A server key in seeded (compressed) transport form.
///
/// LWE/GLWE mask material is uniformly random and therefore incompressible —
/// unless both sides agree to derive it from a shared seed. A seeded key
/// ships the 64-bit CRS seed plus only the *body* part of every key row
/// (phantom-zone's seed-expansion idiom): `1/(k+1)` of the GGSW bytes
/// and `1/(n+1)` of the keyswitching-key bytes. [`Self::expand`]
/// regenerates the GGSW masks deterministically through
/// [`NoiseSampler::from_derived_seed`] and materialises the Fourier-form
/// [`ServerKey`] — the lazy, CPU-heavy half the runtime's key registry
/// defers until a tenant's key first becomes resident. The
/// keyswitching key stays seeded on the server too, so expansion only
/// copies its bodies.
///
/// The key is immutable and lives behind one [`Arc`]: a clone shares
/// the payload (a reference-count bump, no bytes copied), so every
/// holder of a tenant's key — the client that made it, the registry
/// that expands it — accounts one payload between them.
#[derive(Clone, Debug)]
pub struct SeededServerKey {
    shared: Arc<SeededKeyData>,
}

/// The shared, immutable contents of a [`SeededServerKey`].
#[derive(Debug)]
struct SeededKeyData {
    params: TfheParameters,
    crs_seed: u64,
    payload: SeededKeyPayload,
}

/// What the transport actually carries.
#[derive(Debug)]
enum SeededKeyPayload {
    /// Real bodies for both keys, in generation order.
    Real {
        /// The blind-rotation key's bodies, entry-major: per entry
        /// `(k+1)·l` rows of `N` coefficients. One entry per LWE secret
        /// bit (classical), or group-major then pattern (multi-bit).
        bsk_bodies: Vec<u64>,
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
        Self::new(params.clone(), crs_seed, SeededKeyPayload::Benchmark)
    }

    fn new(params: TfheParameters, crs_seed: u64, payload: SeededKeyPayload) -> Self {
        Self { shared: Arc::new(SeededKeyData { params, crs_seed, payload }) }
    }

    /// The parameter set this key was generated for.
    #[inline]
    pub fn params(&self) -> &TfheParameters {
        &self.shared.params
    }

    /// The transported CRS seed.
    #[inline]
    pub fn crs_seed(&self) -> u64 {
        self.shared.crs_seed
    }

    /// Expands the transport form into a full evaluation key:
    /// regenerates every blind-rotation-key mask from its CRS sub-stream
    /// in generation order, attaches the stored bodies, and materialises
    /// the Fourier-domain keys; the keyswitching key takes a copy of its
    /// bodies and the seed of its CRS sub-stream. Deterministic —
    /// expanding twice yields bit-identical key material.
    pub fn expand(&self) -> ServerKey {
        let SeededKeyData { params, crs_seed, payload } = &*self.shared;
        match payload {
            SeededKeyPayload::Real { bsk_bodies, ksk_bodies } => {
                let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
                let (k, n) = (params.glwe_dimension, params.polynomial_size);
                let mut crs = NoiseSampler::from_derived_seed(*crs_seed, bsk_crs_stream(params));
                let mut entries = bsk_bodies.chunks_exact(params.ggsw_row_count() * n);
                let bsk = BootstrapKey::build(params, |coeffs| {
                    // lint:allow(panic) a real payload holds one body entry per key entry
                    let bodies = entries.next().expect("seeded bsk body entries");
                    FourierGgsw::seeded_coefficients_into(bodies, decomp, k, &mut crs, n, coeffs);
                });
                let ksk = KeySwitchKey::from_bodies(
                    ksk_bodies.clone(),
                    derive_seed(*crs_seed, CRS_KSK_STREAM),
                    params,
                );
                ServerKey { params: params.clone(), bsk, ksk }
            }
            SeededKeyPayload::Benchmark => ServerKey::generate_for_benchmark(
                params,
                derive_seed(*crs_seed, CRS_BENCHMARK_STREAM),
            ),
        }
    }

    /// How many handles share this key's one payload: the caller's and
    /// every clone alive, such as the one a key registry holds.
    pub fn holders(&self) -> usize {
        Arc::strong_count(&self.shared)
    }

    /// Bytes this key ships over the wire (bodies + the 8-byte seed).
    ///
    /// For the benchmark variant this reports the size a *real* payload
    /// at these parameters would occupy
    /// ([`TfheParameters::seeded_server_key_bytes`]), so capacity
    /// benchmarks account transport at production ratios.
    pub fn transport_bytes(&self) -> usize {
        match &self.shared.payload {
            SeededKeyPayload::Real { bsk_bodies, ksk_bodies } => {
                (bsk_bodies.len() + ksk_bodies.len() + 1) * 8
            }
            SeededKeyPayload::Benchmark => self.shared.params.seeded_server_key_bytes(),
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
        assert_eq!(
            server.key_bytes(),
            params.bootstrap_key_bytes() + params.seeded_keyswitch_key_bytes() + 8
        );
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
        // The grouped key is the server's one blind-rotation key: no
        // classical key rides along.
        assert_eq!(server.bootstrap_key().kernel(), params.pbs_kernel);
        assert_eq!(server.bootstrap_key().byte_size(), params.multi_bit_bootstrap_key_bytes(g));
        assert_eq!(
            server.key_bytes(),
            params.multi_bit_bootstrap_key_bytes(g) + params.seeded_keyswitch_key_bytes() + 8
        );
        assert_eq!(server.key_bytes(), params.server_key_bytes());
    }

    #[test]
    fn one_seed_gives_equal_secret_keys_under_every_kernel() {
        // Kernel comparisons build one server per kernel from one seed;
        // they compare like with like only if the secrets agree.
        let base = TfheParameters::testing_fast();
        let reference = ClientKey::generate(&base, 31);
        for g in 1..=PbsKernel::MAX_GROUPING_FACTOR {
            let params = base.clone().with_kernel(PbsKernel::MultiBit { grouping_factor: g });
            let client = ClientKey::generate(&params, 31);
            assert_eq!(client.lwe_secret_key(), reference.lwe_secret_key(), "g = {g}");
            assert_eq!(client.glwe_secret_key(), reference.glwe_secret_key(), "g = {g}");
        }
    }

    /// The classical kernel, then the multi-bit one at every grouping
    /// factor.
    fn all_kernels() -> Vec<PbsKernel> {
        std::iter::once(PbsKernel::Classical)
            .chain(
                (1..=PbsKernel::MAX_GROUPING_FACTOR)
                    .map(|g| PbsKernel::MultiBit { grouping_factor: g }),
            )
            .collect()
    }

    #[test]
    fn kernels_of_one_seed_share_no_draw_after_the_secrets() {
        // Same-seed servers of different kernels encrypt different
        // plaintexts; one shared mask and noise would reveal the secret
        // in the difference of two bodies.
        let base = TfheParameters::testing_fast();
        let kernels = all_kernels();
        let first_draws: std::collections::HashSet<Vec<u64>> = kernels
            .iter()
            .map(|&k| {
                let mut client = ClientKey::generate(&base.clone().with_kernel(k), 32);
                client.encrypt_torus(0).as_raw().to_vec()
            })
            .collect();
        assert_eq!(first_draws.len(), kernels.len(), "one client stream per kernel");
        // Every stream label, client or CRS, is distinct.
        let mut labels: Vec<u64> = kernels
            .iter()
            .map(|&k| bsk_crs_stream(&base.clone().with_kernel(k)))
            .chain([CRS_KSK_STREAM, CRS_BENCHMARK_STREAM])
            .chain(
                kernels
                    .iter()
                    .filter_map(|k| k.grouping_factor())
                    .map(|g| MULTI_BIT_CLIENT_STREAM + g as u64),
            )
            .collect();
        let count = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), count, "stream labels collide");
    }

    /// Same-seed keys of different kernels draw their public masks from
    /// streams that share no word: the first entry's `k·N·(k+1)·l` mask
    /// words of every kernel's stream are distinct, for the seed a
    /// fresh client's `server_key` draws and for one seed given to
    /// `seeded_server_key` under every kernel.
    #[test]
    fn kernels_of_one_seed_share_no_mask_word() {
        let base = TfheParameters::testing_fast();
        let words = base.glwe_dimension * base.polynomial_size * base.ggsw_row_count();
        let kernels = all_kernels();
        let mut seeded = std::collections::HashSet::new();
        let mut drawn = std::collections::HashSet::new();
        for &kernel in &kernels {
            let params = base.clone().with_kernel(kernel);
            let masks = |seed| {
                let mut crs = NoiseSampler::from_derived_seed(seed, bsk_crs_stream(&params));
                (0..words).map(move |_| crs.uniform_torus())
            };
            drawn.extend(masks(ClientKey::generate(&params, 32).rng.uniform_torus()));
            seeded.extend(masks(0x5eed));
        }
        let total = kernels.len() * words;
        assert_eq!(drawn.len(), total, "server_key mask streams share a word");
        assert_eq!(seeded.len(), total, "seeded_server_key mask streams share a word");
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
        assert_eq!(
            server.key_bytes(),
            params.bootstrap_key_bytes() + params.seeded_keyswitch_key_bytes() + 8
        );
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

    #[test]
    fn seeded_key_clones_share_one_payload() {
        // Every holder of a tenant's key (client, registry) shares one
        // payload; a clone must copy no bodies and expand identically.
        let params = TfheParameters::testing_fast();
        let seeded = ClientKey::generate(&params, 25).seeded_server_key(3);
        let copy = seeded.clone();
        assert!(Arc::ptr_eq(&seeded.shared, &copy.shared), "clone shares the payload");
        assert_eq!(copy.transport_bytes(), seeded.transport_bytes());
        assert_eq!(fnv(server_key_words(&copy.expand())), fnv(server_key_words(&seeded.expand())));
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

    /// The keyswitching key's rows, masks regenerated from its stream.
    fn ksk_words(ksk: &KeySwitchKey) -> impl Iterator<Item = u64> {
        ksk.rows().into_iter().flat_map(|r| r.as_raw().to_vec())
    }

    fn bsk_words(bsk: &BootstrapKey) -> Box<dyn Iterator<Item = u64> + '_> {
        match bsk {
            BootstrapKey::Classical(k) => Box::new(planes(k.fourier_entries())),
            BootstrapKey::MultiBit(k) => Box::new(planes(k.fourier_entries())),
        }
    }

    fn server_key_words(server: &ServerKey) -> impl Iterator<Item = u64> + '_ {
        bsk_words(&server.bsk).chain(ksk_words(&server.ksk))
    }

    /// Digests of, in order: the classical bootstrapping key's Fourier
    /// planes (from a classical server), then from a g = 3 server of
    /// the same seed: its multi-bit key's planes, its keyswitching key's
    /// rows (masks regenerated from its stream), its seeded payload's
    /// bodies, and the key `SeededServerKey::expand` materialises.
    fn key_digests(params: &TfheParameters, seed: u64) -> [u64; 5] {
        let classical = params.clone().with_kernel(PbsKernel::Classical);
        let bsk = fnv(bsk_words(&ClientKey::generate(&classical, seed).server_key().bsk));
        let params = params.clone().with_kernel(PbsKernel::MultiBit { grouping_factor: 3 });
        let mut client = ClientKey::generate(&params, seed);
        let server = client.server_key();
        assert!(server.multi_bit_bootstrap_key().is_some(), "g = 3 key");
        let mbsk = fnv(bsk_words(&server.bsk));
        let ksk = fnv(ksk_words(&server.ksk));
        drop(server);
        let seeded = client.seeded_server_key(seed ^ 0x5eed);
        let bodies = fnv(payload_words(&seeded));
        let expanded = fnv(server_key_words(&seeded.expand()));
        [bsk, mbsk, ksk, bodies, expanded]
    }

    /// The words a real seeded payload ships, in generation order: every
    /// blind-rotation body coefficient (entry, then row, then
    /// coefficient), then the keyswitching-key bodies.
    fn payload_words(seeded: &SeededServerKey) -> Vec<u64> {
        let SeededKeyPayload::Real { bsk_bodies, ksk_bodies } = &seeded.shared.payload else {
            panic!("a client key ships real bodies");
        };
        bsk_bodies.iter().chain(ksk_bodies).copied().collect()
    }

    /// Digests of a fresh client's seeded key under `kernel`: its
    /// payload's bodies, then the key `SeededServerKey::expand`
    /// materialises.
    fn seeded_digests(params: &TfheParameters, kernel: PbsKernel, seed: u64) -> [u64; 2] {
        let params = params.clone().with_kernel(kernel);
        let seeded = ClientKey::generate(&params, seed).seeded_server_key(seed ^ 0x5eed);
        [fnv(payload_words(&seeded)), fnv(server_key_words(&seeded.expand()))]
    }

    /// Key generation and seeded expansion must reproduce these keys bit
    /// for bit: every pinned PBS output downstream rests on them. A
    /// change here means the RNG draw order or the key arithmetic moved.
    /// The classical digest comes from a classical server; the other
    /// four from a g = 3 server of the same seed, which draws its seed
    /// and grouped-key noise first on the g = 3 client sub-stream (it
    /// holds no classical key), and from the seeded key that client
    /// makes next, so they also pin the client stream a server key
    /// leaves behind.
    #[test]
    fn key_material_matches_golden_digests() {
        let hex = |d: [u64; 5]| d.map(|x| format!("{x:#018x}"));
        assert_eq!(
            hex(key_digests(&TfheParameters::testing_fast(), 1)),
            [
                "0x62f0e072b066b5c9",
                "0xd0a443ddb0821013",
                "0x18b3e5f17c8d9bf2",
                "0x9762f7d6fd99f43d",
                "0xede46adf977be5fb",
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
                "0x74bd862fac945ec8",
                "0x71481fe6c11da790",
                "0xc1a46649f47811c8",
                "0x4a5a39fd8a6932e8",
                "0xd6cc928b33e27071",
            ],
            "set-II"
        );
    }

    /// The seeded path (the multi-tenant registry's transport form) must
    /// reproduce these payloads and expansions bit for bit, from a fresh
    /// classical client and a fresh g = 3 client.
    #[test]
    fn seeded_keys_match_golden_digests() {
        let hex = |d: [u64; 2]| d.map(|x| format!("{x:#018x}"));
        let g3 = PbsKernel::MultiBit { grouping_factor: 3 };
        let fast = TfheParameters::testing_fast();
        assert_eq!(
            hex(seeded_digests(&fast, PbsKernel::Classical, 3)),
            ["0x099a346fa4532f79", "0x58613a8b6052affd"],
            "testing_fast classical"
        );
        assert_eq!(
            hex(seeded_digests(&fast, g3, 3)),
            ["0xdd2bc1150b7886c0", "0xb9a9a84770e5744b"],
            "testing_fast g = 3"
        );
        // Set-II keygen is release-only, like the key digests.
        if cfg!(debug_assertions) {
            return;
        }
        let set_ii = TfheParameters::set_ii();
        assert_eq!(
            hex(seeded_digests(&set_ii, PbsKernel::Classical, 4)),
            ["0x663ebbe7e586ed6b", "0x2c3c823683e72c5d"],
            "set-II classical"
        );
        assert_eq!(
            hex(seeded_digests(&set_ii, g3, 4)),
            ["0xf047af8d9ba0c08c", "0xa32ebd3e653c9c8c"],
            "set-II g = 3"
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
    /// VMA loop nest) that moves a single bit shows here. The values
    /// follow the one-key draw order: secrets on the seed's stream; the
    /// server key's seed, the grouped key's noise, the keyswitching
    /// key's row noise and the encryptions on the g = 3 client
    /// sub-stream; every key mask on a public stream of that seed.
    #[test]
    fn multi_bit_pbs_output_matches_golden_digest() {
        let hex = |d: u64| format!("{d:#018x}");
        assert_eq!(
            hex(multi_bit_output_digest(&TfheParameters::testing_fast(), 5)),
            "0x232be8c848bc05bf",
            "testing_fast"
        );
        // Set-II keygen and PBS are release-only, like the key digests.
        if cfg!(debug_assertions) {
            return;
        }
        assert_eq!(
            hex(multi_bit_output_digest(&TfheParameters::set_ii(), 6)),
            "0x2f78bde7ac6f99bf",
            "set-II"
        );
    }

    /// The one-thread reference of key generation: `client`'s
    /// blind-rotation key entries, each drawn and then encrypted on the
    /// calling thread (masks from `crs`), as `(k+1)·l` rows of masks
    /// then body.
    fn inline_entries(client: &mut ClientKey, crs: &mut NoiseSampler) -> Vec<Vec<u64>> {
        let params = &client.params;
        let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
        let fft = NegacyclicFft::with_backend(params.polynomial_size, params.fft_backend).unwrap();
        let mut keygen = GgswKeygen::new(&client.glwe_sk, &fft, decomp, params.glwe_noise_std);
        let mut samplers = KeySamplers { noise: &mut client.rng, crs };
        let entry = |m| {
            let mut words = vec![0; keygen.entry_words()];
            keygen.encrypt_inline(m, &mut samplers, &mut words);
            words
        };
        entry_plaintexts(params, client.lwe_sk.bits()).into_iter().map(entry).collect()
    }

    /// A client whose stream is mid-way, twice: an encryption leaves a
    /// Box–Muller spare cached for the next Gaussian draw, which the
    /// golden digests (fresh clients) never see.
    fn mid_stream_clients(params: &TfheParameters) -> (ClientKey, ClientKey) {
        let mut client = ClientKey::generate(params, 41);
        client.encrypt_torus(0);
        assert!(client.rng.has_cached_gaussian(), "the encryption leaves a spare");
        (client.clone(), client)
    }

    /// Key generation draws each entry on a helper thread and encrypts
    /// it on the calling one; the keys must be what one thread makes,
    /// also for a client whose stream is mid-way. g = 3 over n = 64
    /// ends on a group of one bit.
    #[test]
    fn pipelined_keys_match_the_one_thread_reference_after_an_encryption() {
        let crs_seed = 7;
        for kernel in [PbsKernel::Classical, PbsKernel::MultiBit { grouping_factor: 3 }] {
            let params = TfheParameters::testing_fast().with_kernel(kernel);
            let (k, n) = (params.glwe_dimension, params.polynomial_size);
            let (mut client, mut inline) = mid_stream_clients(&params);
            let seeded = client.seeded_server_key(crs_seed);
            let mut crs = NoiseSampler::from_derived_seed(crs_seed, bsk_crs_stream(&params));
            let rows = inline_entries(&mut inline, &mut crs);
            let mut bodies: Vec<u64> = rows
                .iter()
                .flat_map(|words| words.chunks_exact((k + 1) * n).flat_map(|row| &row[k * n..]))
                .copied()
                .collect();
            bodies.extend(inline.keyswitch_key(crs_seed).into_bodies());
            assert!(payload_words(&seeded) == bodies, "{kernel:?} seeded payload");
            assert_eq!(
                client.encrypt_torus(0),
                inline.encrypt_torus(0),
                "{kernel:?} seeded stream"
            );
        }
    }

    /// A server key is the seeded key of the seed it draws, expanded:
    /// the same Fourier planes and keyswitching-key rows, and the client
    /// streams agree afterwards.
    #[test]
    fn server_key_is_its_drawn_seeds_key_expanded() {
        for kernel in [PbsKernel::Classical, PbsKernel::MultiBit { grouping_factor: 3 }] {
            let params = TfheParameters::testing_fast().with_kernel(kernel);
            let (mut client, mut seeded_client) = mid_stream_clients(&params);
            let server = client.server_key();
            let crs_seed = seeded_client.rng.uniform_torus();
            let expanded = seeded_client.seeded_server_key(crs_seed).expand();
            assert!(bsk_words(&server.bsk).eq(bsk_words(&expanded.bsk)), "{kernel:?} bsk");
            assert!(ksk_words(&server.ksk).eq(ksk_words(&expanded.ksk)), "{kernel:?} ksk");
            assert_eq!(client.encrypt_torus(0), seeded_client.encrypt_torus(0), "{kernel:?}");
        }
    }

    #[test]
    #[should_panic(expected = "parameter set must be valid")]
    fn invalid_parameters_panic_at_keygen() {
        let mut params = TfheParameters::testing_fast();
        params.polynomial_size = 100;
        ClientKey::generate(&params, 0);
    }
}
