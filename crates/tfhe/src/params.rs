//! TFHE parameter sets.
//!
//! The four named sets reproduce Table IV of the Strix paper:
//!
//! | Set | n | k | N | l_b | λ |
//! |-----|-----|---|-------|-----|---------|
//! | I   | 500 | 1 | 1024  | 2   | 110-bit |
//! | II  | 630 | 1 | 1024  | 3   | 128-bit |
//! | III | 592 | 1 | 2048  | 3   | 128-bit |
//! | IV  | 991 | 1 | 16384 | 2   | 128-bit |
//!
//! The quantities the paper leaves implicit (decomposition bases, key-
//! switching decomposition, noise standard deviations) are filled in from
//! the libraries each set originates from: set I matches the original
//! TFHE library's 110-bit parameters, sets II/III follow Concrete-era
//! 128-bit choices, and set IV extrapolates the same security level to
//! `N = 16384`. Noise values are *research-grade estimates*, not audited
//! production parameters.

use serde::{Deserialize, Serialize};
use strix_fft::{FftError, StrixFftBackend};

use crate::TfheError;

/// The named parameter sets of the paper's Table IV.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParameterSet {
    /// 110-bit baseline used by all prior accelerators.
    SetI,
    /// 128-bit set used by YKP (FPGA).
    SetII,
    /// 128-bit set used by XHEC (FPGA).
    SetIII,
    /// 128-bit high-precision set introduced by Strix (`N = 16384`).
    SetIV,
}

impl ParameterSet {
    /// All four sets, in paper order.
    pub const ALL: [ParameterSet; 4] =
        [ParameterSet::SetI, ParameterSet::SetII, ParameterSet::SetIII, ParameterSet::SetIV];

    /// The paper's roman-numeral label.
    pub fn label(self) -> &'static str {
        match self {
            ParameterSet::SetI => "I",
            ParameterSet::SetII => "II",
            ParameterSet::SetIII => "III",
            ParameterSet::SetIV => "IV",
        }
    }

    /// Resolves to the concrete parameter values.
    pub fn parameters(self) -> TfheParameters {
        match self {
            ParameterSet::SetI => TfheParameters::set_i(),
            ParameterSet::SetII => TfheParameters::set_ii(),
            ParameterSet::SetIII => TfheParameters::set_iii(),
            ParameterSet::SetIV => TfheParameters::set_iv(),
        }
    }
}

impl std::fmt::Display for ParameterSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which blind-rotation kernel a server key targets — the software
/// counterpart of tfhe-rs's CUDA `CLASSICAL` vs `MULTI_BIT` PBS
/// dispatch.
///
/// * [`PbsKernel::Classical`] runs one CMUX per LWE mask element: `n`
///   external products against an `n`-entry bootstrapping key.
/// * [`PbsKernel::MultiBit`] groups `grouping_factor` secret bits per
///   key entry (`2^g` GGSW rows encrypting all bit-pattern indicator
///   products) and runs one external product per *group* —
///   `⌈n/g⌉` iterations instead of `n`, at the cost of a `2^g/g ×`
///   larger key and a `2^g ×` key-noise term per product.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PbsKernel {
    /// One CMUX per secret-key bit (the PR 4/5 coefficient-batched
    /// kernel).
    #[default]
    Classical,
    /// Grouped blind rotation over `⌈n/g⌉` combined GGSW entries.
    MultiBit {
        /// Secret bits collapsed per key entry (`g ≥ 1`; each entry
        /// stores `2^g` GGSW rows).
        grouping_factor: usize,
    },
}

impl PbsKernel {
    /// Largest supported grouping factor: key entries grow as `2^g`,
    /// and beyond a handful of bits the combined-GGSW assembly
    /// outweighs the saved transforms.
    pub const MAX_GROUPING_FACTOR: usize = 8;

    /// Stable human-readable label (`"classical"` / `"multi-bit-g2"`).
    pub fn label(self) -> String {
        match self {
            PbsKernel::Classical => "classical".to_string(),
            PbsKernel::MultiBit { grouping_factor } => format!("multi-bit-g{grouping_factor}"),
        }
    }

    /// The grouping factor, or `None` for the classical kernel.
    #[inline]
    pub fn grouping_factor(self) -> Option<usize> {
        match self {
            PbsKernel::Classical => None,
            PbsKernel::MultiBit { grouping_factor } => Some(grouping_factor),
        }
    }
}

impl std::fmt::Display for PbsKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A complete TFHE parameter set.
///
/// Field names follow the paper's notation (§II-D, Table II): `n` is the
/// LWE mask length, `k` the GLWE mask length, `N` the polynomial size,
/// `l_b` the bootstrapping decomposition level.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TfheParameters {
    /// Human-readable name of the set.
    pub name: String,
    /// LWE mask length `n`.
    pub lwe_dimension: usize,
    /// GLWE mask length `k`.
    pub glwe_dimension: usize,
    /// Polynomial size `N` (power of two).
    pub polynomial_size: usize,
    /// log2 of the bootstrapping decomposition base `B`.
    pub pbs_base_log: u32,
    /// Bootstrapping decomposition level `l_b`.
    pub pbs_level: usize,
    /// log2 of the keyswitching decomposition base.
    pub ks_base_log: u32,
    /// Keyswitching decomposition level `l_k`.
    pub ks_level: usize,
    /// Standard deviation of LWE noise, relative to the torus.
    pub lwe_noise_std: f64,
    /// Standard deviation of GLWE noise, relative to the torus.
    pub glwe_noise_std: f64,
    /// Claimed security level in bits (Table IV's λ).
    pub security_bits: u32,
    /// Which blind-rotation kernel server keys for this set target.
    /// Defaults to [`PbsKernel::Classical`] (including when absent from
    /// serialized parameters, for compatibility with pre-multi-bit
    /// snapshots).
    #[serde(default)]
    pub pbs_kernel: PbsKernel,
    /// Which SIMD kernel backend the spectral transforms should use.
    /// Defaults to [`StrixFftBackend::Auto`] (runtime CPU detection,
    /// including when absent from serialized parameters, for
    /// compatibility with pre-backend snapshots).
    #[serde(default)]
    pub fft_backend: StrixFftBackend,
}

impl TfheParameters {
    /// Paper parameter set I (110-bit; original TFHE library values).
    pub fn set_i() -> Self {
        Self {
            name: "set-I".into(),
            lwe_dimension: 500,
            glwe_dimension: 1,
            polynomial_size: 1024,
            pbs_base_log: 10,
            pbs_level: 2,
            ks_base_log: 2,
            ks_level: 8,
            lwe_noise_std: 2.43e-5,
            glwe_noise_std: 3.73e-9,
            security_bits: 110,
            pbs_kernel: PbsKernel::Classical,
            fft_backend: StrixFftBackend::Auto,
        }
    }

    /// Paper parameter set II (128-bit; used by YKP).
    pub fn set_ii() -> Self {
        Self {
            name: "set-II".into(),
            lwe_dimension: 630,
            glwe_dimension: 1,
            polynomial_size: 1024,
            pbs_base_log: 7,
            pbs_level: 3,
            ks_base_log: 3,
            ks_level: 5,
            lwe_noise_std: 2.0f64.powi(-15),
            glwe_noise_std: 2.0f64.powi(-25),
            security_bits: 128,
            pbs_kernel: PbsKernel::Classical,
            fft_backend: StrixFftBackend::Auto,
        }
    }

    /// Paper parameter set III (128-bit; used by XHEC).
    pub fn set_iii() -> Self {
        Self {
            name: "set-III".into(),
            lwe_dimension: 592,
            glwe_dimension: 1,
            polynomial_size: 2048,
            pbs_base_log: 8,
            pbs_level: 3,
            ks_base_log: 3,
            ks_level: 5,
            lwe_noise_std: 2.0f64.powi(-15),
            glwe_noise_std: 2.0f64.powi(-37),
            security_bits: 128,
            pbs_kernel: PbsKernel::Classical,
            fft_backend: StrixFftBackend::Auto,
        }
    }

    /// Paper parameter set IV (128-bit, `N = 16384`; introduced by Strix
    /// for higher-precision PBS).
    pub fn set_iv() -> Self {
        Self {
            name: "set-IV".into(),
            lwe_dimension: 991,
            glwe_dimension: 1,
            polynomial_size: 16384,
            pbs_base_log: 18,
            pbs_level: 2,
            ks_base_log: 4,
            ks_level: 5,
            lwe_noise_std: 2.0f64.powi(-22),
            glwe_noise_std: 2.0f64.powi(-51),
            security_bits: 128,
            pbs_kernel: PbsKernel::Classical,
            fft_backend: StrixFftBackend::Auto,
        }
    }

    /// The Zama Deep-NN parameter family (Fig. 7): same shape as the
    /// 128-bit sets with the requested polynomial size.
    ///
    /// Noise levels are provisioned for the workload the family
    /// serves: the ReLU schedule evaluates 3-bit LUTs over fan-in-3
    /// weighted sums of keyswitched bootstrap outputs, and the static
    /// noise analyzer (`strix-runtime`) requires every such node to
    /// keep a >10σ decision margin under both PBS kernels. The
    /// keyswitch key term `k·N·l_k·B²/12·σ_lwe²` dominates that
    /// budget, which pins `σ_lwe` at 2⁻¹⁹ for these dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::InvalidParameters`] if `polynomial_size` is
    /// not one of 1024, 2048 or 4096 (the sizes evaluated in the
    /// paper's Fig. 7) — a serving path must be able to reject an
    /// unsupported client request without panicking a worker thread.
    pub fn deep_nn(polynomial_size: usize) -> Result<Self, TfheError> {
        let (glwe_noise_std, pbs_base_log, pbs_level) = match polynomial_size {
            1024 => (2.0f64.powi(-28), 7, 3),
            2048 => (2.0f64.powi(-37), 8, 3),
            4096 => (2.0f64.powi(-45), 12, 2),
            _ => {
                return Err(TfheError::InvalidParameters(
                    "deep-NN experiments use N in {1024, 2048, 4096}",
                ))
            }
        };
        Ok(Self {
            name: format!("deep-nn-{polynomial_size}"),
            lwe_dimension: 630,
            glwe_dimension: 1,
            polynomial_size,
            pbs_base_log,
            pbs_level,
            ks_base_log: 3,
            ks_level: 5,
            lwe_noise_std: 2.0f64.powi(-19),
            glwe_noise_std,
            security_bits: 128,
            pbs_kernel: PbsKernel::Classical,
            fft_backend: StrixFftBackend::Auto,
        })
    }

    /// A small, *insecure* parameter set for fast unit tests. Noise is
    /// kept realistic in structure (non-zero everywhere) but dimensions
    /// are tiny, so an attack would be trivial — never use outside tests.
    pub fn testing_fast() -> Self {
        Self {
            name: "testing-fast".into(),
            lwe_dimension: 64,
            glwe_dimension: 1,
            polynomial_size: 256,
            pbs_base_log: 10,
            pbs_level: 2,
            ks_base_log: 2,
            ks_level: 6,
            lwe_noise_std: 2.0f64.powi(-20),
            glwe_noise_std: 2.0f64.powi(-30),
            security_bits: 0,
            pbs_kernel: PbsKernel::Classical,
            fft_backend: StrixFftBackend::Auto,
        }
    }

    /// A mid-size *insecure* set exercising `k = 2` and a larger `l_b`,
    /// for coverage of non-default shapes in tests.
    pub fn testing_k2() -> Self {
        Self {
            name: "testing-k2".into(),
            lwe_dimension: 48,
            glwe_dimension: 2,
            polynomial_size: 128,
            pbs_base_log: 8,
            pbs_level: 3,
            ks_base_log: 3,
            ks_level: 4,
            lwe_noise_std: 2.0f64.powi(-20),
            glwe_noise_std: 2.0f64.powi(-30),
            security_bits: 0,
            pbs_kernel: PbsKernel::Classical,
            fft_backend: StrixFftBackend::Auto,
        }
    }

    /// Validates structural invariants (power-of-two `N`, decomposition
    /// within the torus width, non-degenerate dimensions) and that the
    /// FFT backend resolves on this host — for `Auto`, including the
    /// `STRIX_FFT_BACKEND` override.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::InvalidParameters`] describing the first
    /// violated invariant.
    pub fn validate(&self) -> Result<(), TfheError> {
        if self.lwe_dimension == 0 {
            return Err(TfheError::InvalidParameters("lwe dimension must be positive"));
        }
        if self.glwe_dimension == 0 {
            return Err(TfheError::InvalidParameters("glwe dimension must be positive"));
        }
        if !self.polynomial_size.is_power_of_two() || self.polynomial_size < 2 {
            return Err(TfheError::InvalidParameters(
                "polynomial size must be a power of two >= 2",
            ));
        }
        if self.pbs_base_log == 0 || self.pbs_level == 0 {
            return Err(TfheError::InvalidParameters("pbs decomposition must be non-trivial"));
        }
        if self.pbs_base_log as usize * self.pbs_level > 64 {
            return Err(TfheError::InvalidParameters("pbs decomposition exceeds torus width"));
        }
        if self.ks_base_log == 0 || self.ks_level == 0 {
            return Err(TfheError::InvalidParameters("ks decomposition must be non-trivial"));
        }
        if self.ks_base_log as usize * self.ks_level > 64 {
            return Err(TfheError::InvalidParameters("ks decomposition exceeds torus width"));
        }
        // Resolve exactly as plan construction will (`Auto` consults
        // `STRIX_FFT_BACKEND`), so keygen's plan `expect`s can rely on
        // a validated set.
        if let Err(e) = self.fft_backend.resolve() {
            return Err(TfheError::InvalidParameters(match e {
                FftError::InvalidBackendEnv => {
                    "STRIX_FFT_BACKEND must be one of auto, portable, avx2"
                }
                _ => "requested fft backend is not supported by this cpu",
            }));
        }
        if let PbsKernel::MultiBit { grouping_factor } = self.pbs_kernel {
            if grouping_factor == 0 {
                return Err(TfheError::InvalidParameters(
                    "multi-bit grouping factor must be positive",
                ));
            }
            if grouping_factor > PbsKernel::MAX_GROUPING_FACTOR {
                return Err(TfheError::InvalidParameters(
                    "multi-bit grouping factor exceeds the supported maximum",
                ));
            }
            if grouping_factor > self.lwe_dimension {
                return Err(TfheError::InvalidParameters(
                    "multi-bit grouping factor exceeds the lwe dimension",
                ));
            }
        }
        Ok(())
    }

    /// The same parameters retargeted at `kernel` (builder-style).
    #[must_use]
    pub fn with_kernel(mut self, kernel: PbsKernel) -> Self {
        self.pbs_kernel = kernel;
        self
    }

    /// The same parameters retargeted at the given SIMD kernel backend
    /// (builder-style). Tests use this to force the portable scalar
    /// path regardless of host CPU features.
    #[must_use]
    pub fn with_fft_backend(mut self, backend: StrixFftBackend) -> Self {
        self.fft_backend = backend;
        self
    }

    /// Dimension of LWE ciphertexts extracted from GLWE: `k · N`
    /// (the paper's `kN + 1`-element output of Algorithm 1, minus body).
    #[inline]
    pub fn extracted_lwe_dimension(&self) -> usize {
        self.glwe_dimension * self.polynomial_size
    }

    /// log2 of `2N`, the blind-rotation modulus.
    #[inline]
    pub fn log2_two_n(&self) -> u32 {
        self.polynomial_size.trailing_zeros() + 1
    }

    /// Number of GGSW rows per bootstrapping-key entry: `(k+1) · l_b`.
    #[inline]
    pub fn ggsw_row_count(&self) -> usize {
        (self.glwe_dimension + 1) * self.pbs_level
    }

    /// Size in bytes of one Fourier-domain bootstrapping-key entry
    /// (one GGSW): `(k+1)·l_b · (k+1) · N/2` complex doubles.
    ///
    /// This is the per-blind-rotation-iteration key traffic that Strix
    /// streams from HBM (§IV-B, Fig. 8).
    #[inline]
    pub fn fourier_ggsw_bytes(&self) -> usize {
        self.ggsw_row_count() * (self.glwe_dimension + 1) * (self.polynomial_size / 2) * 16
    }

    /// Total Fourier bootstrapping-key size in bytes (`n` GGSW entries).
    #[inline]
    pub fn bootstrap_key_bytes(&self) -> usize {
        self.lwe_dimension * self.fourier_ggsw_bytes()
    }

    /// Size in bytes of the full, masked keyswitching-key matrix: `kN ·
    /// l_k` LWE ciphertexts of dimension `n`, 8 bytes per element — what
    /// an accelerator streaming the key moves (`strix_core::MemoryModel`).
    /// A CPU [`crate::keyswitch::KeySwitchKey`] holds only its bodies and
    /// mask seed ([`Self::seeded_keyswitch_key_bytes`] + 8).
    #[inline]
    pub fn keyswitch_key_bytes(&self) -> usize {
        self.extracted_lwe_dimension() * self.ks_level * (self.lwe_dimension + 1) * 8
    }

    /// Number of blind-rotation groups at grouping factor `g`:
    /// `⌈n/g⌉` (the last group covers the `n mod g` remainder bits).
    #[inline]
    pub fn multi_bit_group_count(&self, grouping_factor: usize) -> usize {
        self.lwe_dimension.div_ceil(grouping_factor)
    }

    /// Total Fourier multi-bit bootstrapping-key size in bytes at
    /// grouping factor `g`: each full group stores `2^g` GGSW entries
    /// (one per bit pattern), the remainder group `2^{n mod g}`.
    pub fn multi_bit_bootstrap_key_bytes(&self, grouping_factor: usize) -> usize {
        let full_groups = self.lwe_dimension / grouping_factor;
        let remainder = self.lwe_dimension % grouping_factor;
        let mut entries = full_groups * (1usize << grouping_factor);
        if remainder > 0 {
            entries += 1usize << remainder;
        }
        entries * self.fourier_ggsw_bytes()
    }

    /// Transport size in bytes of the *seeded* bootstrapping key: one
    /// body polynomial per GGSW row instead of `k+1` polynomials —
    /// masks regenerate from the CRS seed, so the ratio to
    /// [`Self::bootstrap_key_bytes`] is exactly `1/(k+1)`.
    #[inline]
    pub fn seeded_bootstrap_key_bytes(&self) -> usize {
        self.lwe_dimension * self.ggsw_row_count() * self.polynomial_size * 8
    }

    /// Transport size in bytes of the seeded multi-bit bootstrapping
    /// key at grouping factor `g` (same `1/(k+1)` ratio as
    /// [`Self::seeded_bootstrap_key_bytes`], applied per pattern
    /// entry).
    pub fn seeded_multi_bit_bootstrap_key_bytes(&self, grouping_factor: usize) -> usize {
        let full_groups = self.lwe_dimension / grouping_factor;
        let remainder = self.lwe_dimension % grouping_factor;
        let mut entries = full_groups * (1usize << grouping_factor);
        if remainder > 0 {
            entries += 1usize << remainder;
        }
        entries * self.ggsw_row_count() * self.polynomial_size * 8
    }

    /// Transport size in bytes of the seeded keyswitching key: one body
    /// element per row instead of an `(n+1)`-element ciphertext.
    #[inline]
    pub fn seeded_keyswitch_key_bytes(&self) -> usize {
        self.extracted_lwe_dimension() * self.ks_level * 8
    }

    /// Total seeded-transport footprint of a server key at this
    /// parameter set: the seeded blind-rotation key of the kernel
    /// (classical bsk or multi-bit mbsk) + seeded ksk + the 8-byte CRS
    /// seed.
    pub fn seeded_server_key_bytes(&self) -> usize {
        let bsk = match self.pbs_kernel.grouping_factor() {
            None => self.seeded_bootstrap_key_bytes(),
            Some(g) => self.seeded_multi_bit_bootstrap_key_bytes(g),
        };
        bsk + self.seeded_keyswitch_key_bytes() + 8
    }

    /// Total full-form (expanded, Fourier-resident) footprint of a
    /// server key at this parameter set: the blind-rotation key of the
    /// kernel (classical bsk or multi-bit mbsk) + the ksk as a server
    /// holds it, its bodies and 8-byte mask seed — the denominator of
    /// the seeded-transport compression ratio and the unit of the key
    /// registry's residency accounting.
    pub fn server_key_bytes(&self) -> usize {
        let bsk = match self.pbs_kernel.grouping_factor() {
            None => self.bootstrap_key_bytes(),
            Some(g) => self.multi_bit_bootstrap_key_bytes(g),
        };
        bsk + self.seeded_keyswitch_key_bytes() + 8
    }

    /// Size in bytes of one LWE ciphertext (`n + 1` torus elements).
    #[inline]
    pub fn lwe_bytes(&self) -> usize {
        (self.lwe_dimension + 1) * 8
    }

    /// Size in bytes of one GLWE ciphertext / test vector
    /// (`(k+1) · N` torus elements).
    #[inline]
    pub fn glwe_bytes(&self) -> usize {
        (self.glwe_dimension + 1) * self.polynomial_size * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_values_match_paper() {
        let i = TfheParameters::set_i();
        assert_eq!(
            (i.lwe_dimension, i.glwe_dimension, i.polynomial_size, i.pbs_level),
            (500, 1, 1024, 2)
        );
        assert_eq!(i.security_bits, 110);
        let ii = TfheParameters::set_ii();
        assert_eq!((ii.lwe_dimension, ii.polynomial_size, ii.pbs_level), (630, 1024, 3));
        let iii = TfheParameters::set_iii();
        assert_eq!((iii.lwe_dimension, iii.polynomial_size, iii.pbs_level), (592, 2048, 3));
        let iv = TfheParameters::set_iv();
        assert_eq!((iv.lwe_dimension, iv.polynomial_size, iv.pbs_level), (991, 16384, 2));
    }

    #[test]
    fn all_named_sets_validate() {
        for set in ParameterSet::ALL {
            set.parameters().validate().unwrap();
        }
        TfheParameters::testing_fast().validate().unwrap();
        TfheParameters::testing_k2().validate().unwrap();
        for n in [1024, 2048, 4096] {
            TfheParameters::deep_nn(n).unwrap().validate().unwrap();
        }
    }

    #[test]
    fn validation_rejects_broken_sets() {
        let mut p = TfheParameters::set_i();
        p.polynomial_size = 1000;
        assert!(p.validate().is_err());

        let mut p = TfheParameters::set_i();
        p.pbs_base_log = 40;
        p.pbs_level = 2; // 80 bits > 64
        assert!(p.validate().is_err());

        let mut p = TfheParameters::set_i();
        p.lwe_dimension = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn derived_sizes_set_i() {
        let p = TfheParameters::set_i();
        assert_eq!(p.extracted_lwe_dimension(), 1024);
        assert_eq!(p.log2_two_n(), 11);
        assert_eq!(p.ggsw_row_count(), 4);
        // (k+1)l_b × (k+1) × N/2 × 16B = 4 × 2 × 512 × 16 = 64 KiB
        assert_eq!(p.fourier_ggsw_bytes(), 64 * 1024);
        // 500 iterations × 64 KiB = 31.25 MiB — the "10s of MB" scale of Table I
        assert_eq!(p.bootstrap_key_bytes(), 500 * 64 * 1024);
        assert_eq!(p.lwe_bytes(), 501 * 8);
        assert_eq!(p.glwe_bytes(), 2 * 1024 * 8);
    }

    #[test]
    fn seeded_transport_compresses_every_parameter_set() {
        // Seeded GGSW bodies ship 1/(k+1) of the full key; a server's
        // ksk is already its bodies and mask seed, so the ratio to the
        // resident key is just above 1/(k+1).
        for set in ParameterSet::ALL {
            let p = set.parameters();
            assert_eq!(
                p.seeded_bootstrap_key_bytes() * (p.glwe_dimension + 1),
                p.bootstrap_key_bytes()
            );
            let ratio = p.seeded_server_key_bytes() as f64 / p.server_key_bytes() as f64;
            assert!(ratio <= 0.51, "set {set}: ratio {ratio}");
        }
        // Multi-bit kernels keep the same per-entry ratio.
        let p =
            TfheParameters::testing_fast().with_kernel(PbsKernel::MultiBit { grouping_factor: 3 });
        assert_eq!(
            p.seeded_multi_bit_bootstrap_key_bytes(3) * (p.glwe_dimension + 1),
            p.multi_bit_bootstrap_key_bytes(3)
        );
        assert_eq!(
            p.server_key_bytes(),
            p.multi_bit_bootstrap_key_bytes(3) + p.seeded_keyswitch_key_bytes() + 8
        );
        let ratio = p.seeded_server_key_bytes() as f64 / p.server_key_bytes() as f64;
        assert!(ratio <= 0.51, "multi-bit ratio {ratio}");
        // k = 2: ratio tightens to ~1/3.
        let p = TfheParameters::testing_k2();
        let ratio = p.seeded_server_key_bytes() as f64 / p.server_key_bytes() as f64;
        assert!(ratio <= 0.34, "k=2 ratio {ratio}");
    }

    /// Set-II server-key footprints, full and seeded: one
    /// blind-rotation key per kernel plus the keyswitching key's bodies
    /// and mask seed (40,968 B; the masked matrix it stands for is
    /// 25,845,760 B). The g = 3 key is 0.73× of one that also carried
    /// the classical key, and its transport drops the classical bodies
    /// (30,965,760 B).
    #[test]
    fn set_ii_server_key_footprints_are_pinned() {
        let classical = TfheParameters::set_ii();
        assert_eq!(classical.keyswitch_key_bytes(), 25_845_760);
        assert_eq!(classical.seeded_keyswitch_key_bytes() + 8, 40_968);
        assert_eq!(classical.server_key_bytes(), 61_972_488);
        assert_eq!(classical.seeded_server_key_bytes(), 31_006_728);
        let g3 = classical.clone().with_kernel(PbsKernel::MultiBit { grouping_factor: 3 });
        assert_eq!(g3.server_key_bytes(), 165_191_688);
        assert_eq!(g3.seeded_server_key_bytes(), 82_616_328);
        let both_keys = g3.server_key_bytes() + classical.bootstrap_key_bytes();
        assert_eq!(both_keys, 227_123_208);
        assert_eq!(classical.seeded_bootstrap_key_bytes(), 30_965_760);
    }

    #[test]
    fn parameter_set_labels() {
        assert_eq!(ParameterSet::SetI.to_string(), "I");
        assert_eq!(ParameterSet::SetIV.label(), "IV");
        assert_eq!(ParameterSet::ALL.len(), 4);
    }

    #[test]
    fn kernel_labels_and_default() {
        assert_eq!(PbsKernel::default(), PbsKernel::Classical);
        assert_eq!(PbsKernel::Classical.to_string(), "classical");
        assert_eq!(PbsKernel::MultiBit { grouping_factor: 3 }.to_string(), "multi-bit-g3");
        assert_eq!(PbsKernel::Classical.grouping_factor(), None);
        assert_eq!(PbsKernel::MultiBit { grouping_factor: 2 }.grouping_factor(), Some(2));
        assert_eq!(TfheParameters::set_ii().pbs_kernel, PbsKernel::Classical);
    }

    #[test]
    fn kernel_validation_bounds_grouping_factor() {
        let base = TfheParameters::testing_fast();
        for g in 1..=4 {
            base.clone()
                .with_kernel(PbsKernel::MultiBit { grouping_factor: g })
                .validate()
                .unwrap();
        }
        for g in [0, PbsKernel::MAX_GROUPING_FACTOR + 1] {
            assert!(base
                .clone()
                .with_kernel(PbsKernel::MultiBit { grouping_factor: g })
                .validate()
                .is_err());
        }
        let mut tiny = base.clone().with_kernel(PbsKernel::MultiBit { grouping_factor: 4 });
        tiny.lwe_dimension = 3;
        assert!(tiny.validate().is_err());
    }

    #[test]
    fn parameters_without_kernel_field_deserialize_as_classical() {
        // Pre-multi-bit serialized parameters carry no `pbs_kernel`
        // field; they must keep parsing (and mean the classical
        // kernel) so committed bench snapshots stay readable.
        let mut p = TfheParameters::testing_fast();
        p.pbs_kernel = PbsKernel::MultiBit { grouping_factor: 2 };
        let json = serde_json::to_string(&p).unwrap();
        let back: TfheParameters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);

        let legacy = serde_json::to_string(&TfheParameters::testing_fast()).unwrap();
        let stripped = legacy.replace(",\"pbs_kernel\":\"Classical\"", "");
        assert!(stripped.len() < legacy.len(), "field must have been present: {legacy}");
        let parsed: TfheParameters = serde_json::from_str(&stripped).unwrap();
        assert_eq!(parsed.pbs_kernel, PbsKernel::Classical);
    }

    #[test]
    fn parameters_without_backend_field_deserialize_as_auto() {
        // Pre-backend snapshots carry no `fft_backend` field; they must
        // keep parsing and mean runtime CPU detection.
        let legacy = serde_json::to_string(&TfheParameters::testing_fast()).unwrap();
        let stripped = legacy.replace(",\"fft_backend\":\"Auto\"", "");
        assert!(stripped.len() < legacy.len(), "field must have been present: {legacy}");
        let parsed: TfheParameters = serde_json::from_str(&stripped).unwrap();
        assert_eq!(parsed.fft_backend, StrixFftBackend::Auto);

        // Explicit backends round-trip.
        let forced = TfheParameters::testing_fast().with_fft_backend(StrixFftBackend::Portable);
        let json = serde_json::to_string(&forced).unwrap();
        let back: TfheParameters = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fft_backend, StrixFftBackend::Portable);
    }

    #[test]
    fn validation_tracks_backend_availability() {
        // A backend validates exactly when it resolves (SIMD tiers when
        // the host CPU supports them; `Auto` unless `STRIX_FFT_BACKEND`
        // names something unusable), so keygen's `expect` can rely on a
        // validated parameter set never naming an unusable backend.
        let base = TfheParameters::testing_fast();
        for backend in [StrixFftBackend::Auto, StrixFftBackend::Portable, StrixFftBackend::Avx2] {
            let p = base.clone().with_fft_backend(backend);
            assert_eq!(p.validate().is_ok(), backend.resolve().is_ok(), "{backend}");
        }
    }

    #[test]
    fn multi_bit_key_sizes_count_pattern_entries() {
        let p = TfheParameters::testing_fast(); // n = 64
        assert_eq!(p.multi_bit_group_count(2), 32);
        assert_eq!(p.multi_bit_group_count(3), 22); // 21 full + 1 remainder
                                                    // g=2: 32 groups × 4 patterns = 128 entries (2× classical 64).
        assert_eq!(p.multi_bit_bootstrap_key_bytes(2), 128 * p.fourier_ggsw_bytes());
        // g=3: 21 × 8 + 2^(64 mod 3 = 1) = 170 entries.
        assert_eq!(p.multi_bit_bootstrap_key_bytes(3), 170 * p.fourier_ggsw_bytes());
        // g dividing n exactly: no remainder group.
        let ii = TfheParameters::set_ii(); // n = 630
        assert_eq!(ii.multi_bit_group_count(2), 315);
        assert_eq!(ii.multi_bit_bootstrap_key_bytes(2), 1260 * ii.fourier_ggsw_bytes());
    }

    #[test]
    fn deep_nn_rejects_unsupported_sizes_as_error() {
        assert!(matches!(
            TfheParameters::deep_nn(512),
            Err(TfheError::InvalidParameters(msg)) if msg.contains("deep-NN")
        ));
        assert!(TfheParameters::deep_nn(2048).is_ok());
    }
}
