//! Pluggable SIMD kernel backends for the SoA transform hot path.
//!
//! The Strix paper attacks the PBS bottleneck at the *datapath* level:
//! FPT's fixed-point pipeline and the Strix FFT/VMA units are
//! hand-scheduled lane-parallel hardware, not compiler output. This
//! module is the software analogue: the batched butterfly stages, the
//! fused fold/twist and untwist/unfold passes, the i64→f64 torus
//! conversions, and the mixed-layout VMA kernel (which no PBS path
//! runs; a per-layer VMA probe times it) are each implemented twice —
//!
//! * [`portable`] — the autovectorised scalar loops (the former inline
//!   bodies of `kernel.rs`/`negacyclic.rs`, unchanged), correct on
//!   every architecture and the bit-identity reference;
//! * [`avx2`] — explicit 4-lane `std::arch::x86_64` AVX2 kernels.
//!
//! Only ops where the explicit kernel measurably beats the
//! autovectorised loop get one. The fully split VMA does not: its
//! plain loop in `negacyclic.rs` measured faster than an explicit AVX2
//! kernel, so that loop is its only implementation, on every backend.
//!
//! One backend is resolved per plan at construction time
//! ([`StrixFftBackend::resolve`]): runtime CPU detection via
//! `is_x86_feature_detected!`, overridable by the
//! `STRIX_FFT_BACKEND` environment variable or an explicit
//! [`crate::SpectralPlan::with_backend`] /
//! [`crate::NegacyclicFft::with_backend`] request, mirroring
//! tfhe-rs's per-backend `execute_pbs` dispatch.
//!
//! # Bit-identity
//!
//! Every dispatched loop is elementwise-independent across its index,
//! and rustc keeps floating-point contraction *off*, so a SIMD lane
//! computing the same mul/add/sub expression as the scalar loop rounds
//! identically. The SIMD kernels therefore use only separate
//! multiply/add/subtract instructions — **never FMA**, whose single
//! rounding would diverge from the scalar oracle — and both backends
//! produce bit-identical spectra (pinned by
//! `crates/fft/tests/backend_identity.rs`).
//!
//! # Safety policy
//!
//! All `unsafe` in this crate lives in this file and `avx2.rs`
//! (enforced by the `unsafe-hygiene` xtask lint): the pointer-width
//! loads/stores in `avx2.rs` and the feature-gated calls below, each
//! behind a length assertion or the feature check made at plan
//! construction, each carrying a `// SAFETY:` comment.
#![allow(unsafe_code)]

use serde::{Deserialize, Serialize};

use crate::complex::Complex64;
use crate::error::FftError;

pub(crate) mod portable;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;

/// Kernel-backend selector for [`crate::SpectralPlan`] /
/// [`crate::NegacyclicFft`] construction.
///
/// `Auto` (the default) resolves to the fastest backend the running
/// CPU supports ([`StrixFftBackend::detect_best`]), after consulting
/// the `STRIX_FFT_BACKEND` environment variable (`auto` | `portable` |
/// `avx2`, parsed by [`FromStr`](std::str::FromStr)). Explicitly
/// requesting a backend the CPU lacks fails plan construction with
/// [`FftError::BackendUnavailable`] rather than silently falling back.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrixFftBackend {
    /// Resolve at plan construction: env override, then CPU detection.
    #[default]
    Auto,
    /// The autovectorised scalar SoA loops (every architecture).
    Portable,
    /// Explicit 4-lane AVX2 kernels (`x86_64` with `avx2` + `fma`).
    Avx2,
}

/// Environment variable consulted when resolving [`StrixFftBackend::Auto`].
pub const BACKEND_ENV_VAR: &str = "STRIX_FFT_BACKEND";

impl StrixFftBackend {
    /// Stable lowercase label (`"auto"` / `"portable"` / `"avx2"`),
    /// matching the `STRIX_FFT_BACKEND` spellings.
    pub fn label(self) -> &'static str {
        match self {
            StrixFftBackend::Auto => "auto",
            StrixFftBackend::Portable => "portable",
            StrixFftBackend::Avx2 => "avx2",
        }
    }

    /// Whether the running CPU can execute this backend. `Auto` and
    /// `Portable` are always available.
    pub fn is_available(self) -> bool {
        match self {
            StrixFftBackend::Auto | StrixFftBackend::Portable => true,
            StrixFftBackend::Avx2 => cpu_has_avx2(),
        }
    }

    /// The fastest backend the running CPU supports (no env consulted).
    pub fn detect_best() -> Self {
        if cpu_has_avx2() {
            StrixFftBackend::Avx2
        } else {
            StrixFftBackend::Portable
        }
    }

    /// Resolves `self` to a concrete (never `Auto`) backend.
    ///
    /// `Auto` consults `STRIX_FFT_BACKEND` first (a fresh read per
    /// call, so tests and CI can steer plan construction; unset or
    /// empty means `auto`), then falls back to [`Self::detect_best`].
    /// An explicit request — whether from the caller or the
    /// environment — for a backend the CPU lacks is an error, never a
    /// silent fallback.
    ///
    /// # Errors
    ///
    /// [`FftError::BackendUnavailable`] if the requested backend is
    /// unsupported on this CPU; [`FftError::InvalidBackendEnv`] if the
    /// environment variable holds an unrecognized value.
    pub fn resolve(self) -> Result<Self, FftError> {
        let requested = match self {
            StrixFftBackend::Auto => match std::env::var(BACKEND_ENV_VAR) {
                Ok(value) if !value.trim().is_empty() => value.parse()?,
                _ => StrixFftBackend::Auto,
            },
            explicit => explicit,
        };
        if requested == StrixFftBackend::Auto {
            return Ok(Self::detect_best());
        }
        if !requested.is_available() {
            return Err(FftError::BackendUnavailable { requested });
        }
        Ok(requested)
    }
}

impl std::fmt::Display for StrixFftBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for StrixFftBackend {
    type Err = FftError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(StrixFftBackend::Auto),
            "portable" => Ok(StrixFftBackend::Portable),
            "avx2" => Ok(StrixFftBackend::Avx2),
            _ => Err(FftError::InvalidBackendEnv),
        }
    }
}

/// The SIMD-relevant CPU features detected at runtime, as stable
/// lowercase names — recorded in the `benchmark/` package's host
/// provenance next to the backend, so its numbers say what hardware
/// produced them.
pub fn detected_cpu_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut features = Vec::new();
        if std::arch::is_x86_feature_detected!("avx") {
            features.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            features.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            features.push("avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx512dq") {
            features.push("avx512dq");
        }
        features
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

fn cpu_has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// Dispatch
//
// One function per backend-covered kernel op. `backend` is a *resolved*
// backend (never `Auto`) stored in the plan at construction, which is
// what makes the feature-gated calls below sound: an `Avx2`
// value can only exist after `is_x86_feature_detected!` confirmed the
// features (or the caller explicitly requested it and `resolve()`
// re-checked). On non-x86 targets only `Portable` is constructible.
// ---------------------------------------------------------------------------

/// Forward radix-2 DIF butterflies over every block of `len` in the
/// split planes.
#[inline]
pub(crate) fn fwd_stage_r2(
    backend: StrixFftBackend,
    re: &mut [f64],
    im: &mut [f64],
    len: usize,
    wr: &[f64],
    wi: &[f64],
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` is only resolved after runtime detection of
        // avx2+fma (see dispatch header comment).
        StrixFftBackend::Avx2 => unsafe { avx2::fwd_stage_r2(re, im, len, wr, wi) },
        _ => portable::fwd_stage_r2(re, im, len, wr, wi),
    }
}

/// Forward radix-4 DIF butterflies over every block of `len`.
#[inline]
pub(crate) fn fwd_stage_r4(
    backend: StrixFftBackend,
    re: &mut [f64],
    im: &mut [f64],
    len: usize,
    twr: &[f64],
    twi: &[f64],
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies runtime-detected avx2+fma.
        StrixFftBackend::Avx2 => unsafe { avx2::fwd_stage_r4(re, im, len, twr, twi) },
        _ => portable::fwd_stage_r4(re, im, len, twr, twi),
    }
}

/// Inverse radix-2 DIT butterflies over every block of `len`.
#[inline]
pub(crate) fn inv_stage_r2(
    backend: StrixFftBackend,
    re: &mut [f64],
    im: &mut [f64],
    len: usize,
    wr: &[f64],
    wi: &[f64],
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies runtime-detected avx2+fma.
        StrixFftBackend::Avx2 => unsafe { avx2::inv_stage_r2(re, im, len, wr, wi) },
        _ => portable::inv_stage_r2(re, im, len, wr, wi),
    }
}

/// Inverse radix-4 DIT butterflies over every block of `len`.
#[inline]
pub(crate) fn inv_stage_r4(
    backend: StrixFftBackend,
    re: &mut [f64],
    im: &mut [f64],
    len: usize,
    twr: &[f64],
    twi: &[f64],
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies runtime-detected avx2+fma.
        StrixFftBackend::Avx2 => unsafe { avx2::inv_stage_r4(re, im, len, twr, twi) },
        _ => portable::inv_stage_r4(re, im, len, twr, twi),
    }
}

/// Fused fold + twist + first forward stage (radix-2 head) of one
/// `2n`-coefficient `i64` polynomial into split spectrum planes.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the fused kernel's full operand set
pub(crate) fn fold_twist_r2(
    backend: StrixFftBackend,
    poly: &[i64],
    twist_re: &[f64],
    twist_im: &[f64],
    out_re: &mut [f64],
    out_im: &mut [f64],
    wr: &[f64],
    wi: &[f64],
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies runtime-detected avx2+fma.
        StrixFftBackend::Avx2 => unsafe {
            avx2::fold_twist_r2(poly, twist_re, twist_im, out_re, out_im, wr, wi)
        },
        _ => portable::fold_twist_r2(poly, twist_re, twist_im, out_re, out_im, wr, wi),
    }
}

/// Fused fold + twist + first forward stage (radix-4 head) of one
/// `2n`-coefficient `i64` polynomial into split spectrum planes.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the fused kernel's full operand set
pub(crate) fn fold_twist_r4(
    backend: StrixFftBackend,
    poly: &[i64],
    twist_re: &[f64],
    twist_im: &[f64],
    out_re: &mut [f64],
    out_im: &mut [f64],
    twr: &[f64],
    twi: &[f64],
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies runtime-detected avx2+fma.
        StrixFftBackend::Avx2 => unsafe {
            avx2::fold_twist_r4(poly, twist_re, twist_im, out_re, out_im, twr, twi)
        },
        _ => portable::fold_twist_r4(poly, twist_re, twist_im, out_re, out_im, twr, twi),
    }
}

/// Fused last inverse stage (radix-2) + merged untwist/normalise
/// multiply + unfold of one spectrum into `2n` real coefficients.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the fused kernel's full operand set
pub(crate) fn untwist_unfold_r2(
    backend: StrixFftBackend,
    sre: &[f64],
    sim: &[f64],
    u_re: &[f64],
    u_im: &[f64],
    out: &mut [f64],
    wr: &[f64],
    wi: &[f64],
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies runtime-detected avx2+fma.
        StrixFftBackend::Avx2 => unsafe {
            avx2::untwist_unfold_r2(sre, sim, u_re, u_im, out, wr, wi)
        },
        _ => portable::untwist_unfold_r2(sre, sim, u_re, u_im, out, wr, wi),
    }
}

/// Fused last inverse stage (radix-4) + merged untwist/normalise
/// multiply + unfold of one spectrum into `2n` real coefficients.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the fused kernel's full operand set
pub(crate) fn untwist_unfold_r4(
    backend: StrixFftBackend,
    sre: &[f64],
    sim: &[f64],
    u_re: &[f64],
    u_im: &[f64],
    out: &mut [f64],
    twr: &[f64],
    twi: &[f64],
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies runtime-detected avx2+fma.
        StrixFftBackend::Avx2 => unsafe {
            avx2::untwist_unfold_r4(sre, sim, u_re, u_im, out, twr, twi)
        },
        _ => portable::untwist_unfold_r4(sre, sim, u_re, u_im, out, twr, twi),
    }
}

/// Mixed-layout VMA: interleaved accumulator and `a`, split key
/// planes — `acc_k += a_k · (b_re_k + i·b_im_k)`.
#[inline]
pub(crate) fn mul_add_key(
    backend: StrixFftBackend,
    acc: &mut [Complex64],
    a: &[Complex64],
    b_re: &[f64],
    b_im: &[f64],
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies runtime-detected avx2+fma.
        StrixFftBackend::Avx2 => unsafe { avx2::mul_add_key(acc, a, b_re, b_im) },
        _ => portable::mul_add_key(acc, a, b_re, b_im),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_fromstr() {
        for b in [StrixFftBackend::Auto, StrixFftBackend::Portable, StrixFftBackend::Avx2] {
            assert_eq!(b.label().parse::<StrixFftBackend>().unwrap(), b);
            assert_eq!(b.to_string(), b.label());
        }
        assert_eq!(
            "AVX2".parse::<StrixFftBackend>().unwrap(),
            StrixFftBackend::Avx2,
            "parsing is case-insensitive"
        );
        for unknown in ["neon", "avx512", ""] {
            assert_eq!(unknown.parse::<StrixFftBackend>(), Err(FftError::InvalidBackendEnv));
        }
    }

    #[test]
    fn auto_and_portable_are_always_available() {
        assert!(StrixFftBackend::Auto.is_available());
        assert!(StrixFftBackend::Portable.is_available());
    }

    #[test]
    fn resolve_never_yields_auto() {
        let resolved = StrixFftBackend::Auto.resolve().unwrap();
        assert_ne!(resolved, StrixFftBackend::Auto);
        assert!(resolved.is_available());
        assert_eq!(StrixFftBackend::Portable.resolve().unwrap(), StrixFftBackend::Portable);
    }

    #[test]
    fn detect_best_is_available() {
        let best = StrixFftBackend::detect_best();
        assert!(best.is_available());
        assert_ne!(best, StrixFftBackend::Auto);
    }

    #[test]
    fn unavailable_explicit_backend_is_an_error() {
        // Exercise the error path when the host lacks AVX2; on capable
        // hosts just pin the success path.
        let b = StrixFftBackend::Avx2;
        match b.resolve() {
            Ok(r) => assert_eq!(r, b),
            Err(e) => assert_eq!(e, FftError::BackendUnavailable { requested: b }),
        }
    }

    #[test]
    fn detected_features_are_known_names() {
        for f in detected_cpu_features() {
            assert!(["avx", "avx2", "fma", "avx512f", "avx512dq"].contains(&f));
        }
    }
}
