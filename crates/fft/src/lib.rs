//! Floating-point FFT kernels for negacyclic polynomial arithmetic.
//!
//! This crate provides the transform layer that both the software TFHE
//! implementation (`strix-tfhe`) and the Strix accelerator model
//! (`strix-core`) are built on: **one kernel** on one data layout, with
//! two backends, checked against **two oracles**.
//!
//! The kernel:
//!
//! * [`SoaSpectrum`] — split-complex (structure-of-arrays) batches of
//!   spectra: one contiguous plane of real parts, one of imaginary
//!   parts. It is the only layout the transforms run on, the way the
//!   Strix FFT unit (§V-A) streams one layout into the VMA;
//! * [`SpectralPlan`] — the branch-free **bit-reversed-spectrum**
//!   kernel: a radix-4/radix-2 decimation-in-frequency forward
//!   transform (natural in → digit-reversed spectrum out) paired with
//!   the exact decimation-in-time inverse (digit-reversed in → natural
//!   out), with stage-major precomputed twiddle planes per direction —
//!   no permutation pass, no direction branch, no `conj()` in any
//!   inner loop. Its entry points ([`SpectralPlan::forward_many`],
//!   [`SpectralPlan::inverse_many`]) run each butterfly stage across a
//!   whole batch;
//! * [`NegacyclicFft`] — the *folding scheme* of the Strix paper (§V-A)
//!   on that kernel: an `N`-coefficient negacyclic transform computed
//!   on an `N/2`-point complex FFT by packing `a_j + i·a_{j+N/2}` and
//!   twisting by the odd 2N-th roots of unity, with the twist fused
//!   into the first forward stage and untwist + normalisation fused
//!   into the last inverse stage ([`NegacyclicFft::forward_i64_many`],
//!   [`NegacyclicFft::backward_f64_many`]);
//! * [`pointwise_mul_add_soa`] — the fused four-array VMA, which
//!   autovectorises into packed `f64` arithmetic;
//! * [`StrixFftBackend`] — the two kernel backends: the SoA butterfly
//!   stages and the fused fold/twist and untwist/unfold passes each
//!   exist as a portable scalar reference plus an explicit AVX2
//!   implementation, selected by runtime CPU detection at plan
//!   construction (or forced via [`SpectralPlan::with_backend`] / the
//!   `STRIX_FFT_BACKEND` environment variable) — both bit-identical.
//!   The mixed-layout VMA ([`NegacyclicFft::pointwise_mul_add_key`])
//!   is dispatched the same way; no PBS path runs it, only a
//!   per-layer VMA probe;
//! * [`Complex64`] — a minimal complex number type (kept
//!   dependency-free) for scalar code, tests and the oracles.
//!
//! The oracles, in [`mod@reference`]:
//!
//! * [`reference::negacyclic_mul`] — exact schoolbook negacyclic
//!   convolution, used in tests and for small parameter sets;
//! * [`reference::FftPlan`] — the seed iterative radix-2
//!   decimation-in-time FFT with natural-order spectra, which the
//!   digit-reversed kernel matches under [`SpectralPlan::permutation`].
//!
//! # Example
//!
//! ```
//! use strix_fft::NegacyclicFft;
//!
//! # fn main() -> Result<(), strix_fft::FftError> {
//! let fft = NegacyclicFft::new(8)?;
//! let a = [1i64, 2, 3, 4, 5, 6, 7, 8];
//! let b = [1i64, 0, 0, 0, 0, 0, 0, 0];
//! let mut out = [0i64; 8];
//! fft.negacyclic_mul_i64(&a, &b, &mut out)?;
//! assert_eq!(out, a); // multiplying by 1 is the identity
//! # Ok(())
//! # }
//! ```

mod backend;
mod complex;
mod error;
mod kernel;
mod negacyclic;
mod plan;
pub mod reference;
mod soa;

pub use backend::{detected_cpu_features, StrixFftBackend, BACKEND_ENV_VAR};
pub use complex::Complex64;
pub use error::FftError;
pub use kernel::SpectralPlan;
pub use negacyclic::{pointwise_mul_add_key, pointwise_mul_add_soa, MonomialTable, NegacyclicFft};
pub use soa::SoaSpectrum;

/// Returns `true` if `n` is a power of two greater than or equal to `min`.
pub(crate) fn is_pow2_at_least(n: usize, min: usize) -> bool {
    n >= min && n.is_power_of_two()
}
