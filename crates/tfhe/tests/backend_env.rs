//! Regression: an unrecognised `STRIX_FFT_BACKEND` is a typed
//! validation error, not a panic deep in key generation.
//!
//! `TfheParameters::validate` used to check only `is_available()`, which
//! is always true for `Auto`, so `STRIX_FFT_BACKEND=bogus` validated and
//! then panicked at a bootstrapping-key plan `expect`. The retired
//! `avx512` spelling is unknown in the same way, and an empty value
//! means `auto`. This file is its own test binary with a single test
//! because it sets the variable for the whole process; no other test
//! can observe it.

use strix_fft::{FftError, BACKEND_ENV_VAR};
use strix_tfhe::prelude::*;
use strix_tfhe::StrixFftBackend;

#[test]
fn unrecognised_backend_env_fails_validation_before_keygen() {
    std::env::set_var(BACKEND_ENV_VAR, "bogus");
    let params = TfheParameters::testing_fast();
    assert_eq!(
        params.validate(),
        Err(TfheError::InvalidParameters("STRIX_FFT_BACKEND must be one of auto, portable, avx2"))
    );
    // An explicit backend never consults the variable.
    assert_eq!(params.clone().with_fft_backend(StrixFftBackend::Portable).validate(), Ok(()));

    // Keygen now stops at its documented validation contract instead
    // of reaching the plan construction inside the key generators.
    let payload = std::panic::catch_unwind(|| generate_keys(&params, 7)).unwrap_err();
    let message = payload.downcast_ref::<String>().expect("expect() panics carry a String");
    assert!(message.starts_with("parameter set must be valid"), "{message}");

    // There is no AVX-512 tier: its old spelling is as unknown as any.
    std::env::set_var(BACKEND_ENV_VAR, "avx512");
    assert_eq!(StrixFftBackend::Auto.resolve(), Err(FftError::InvalidBackendEnv));
    assert_eq!(
        params.validate(),
        Err(TfheError::InvalidParameters("STRIX_FFT_BACKEND must be one of auto, portable, avx2"))
    );

    // An empty value means `auto`.
    std::env::set_var(BACKEND_ENV_VAR, " ");
    assert_eq!(StrixFftBackend::Auto.resolve(), Ok(StrixFftBackend::detect_best()));
    assert_eq!(params.validate(), Ok(()));
}
