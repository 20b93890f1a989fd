//! Error type for transform construction and application.

use std::error::Error;
use std::fmt;

use crate::backend::{StrixFftBackend, BACKEND_ENV_VAR};

/// Errors produced by FFT plan construction and execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FftError {
    /// The requested transform size is not a supported power of two.
    InvalidSize {
        /// The size that was requested.
        requested: usize,
        /// The minimum supported size.
        min: usize,
    },
    /// An input or output buffer does not match the plan's size.
    LengthMismatch {
        /// The length the plan expects.
        expected: usize,
        /// The length that was supplied.
        actual: usize,
    },
    /// An explicitly requested kernel backend is not supported by the
    /// CPU this process is running on.
    BackendUnavailable {
        /// The backend that was requested.
        requested: StrixFftBackend,
    },
    /// The `STRIX_FFT_BACKEND` environment variable holds a value that
    /// is not one of `auto`, `portable` or `avx2`.
    InvalidBackendEnv,
}

impl fmt::Display for FftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FftError::InvalidSize { requested, min } => {
                write!(f, "transform size {requested} is not a power of two >= {min}")
            }
            FftError::LengthMismatch { expected, actual } => {
                write!(f, "buffer length {actual} does not match plan size {expected}")
            }
            FftError::BackendUnavailable { requested } => {
                write!(f, "kernel backend {requested} is not supported by this cpu")
            }
            FftError::InvalidBackendEnv => {
                write!(f, "{BACKEND_ENV_VAR} must be one of auto, portable, avx2")
            }
        }
    }
}

impl Error for FftError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = FftError::InvalidSize { requested: 3, min: 2 };
        assert_eq!(e.to_string(), "transform size 3 is not a power of two >= 2");
        let e = FftError::LengthMismatch { expected: 8, actual: 4 };
        assert_eq!(e.to_string(), "buffer length 4 does not match plan size 8");
        let e = FftError::BackendUnavailable { requested: StrixFftBackend::Avx2 };
        assert_eq!(e.to_string(), "kernel backend avx2 is not supported by this cpu");
        let e = FftError::InvalidBackendEnv;
        assert_eq!(e.to_string(), "STRIX_FFT_BACKEND must be one of auto, portable, avx2");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FftError>();
    }
}
