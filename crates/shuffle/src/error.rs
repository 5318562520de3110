//! Shuffle operator errors.

use std::fmt;

use faaspipe_exchange::ExchangeError;
use faaspipe_store::StoreError;

/// Errors from the shuffle/sort operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShuffleError {
    /// An object-store request failed (possibly after retries).
    Store(StoreError),
    /// A data-exchange backend failed (possibly after retries).
    Exchange(ExchangeError),
    /// Intermediate data failed to deserialize.
    Corrupt {
        /// What was being decoded.
        what: &'static str,
    },
    /// The configuration is unusable (zero workers, no input, ...).
    BadConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A task (function invocation) kept failing after re-invocations.
    TaskFailed {
        /// Which phase the task belonged to.
        phase: &'static str,
        /// The final failure message.
        message: String,
    },
    /// A phase handed on a different number of bytes than it was given
    /// (`map`: assigned input vs bytes the mappers wrote; `exchange`:
    /// bytes written vs bytes the reducers gathered; `reduce`: bytes
    /// gathered vs sorted-run bytes).
    Conservation {
        /// The phase that lost or gained bytes.
        phase: &'static str,
        /// Bytes the phase was given.
        input: u64,
        /// Bytes it handed on.
        output: u64,
    },
}

impl fmt::Display for ShuffleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShuffleError::Store(e) => write!(f, "store error: {}", e),
            ShuffleError::Exchange(e) => write!(f, "exchange error: {}", e),
            ShuffleError::Corrupt { what } => write!(f, "corrupt {} data", what),
            ShuffleError::BadConfig { reason } => write!(f, "bad shuffle config: {}", reason),
            ShuffleError::TaskFailed { phase, message } => {
                write!(f, "{} task failed after retries: {}", phase, message)
            }
            ShuffleError::Conservation {
                phase,
                input,
                output,
            } => write!(
                f,
                "{} phase broke byte conservation: {} bytes in, {} bytes out",
                phase, input, output
            ),
        }
    }
}

impl std::error::Error for ShuffleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShuffleError::Store(e) => Some(e),
            ShuffleError::Exchange(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for ShuffleError {
    fn from(e: StoreError) -> Self {
        ShuffleError::Store(e)
    }
}

impl From<ExchangeError> for ShuffleError {
    fn from(e: ExchangeError) -> Self {
        ShuffleError::Exchange(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = ShuffleError::from(StoreError::NoSuchBucket { bucket: "b".into() });
        assert!(e.to_string().contains("no such bucket"));
        assert!(e.source().is_some());
        let e = ShuffleError::BadConfig {
            reason: "zero workers".into(),
        };
        assert!(e.to_string().contains("zero workers"));
    }
}
