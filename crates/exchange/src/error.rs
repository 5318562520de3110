//! Exchange-backend error types.

use std::fmt;

use faaspipe_store::StoreError;

use crate::retry::Retryable;

/// Errors returned by [`DataExchange`](crate::DataExchange) backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeError {
    /// An underlying object-store operation failed.
    Store(StoreError),
    /// The backend was used before [`prepare`](crate::DataExchange::prepare).
    NotPrepared {
        /// The backend's name.
        backend: &'static str,
    },
    /// A transient relay fault injected by the backend's
    /// [`FailurePolicy`](faaspipe_store::FailurePolicy) — retryable.
    RelayUnavailable {
        /// The operation that failed (e.g. `"PUT"`).
        op: &'static str,
    },
    /// The relay VM crashed and lost its contents — not retryable.
    RelayDown {
        /// The operation that observed the crash.
        op: &'static str,
    },
    /// The requested partition was never written.
    MissingPartition {
        /// Mapper index.
        map: usize,
        /// Reducer (partition) index.
        part: usize,
    },
    /// The peer did not answer the rendezvous in time — retryable.
    PeerTimeout {
        /// Mapper index.
        map: usize,
        /// Reducer (partition) index.
        part: usize,
    },
    /// The sending function's container went cold and its buffered
    /// partition is gone — not retryable.
    PeerGone {
        /// Mapper index.
        map: usize,
        /// Reducer (partition) index.
        part: usize,
    },
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeError::Store(e) => write!(f, "store: {}", e),
            ExchangeError::NotPrepared { backend } => {
                write!(f, "{} backend used before prepare()", backend)
            }
            ExchangeError::RelayUnavailable { op } => {
                write!(f, "relay {} temporarily unavailable", op)
            }
            ExchangeError::RelayDown { op } => write!(f, "relay VM down during {}", op),
            ExchangeError::MissingPartition { map, part } => {
                write!(f, "partition ({}, {}) was never written", map, part)
            }
            ExchangeError::PeerTimeout { map, part } => {
                write!(f, "peer timeout reading partition ({}, {})", map, part)
            }
            ExchangeError::PeerGone { map, part } => write!(
                f,
                "sender of partition ({}, {}) went cold; data lost",
                map, part
            ),
        }
    }
}

impl std::error::Error for ExchangeError {}

/// The valid spellings of an exchange kind, listed by every parse error
/// so callers never have to guess the grammar.
pub const EXCHANGE_KIND_FORMS: &str =
    "scatter | coalesced | vm_relay | direct | sharded_relay[:N][:prewarm] | auto";

/// Why an [`ExchangeKind`](crate::ExchangeKind) string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeParseIssue {
    /// The base name matched none of the known backends.
    UnknownKind,
    /// `sharded_relay:0` — a relay fleet needs at least one shard.
    ZeroShards,
    /// A shard count above [`MAX_RELAY_SHARDS`](crate::MAX_RELAY_SHARDS).
    TooManyShards {
        /// The requested shard count.
        shards: usize,
    },
    /// A `sharded_relay` parameter was neither a shard count nor
    /// `prewarm`.
    UnknownParameter {
        /// The offending parameter text.
        parameter: String,
    },
}

/// Error returned by `ExchangeKind::from_str`. One type for every
/// failure mode; its [`std::fmt::Display`] output always ends with the full list of
/// valid forms ([`EXCHANGE_KIND_FORMS`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeParseError {
    /// The input that failed to parse.
    pub input: String,
    /// What specifically was wrong with it.
    pub issue: ExchangeParseIssue,
}

impl fmt::Display for ExchangeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.issue {
            ExchangeParseIssue::UnknownKind => {
                write!(f, "unknown exchange '{}'", self.input)?;
            }
            ExchangeParseIssue::ZeroShards => {
                write!(
                    f,
                    "exchange '{}': shard count must be at least 1",
                    self.input
                )?;
            }
            ExchangeParseIssue::TooManyShards { shards } => {
                write!(
                    f,
                    "exchange '{}': {} shards exceeds the ceiling of {}",
                    self.input,
                    shards,
                    crate::MAX_RELAY_SHARDS
                )?;
            }
            ExchangeParseIssue::UnknownParameter { parameter } => {
                write!(
                    f,
                    "exchange '{}': unknown parameter '{}'",
                    self.input, parameter
                )?;
            }
        }
        write!(f, " (expected {})", EXCHANGE_KIND_FORMS)
    }
}

impl std::error::Error for ExchangeParseError {}

impl From<StoreError> for ExchangeError {
    fn from(e: StoreError) -> Self {
        ExchangeError::Store(e)
    }
}

impl Retryable for ExchangeError {
    fn is_retryable(&self) -> bool {
        match self {
            ExchangeError::Store(e) => e.is_retryable(),
            ExchangeError::RelayUnavailable { .. } | ExchangeError::PeerTimeout { .. } => true,
            ExchangeError::NotPrepared { .. }
            | ExchangeError::RelayDown { .. }
            | ExchangeError::MissingPartition { .. }
            | ExchangeError::PeerGone { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            ExchangeError::RelayDown { op: "GET" }.to_string(),
            "relay VM down during GET"
        );
        assert_eq!(
            ExchangeError::PeerGone { map: 1, part: 2 }.to_string(),
            "sender of partition (1, 2) went cold; data lost"
        );
        assert_eq!(
            ExchangeError::Store(StoreError::Injected { op: "PUT" }).to_string(),
            "store: injected PUT failure"
        );
    }

    #[test]
    fn retryability_classes() {
        assert!(ExchangeError::RelayUnavailable { op: "PUT" }.is_retryable());
        assert!(ExchangeError::PeerTimeout { map: 0, part: 0 }.is_retryable());
        assert!(ExchangeError::Store(StoreError::Injected { op: "GET" }).is_retryable());
        assert!(!ExchangeError::RelayDown { op: "GET" }.is_retryable());
        assert!(!ExchangeError::PeerGone { map: 0, part: 0 }.is_retryable());
        assert!(!ExchangeError::MissingPartition { map: 0, part: 0 }.is_retryable());
        assert!(
            !ExchangeError::Store(StoreError::NoSuchBucket { bucket: "b".into() }).is_retryable()
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExchangeError>();
    }
}
