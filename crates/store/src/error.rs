//! Object-store error types.

use std::fmt;

/// Errors returned by object-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The referenced bucket does not exist.
    NoSuchBucket {
        /// The missing bucket name.
        bucket: String,
    },
    /// The referenced key does not exist in the bucket.
    NoSuchKey {
        /// The bucket that was queried.
        bucket: String,
        /// The missing key.
        key: String,
    },
    /// A bucket with this name already exists.
    BucketAlreadyExists {
        /// The conflicting bucket name.
        bucket: String,
    },
    /// A byte range fell outside the object.
    InvalidRange {
        /// Requested start offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual object size.
        object_len: u64,
    },
    /// A fault injected by the configured [`FailurePolicy`](crate::FailurePolicy).
    Injected {
        /// The operation that failed (e.g. `"GET"`).
        op: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchBucket { bucket } => write!(f, "no such bucket '{}'", bucket),
            StoreError::NoSuchKey { bucket, key } => {
                write!(f, "no such key '{}/{}'", bucket, key)
            }
            StoreError::BucketAlreadyExists { bucket } => {
                write!(f, "bucket '{}' already exists", bucket)
            }
            StoreError::InvalidRange {
                offset,
                len,
                object_len,
            } => write!(
                f,
                "invalid range [{}, {}) for object of {} bytes",
                offset,
                offset + len,
                object_len
            ),
            StoreError::Injected { op } => write!(f, "injected {} failure", op),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            StoreError::NoSuchBucket { bucket: "b".into() }.to_string(),
            "no such bucket 'b'"
        );
        assert_eq!(
            StoreError::NoSuchKey {
                bucket: "b".into(),
                key: "k".into()
            }
            .to_string(),
            "no such key 'b/k'"
        );
        assert_eq!(
            StoreError::InvalidRange {
                offset: 10,
                len: 5,
                object_len: 12
            }
            .to_string(),
            "invalid range [10, 15) for object of 12 bytes"
        );
        assert_eq!(
            StoreError::Injected { op: "GET" }.to_string(),
            "injected GET failure"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreError>();
    }
}
