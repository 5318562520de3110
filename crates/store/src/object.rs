//! Buckets and listing entries.

use std::collections::BTreeMap;

use bytes::Bytes;
use faaspipe_des::ByteSize;

/// A bucket: an ordered key → object-bytes map.
pub(crate) type Bucket = BTreeMap<String, Bytes>;

/// Listing entry returned by `list`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectSummary {
    /// Object key.
    pub key: String,
    /// Real (unscaled) stored size.
    pub len: ByteSize,
}
