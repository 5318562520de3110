//! Objects, buckets, and related value types.

use std::collections::BTreeMap;

use bytes::Bytes;
use faaspipe_des::{ByteSize, SimTime};

/// A stored object.
#[derive(Debug, Clone)]
pub(crate) struct Object {
    pub data: Bytes,
    pub etag: u64,
    pub created: SimTime,
}

/// A bucket: an ordered key → object map plus in-flight multipart uploads.
#[derive(Debug, Default)]
pub(crate) struct Bucket {
    pub objects: BTreeMap<String, Object>,
    pub uploads: BTreeMap<u64, PartialUpload>,
}

/// An in-progress multipart upload.
#[derive(Debug, Default)]
pub(crate) struct PartialUpload {
    pub key: String,
    pub parts: BTreeMap<u32, Bytes>,
}

/// Result of a successful PUT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutResult {
    /// Version of the stored object: a store-wide number that every
    /// committed write takes fresh, so two writes never share one — even
    /// of identical bytes. Not a content hash.
    pub etag: u64,
    /// Real (unscaled) stored size.
    pub len: ByteSize,
}

/// Listing entry returned by `list`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectSummary {
    /// Object key.
    pub key: String,
    /// Real (unscaled) stored size.
    pub len: ByteSize,
    /// Version of the object (see [`PutResult::etag`]).
    pub etag: u64,
    /// Virtual time the object was written.
    pub created: SimTime,
}
