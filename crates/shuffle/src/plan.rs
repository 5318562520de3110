//! Sort-output manifests.
//!
//! A manifest is a small JSON object written next to the sorted runs that
//! records what the operator produced — run keys in global order, record
//! counts, and byte sizes — so downstream stages can discover their
//! inputs without relying on key-format conventions (the same role
//! Lithops' result objects play for the paper's pipeline).

use bytes::Bytes;
use faaspipe_des::Ctx;
use faaspipe_store::StoreClient;

use crate::error::ShuffleError;

/// One sorted run in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunInfo {
    /// Object key of the run.
    pub key: String,
    /// Records in the run.
    pub records: u64,
    /// Real (unscaled) bytes of the run object.
    pub bytes: u64,
}

/// The manifest of one sort execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortManifest {
    /// Operator that produced the runs (`"serverless"` or `"vm"`).
    pub operator: String,
    /// Workers used.
    pub workers: usize,
    /// Total input bytes.
    pub input_bytes: u64,
    /// Total output bytes.
    pub output_bytes: u64,
    /// The runs, in global key order (their concatenation is the sorted
    /// dataset).
    pub runs: Vec<RunInfo>,
}

faaspipe_json::json_object! { RunInfo { req key, req records, req bytes } }
faaspipe_json::json_object! {
    SortManifest { req operator, req workers, req input_bytes, req output_bytes, req runs }
}

impl SortManifest {
    /// Total records across all runs.
    pub fn total_records(&self) -> u64 {
        self.runs.iter().map(|r| r.records).sum()
    }

    /// Serializes to JSON bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        faaspipe_json::to_vec_pretty(self)
    }

    /// Parses from JSON bytes.
    ///
    /// # Errors
    /// [`ShuffleError::Corrupt`] if the JSON is not a manifest.
    pub fn from_bytes(data: &[u8]) -> Result<SortManifest, ShuffleError> {
        faaspipe_json::from_slice(data).map_err(|_| ShuffleError::Corrupt { what: "manifest" })
    }

    /// Writes the manifest through a store client (one timed PUT).
    ///
    /// # Errors
    /// Store failures surfaced by the PUT.
    pub async fn write(
        &self,
        ctx: &mut Ctx,
        client: &StoreClient,
        bucket: &str,
        key: &str,
    ) -> Result<(), ShuffleError> {
        client
            .put(ctx, bucket, key, Bytes::from(self.to_bytes()))
            .await?;
        Ok(())
    }

    /// Reads a manifest through a store client (one timed GET).
    ///
    /// # Errors
    /// Store failures, or [`ShuffleError::Corrupt`] for non-manifest data.
    pub async fn read(
        ctx: &mut Ctx,
        client: &StoreClient,
        bucket: &str,
        key: &str,
    ) -> Result<SortManifest, ShuffleError> {
        let data = client.get(ctx, bucket, key).await?;
        SortManifest::from_bytes(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SortManifest {
        SortManifest {
            operator: "serverless".into(),
            workers: 4,
            input_bytes: 1000,
            output_bytes: 1000,
            runs: (0..4)
                .map(|j| RunInfo {
                    key: format!("out/{:05}", j),
                    records: 25,
                    bytes: 250,
                })
                .collect(),
        }
    }

    #[test]
    fn json_round_trip() {
        let m = sample();
        let bytes = m.to_bytes();
        let back = SortManifest::from_bytes(&bytes).expect("parse");
        assert_eq!(back, m);
        assert_eq!(back.total_records(), 100);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(matches!(
            SortManifest::from_bytes(b"not json at all"),
            Err(ShuffleError::Corrupt { what: "manifest" })
        ));
        assert!(SortManifest::from_bytes(b"{\"workers\": 3}").is_err());
    }

    #[test]
    fn store_round_trip() {
        use faaspipe_des::Sim;
        use faaspipe_store::{ObjectStore, StoreConfig};
        use parking_lot::Mutex;
        use std::sync::Arc;

        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        store.create_bucket("data").expect("bucket");
        let got: Arc<Mutex<Option<SortManifest>>> = Arc::new(Mutex::new(None));
        let got2 = Arc::clone(&got);
        let store2 = Arc::clone(&store);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let client = store2.connect(ctx, "manifest").await;
            let m = sample();
            m.write(ctx, &client, "data", "out/_manifest.json")
                .await
                .expect("write");
            *got2.lock() = Some(
                SortManifest::read(ctx, &client, "data", "out/_manifest.json")
                    .await
                    .expect("read"),
            );
        });
        sim.run().expect("sim ok");
        assert_eq!(got.lock().take().expect("read back"), sample());
    }
}
