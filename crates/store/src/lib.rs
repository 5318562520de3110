//! # faaspipe-store — simulated cloud object storage
//!
//! An in-memory object store with an S3/IBM-COS-shaped API, wired into the
//! [`faaspipe-des`](faaspipe_des) virtual-time kernel. The **data plane is
//! real** — objects hold actual bytes, so pipelines built on top can be
//! checked end-to-end — while the **control plane is modelled**: every
//! request pays a first-byte latency, occupies a slot of the store's
//! operations/s budget (the paper's "IBM COS only supports a few thousand
//! operations/s"), and moves its payload through bandwidth-constrained
//! links shared max-min fairly with all concurrent requests.
//!
//! ## Example
//!
//! ```
//! use faaspipe_des::Sim;
//! use faaspipe_store::{ObjectStore, StoreConfig};
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = Sim::new();
//! let store = ObjectStore::install(&mut sim, StoreConfig::default());
//! store.create_bucket("data")?;
//! let handle = store.clone();
//! sim.spawn("writer", move |mut ctx| async move {
//!     let ctx = &mut ctx;
//!     let client = handle.connect(ctx, "example").await;
//!     let greeting = Bytes::from("hello");
//!     client.put(ctx, "data", "greeting", greeting).await.unwrap();
//!     let body = client.get(ctx, "data", "greeting").await.unwrap();
//!     assert_eq!(&body[..], b"hello");
//! });
//! sim.run()?;
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod error;
pub mod failure;
pub mod metrics;
pub mod object;
pub mod service;

pub use config::{scaled_len, StoreConfig};
pub use error::StoreError;
pub use failure::FailurePolicy;
pub use metrics::{RequestClass, StoreMetrics, TagMetrics};
pub use object::ObjectSummary;
pub use service::{ObjectStore, StoreClient};
