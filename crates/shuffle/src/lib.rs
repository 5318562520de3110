//! # faaspipe-shuffle — a Primula-like serverless shuffle/sort operator
//!
//! Reproduces the mechanism of *Primula: A Practical Shuffle/Sort Operator
//! for Serverless Computing* (Sánchez-Artigas et al., Middleware'20), the
//! operator the paper's "purely serverless" pipeline uses for its
//! all-to-all sort stage:
//!
//! * **sample → range-partition → map → reduce** through object storage:
//!   mappers locally sort their chunk and scatter `W` partition objects;
//!   reducers gather `W` objects each and k-way merge them into globally
//!   ordered runs ([`sort`]);
//! * a **VM-driven baseline** ([`vmsort`]): download everything into one
//!   big instance, sort with all cores, upload — the hybrid pipeline's
//!   shuffle stage;
//! * **zero-copy kernels** ([`kernel`]): the mappers' sort + range
//!   partition and the VM baseline's whole-dataset sort run straight
//!   over the records' wire bytes — keys are decoded once per record,
//!   record payloads are copied once and never materialized as decoded
//!   vectors.
//!
//! The operator is generic over [`SortRecord`]; an implementation for
//! methylation BED records is provided (the paper's workload).
//!
//! Choosing "the optimal number of functions for a given shuffle data
//! size" — the paper's central claim is that object storage performs
//! well *iff* this number is chosen appropriately — is the planner's job
//! (`faaspipe-plan`): a stage with `"workers": "auto"` runs its
//! calibrated cost model over the worker-count ladder.

pub mod error;
pub mod kernel;
pub mod partitioner;
pub mod record;
pub mod sampler;
pub mod sort;
pub mod vmsort;
pub mod work;

pub use error::ShuffleError;
// Re-exported so downstream callers keep their `faaspipe_shuffle::{...}`
// paths after the exchange machinery moved into its own crate.
pub use faaspipe_exchange::{
    with_retry, DataExchange, ExchangeEnv, ExchangeError, ExchangeKind, ExchangeStrategy,
};
pub use kernel::{partition_sorted, scan_keys, sort_concat};
pub use partitioner::RangePartitioner;
pub use record::SortRecord;
pub use sort::{serverless_sort, streaming_merge, SortConfig, SortStats};
pub use vmsort::{vm_sort, VmSortConfig, VmSortStats};
pub use work::WorkModel;
