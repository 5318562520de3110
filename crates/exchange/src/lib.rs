//! # faaspipe-exchange — pluggable intermediate data-exchange backends
//!
//! The paper's central question is *how* pipeline stages exchange
//! intermediate data: through object storage or through a VM. This crate
//! makes that choice a first-class, pluggable subsystem: the
//! [`DataExchange`] trait models the all-to-all partition hand-off between
//! mappers and reducers, and three backends span the design space:
//!
//! - [`ObjectStoreExchange`] — the paper's serverless pattern: every byte
//!   moves through the simulated COS, either as W² scatter objects or as
//!   W coalesced blobs with byte-range reads
//!   ([`ExchangeStrategy`]).
//! - [`ShardedRelayExchange`] — Pocket-style in-memory relays hosted on
//!   simulated VMs: provisioning delay, per-second billing, each VM's own
//!   NIC bandwidth, and a capacity limit with disk spill. N shards sit
//!   behind one exchange with deterministic `(map, part)` → shard
//!   routing, so aggregate relay NIC bandwidth scales with the shard
//!   count; its pre-warming mode overlaps provisioning with the caller's
//!   next phase instead of blocking `prepare`. The paper's single relay
//!   VM ([`ExchangeKind::VmRelay`]) is one cold shard.
//! - [`DirectExchange`] — rendezvous function-to-function streaming
//!   through the DES fluid-flow network, gated on the sender's container
//!   still being warm.
//!
//! All backends charge virtual time for every operation, record
//! [`faaspipe_trace`] spans on the same `StoreRequest`/`Flow` categories
//! the store uses (so critical-path attribution keeps working), and route
//! every fallible request through the shared [`with_retry`] helper with
//! exponential backoff and deterministic jitter drawn from the DES rng.
//! Every call that issues several requests runs them through one
//! request window, [`windowed`], which the shuffle's chunk reads use
//! too.

mod api;
mod direct;
mod error;
mod object_store;
mod retry;
mod sharded;
mod span;
mod vm_relay;
mod window;

pub use api::{DataExchange, ExchangeEnv, ExchangeKind, ExchangeStrategy, MAX_RELAY_SHARDS};
pub use direct::{DirectConfig, DirectExchange};
pub use error::{ExchangeError, ExchangeParseError, ExchangeParseIssue, EXCHANGE_KIND_FORMS};
pub use object_store::ObjectStoreExchange;
pub use retry::{with_retry, Retryable};
pub use sharded::{ShardedRelayConfig, ShardedRelayExchange};
pub use vm_relay::RelayConfig;
pub use window::windowed;
