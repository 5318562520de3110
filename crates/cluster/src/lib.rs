//! # faaspipe-cluster — a multi-tenant pipeline service layer
//!
//! The paper measures one METHCOMP pipeline at a time against a cloud it
//! has to itself. Real FaaS pipelines run as a *service*: many tenants
//! submit runs against **shared** infrastructure — one object store with
//! a global operations/s budget and aggregate bandwidth, one
//! warm-container pool, one VM fleet — and contend for all of it. This
//! crate turns the single-run executor into that service.
//!
//! A cluster run ([`run_cluster`]):
//!
//! * installs **one** [`ObjectStore`](faaspipe_store::ObjectStore), **one**
//!   [`FunctionPlatform`](faaspipe_faas::FunctionPlatform) (with the
//!   warm pool partitioned per tenant) and **one** shared
//!   [`VmFleet`](faaspipe_vm::VmFleet);
//! * drives an **open-loop** arrival process ([`ArrivalProcess`]): runs
//!   arrive on a schedule that does not slow down when the cluster is
//!   saturated, so queueing shows up as sojourn time, exactly like a
//!   production ingest queue;
//! * subjects each tenant to optional **admission control**
//!   ([`AdmissionPolicy`]): a concurrency cap and a per-tenant slice of
//!   the store's ops/s budget;
//! * executes every admitted run as a concurrent DES process tree via
//!   [`Executor::spawn_dag_in`](faaspipe_core::Executor::spawn_dag_in),
//!   with all stage tags prefixed `tenant/rN/...` so store metrics,
//!   function records and VM records attribute back to their tenant;
//! * reports per-tenant sojourn percentiles (p50/p99/p999), the Jain
//!   fairness index across tenants, per-tenant bills, and cluster
//!   offered-load vs goodput ([`ClusterReport`]).
//!
//! Naming convention: a run is `{tenant}/r{seq}` (global arrival index),
//! its stages are `{tenant}/r{seq}/sort` and `{tenant}/r{seq}/encode`.
//! Every store tag, invocation record and span label inherits that
//! prefix, which is what
//! [`StoreMetrics::total_for_scope`](faaspipe_store::StoreMetrics::total_for_scope)
//! and the per-tenant rows of [`CostReport`](faaspipe_core::CostReport)
//! key on.
//!
//! A single-tenant cluster with one arrival at `t = 0` and no admission
//! limits reproduces the standalone executor's Table-1 latency
//! **exactly** — the service layer adds naming and accounting, not
//! timing (`tests/` pin this).

pub mod admission;
pub mod arrival;
pub mod cluster;
pub mod metrics;

pub use admission::AdmissionPolicy;
pub use arrival::{Arrival, ArrivalProcess, MAX_ARRIVALS, MAX_ARRIVAL_NS};
pub use cluster::{
    run_cluster, ClusterConfig, ClusterError, ClusterReport, RunOutcome, TenantReport, TenantSpec,
    TraceMode, MAX_TENANTS,
};
pub use metrics::{jain_fairness, percentile};
