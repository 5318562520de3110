//! # faaspipe-plan — calibrated cost/latency model and execution planner
//!
//! The paper's central claim is that the *appropriate number of
//! functions* decides whether object storage or VM-driven data exchange
//! wins — but picking that number (and the I/O window, the exchange
//! backend, and the relay shard count) by hand-run sweeps is exactly the
//! manual tuning Primula automates. This crate closes the loop:
//!
//! 1. [`model`] — an **analytical cost/latency model**: closed-form
//!    per-phase makespan and bill estimates for the serverless sort +
//!    encode pipeline, parameterized by start-class latencies
//!    (cold/warm), per-request overheads, bandwidth shares
//!    under W-way fair sharing, relay NIC/memory limits, and K-windowed
//!    I/O overlap ([`ModelParams`], [`Workload`], [`Candidate`],
//!    [`Estimate`]).
//! 2. [`mod@calibrate`] — a **calibrator** that fits those parameters from
//!    `faaspipe-trace` span data of a handful of cheap probe runs
//!    ([`ProbeSpec`], [`Calibration`]). Probe runs are pure functions of
//!    their seed, so calibration is deterministic and byte-identically
//!    reproducible.
//! 3. [`planner`] — a **planner** that enumerates and prunes the
//!    (W, K, backend, shards) space against the model and returns the
//!    predicted-optimal concrete configuration ([`Planner`], [`Plan`],
//!    [`SearchSpace`]). The executor exposes it end to end as
//!    `--exchange auto` / `"exchange": "auto"`.
//! 4. [`pricing`] — the **price book** ([`PriceBook`]): the one place a
//!    price lives. It bills a simulated run ([`CostReport`]) and the
//!    model prices a plan from it, so a planned bill and the bill of the
//!    run it plans use the same rates.
//!
//! The model mirrors the simulator's mechanics (see DESIGN.md
//! "Planner" for the equations); E19 (`repro_autotuner`) validates its
//! predictions against simulated ground truth across the full
//! E15/E16/E17 grid and reports model error and planner regret.

pub mod calibrate;
pub mod model;
pub mod planner;
pub mod pricing;

pub use calibrate::{calibrate, Calibration, CalibrationEvidence, ProbeRun, ProbeSpec};
pub use model::{Candidate, Estimate, ModelParams, Workload};
pub use planner::{Plan, Planner, SearchSpace};
pub use pricing::{CostReport, PriceBook, StageCost};
