//! # faaspipe-core — serverless workflow engine and the paper's pipelines
//!
//! The Lithops-like layer of the reproduction: everything the paper's
//! demo shows sits here.
//!
//! * [`dag`] — workflows as DAGs of stages (shuffle-sort, VM-sort,
//!   parallel encode);
//! * [`spec`] — the **declarative JSON pipeline interface** of paper §2.4
//!   ("a module to create pipelines from JSON configuration files");
//! * [`executor`] — runs a DAG over the simulated cloud (functions, VMs,
//!   object store), one driver process per stage with dependency joins;
//! * [`tracker`] — the job tracker: per-stage progress log and cost
//!   breakdown (the demo's IPython tracker, rendered as text);
//! * [`pricing`] — an IBM-Cloud-like price book and cost assembly;
//! * [`pipeline`] — the two METHCOMP pipeline incarnations of Figure 1:
//!   **purely serverless** (A-in-paper-figure: functions + Primula-style
//!   shuffle) and **VM-hybrid** (sort inside a `bx2-8x32`), both returning
//!   latency, verified outputs, and itemized cost — the generators behind
//!   Table 1. [`run_methcomp_pipeline`] builds the Figure-1 DAG and runs
//!   it through [`run_pipeline`], the one run path, which runs any DAG
//!   (a JSON spec's too): it installs the services, stages the input,
//!   runs the simulation, and assembles latency, the bill and, on
//!   request, verification;
//! * [`report`] — Table-1-style reports and machine-readable emitters.
//!
//! ## Example
//!
//! ```no_run
//! use faaspipe_core::pipeline::{run_methcomp_pipeline, PipelineConfig, PipelineMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cfg = PipelineConfig::paper_table1();
//! cfg.physical_records = 50_000; // keep the demo quick
//! cfg.mode = PipelineMode::PureServerless;
//! let outcome = run_methcomp_pipeline(&cfg)?;
//! println!("latency {:.2}s cost {}", outcome.latency.as_secs_f64(), outcome.cost.total());
//! # Ok(())
//! # }
//! ```

pub mod dag;
pub mod executor;
pub mod pipeline;
pub mod pricing;
pub mod report;
pub mod spec;
pub mod tracker;

pub use dag::{
    Dag, DagError, EncodeCodec, Stage, StageId, StageKind, WorkerChoice, MAX_STAGE_WORKERS,
};
pub use executor::{stage_window, Executor, Services, StageResult, DEFAULT_MAX_AUTO_WORKERS};
pub use pipeline::{
    run_methcomp_pipeline, run_pipeline, size_scale, stage_input, Figure1, PipelineConfig,
    PipelineError, PipelineMode, PipelineOutcome,
};
pub use pricing::{CostReport, PriceBook};
pub use tracker::Tracker;
