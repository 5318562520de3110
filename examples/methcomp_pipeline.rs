//! The paper's demo, end to end: declare the METHCOMP workflow in JSON
//! (paper §2.4), run it both ways (Figure 1 A and B), watch the job
//! tracker, and compare latency and per-stage cost — a miniature Table 1.
//!
//! ```text
//! cargo run --release --example methcomp_pipeline
//! ```
//!
//! The two specs are `examples/methcomp-serverless.json` and
//! `examples/methcomp-hybrid.json`; `faaspipe run` takes them too.

use faaspipe::core::pipeline::{run_pipeline, PipelineConfig};
use faaspipe::core::spec::PipelineSpec;
use faaspipe::methcomp::MethRecord;
use faaspipe::shuffle::SortRecord;

/// Figure 1 B: purely serverless — declared in JSON.
const SERVERLESS_SPEC: &str = include_str!("methcomp-serverless.json");

/// Figure 1 A: hybrid — the sort stage runs inside a bx2-8x32 VM.
const HYBRID_SPEC: &str = include_str!("methcomp-hybrid.json");

fn run_spec(json: &str) -> Result<(), Box<dyn std::error::Error>> {
    let dag = PipelineSpec::from_json(json)?.to_dag()?;
    println!("=== workflow '{}' ({} stages) ===", dag.name, dag.len());

    // ~50k unsorted methylation records as 8 input chunks, at size
    // scale 1 (every wire byte and compute charge is physical).
    let mut cfg = PipelineConfig::paper_table1();
    cfg.physical_records = 50_000;
    cfg.modeled_bytes = (50_000 * MethRecord::WIRE_SIZE) as u64;
    cfg.seed = 7;
    cfg.verify = false;
    let outcome = run_pipeline(&cfg, &dag)?;

    println!("{}", outcome.tracker_log);
    for stage in &outcome.stages {
        println!(
            "stage '{}' took {} with {} workers",
            stage.stage,
            stage.finished.saturating_duration_since(stage.started),
            stage.workers_used
        );
    }
    println!("{}", outcome.cost.render());
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run_spec(SERVERLESS_SPEC)?;
    run_spec(HYBRID_SPEC)?;
    Ok(())
}
