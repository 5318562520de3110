//! E8 (ablation) — sensitivity to the store's operations/s budget: the
//! paper blames "the limited throughput of object storage services
//! (e.g., IBM COS only supports a few thousand operations/s)" for
//! all-to-all bottlenecks. This sweep throttles the budget and watches
//! an over-parallelised shuffle (64 fixed workers) degrade — and the
//! `"workers": "auto"` pick (the planner's cost model, which knows the
//! store's ops/s budget) shrink to compensate.
//!
//! ```text
//! cargo run --release -p faaspipe-bench --bin repro_ops_sensitivity
//! ```

use faaspipe_bench::{write_json, SWEEP_RECORDS};
use faaspipe_core::dag::WorkerChoice;
use faaspipe_core::pipeline::{run_methcomp_pipeline, PipelineConfig, PipelineMode};

struct Row {
    ops_per_sec: f64,
    workers: usize,
    latency_s: f64,
    autotuned_workers: usize,
    autotuned_latency_s: f64,
}

faaspipe_json::json_object! { Row { req ops_per_sec, req workers, req latency_s, req autotuned_workers, req autotuned_latency_s } }

fn run(ops: f64, workers: WorkerChoice) -> (usize, f64) {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.mode = PipelineMode::PureServerless;
    cfg.physical_records = SWEEP_RECORDS;
    cfg.workers = workers;
    cfg.store = cfg.store.with_ops_per_sec(ops);
    let outcome = run_methcomp_pipeline(&cfg).expect("pipeline run");
    (outcome.sort_workers, outcome.latency.as_secs_f64())
}

fn main() {
    let budgets = [100.0f64, 250.0, 500.0, 1_000.0, 3_000.0, 10_000.0];
    let mut rows = Vec::new();
    println!("ops/s   fixed-64-workers(s)   workers: auto(workers -> s)");
    for &ops in &budgets {
        let (_, fixed) = run(ops, WorkerChoice::Fixed(64));
        let (auto_w, auto_l) = run(ops, WorkerChoice::Auto);
        println!(
            "{:>6.0}  {:>19.2}   {:>9} -> {:>7.2}",
            ops, fixed, auto_w, auto_l
        );
        rows.push(Row {
            ops_per_sec: ops,
            workers: 64,
            latency_s: fixed,
            autotuned_workers: auto_w,
            autotuned_latency_s: auto_l,
        });
    }
    // Shape: a starved ops budget punishes the W² request pattern; the
    // planner compensates by picking fewer workers.
    let starved = &rows[0];
    let rich = rows.last().expect("non-empty");
    assert!(
        starved.latency_s > rich.latency_s * 1.2,
        "throttling must clearly hurt the fixed-64 configuration: {} vs {}",
        starved.latency_s,
        rich.latency_s
    );
    assert!(
        starved.autotuned_workers < rich.autotuned_workers,
        "workers: auto must pick fewer workers when ops are scarce"
    );
    assert!(
        starved.autotuned_latency_s < starved.latency_s,
        "workers: auto must beat the naive fixed-64 under throttling: {} vs {}",
        starved.autotuned_latency_s,
        starved.latency_s
    );
    write_json("ops_sensitivity", &rows);
}
