//! E3 — The paper's central claim: "object storage is a reasonable
//! choice for data passing **when the appropriate number of functions is
//! used** in shuffling stages."
//!
//! Sweeps the shuffle worker count, measures pipeline latency and cost at
//! each point, and compares the `"workers": "auto"` pick (the planner's
//! cost model over the worker ladder, backend and I/O window pinned)
//! against the empirical optimum. The model column is that model's
//! sort-stage makespan at each W.
//!
//! ```text
//! cargo run --release -p faaspipe-bench --bin repro_worker_sweep [-- --jobs N]
//! ```
//!
//! The 12-point worker sweep plus the `workers: auto` run are 13 independent
//! sims; they run through the [`faaspipe_sweep`] engine (`--jobs` worker
//! threads, default `FAASPIPE_JOBS` / core count) with serial-identical
//! output.

use faaspipe_bench::{write_json, SWEEP_RECORDS};
use faaspipe_core::dag::WorkerChoice;
use faaspipe_core::pipeline::{run_methcomp_pipeline, PipelineConfig, PipelineMode};
use faaspipe_exchange::{DirectConfig, ExchangeKind, RelayConfig};
use faaspipe_plan::{Candidate, ModelParams, Workload};
use faaspipe_sweep::Sweep;
use faaspipe_trace::{critical_path, Breakdown};

struct SweepRow {
    workers: usize,
    latency_s: f64,
    sort_latency_s: f64,
    model_sort_s: f64,
    cost_dollars: f64,
    autotuned: bool,
    compute_s: f64,
    store_io_s: f64,
    cold_start_s: f64,
    queueing_s: f64,
    other_s: f64,
}

faaspipe_json::json_object! { SweepRow { req workers, req latency_s, req sort_latency_s, req model_sort_s, req cost_dollars, req autotuned, req compute_s, req store_io_s, req cold_start_s, req queueing_s, req other_s } }

/// The sweep's configuration: the paper's Table-1 pipeline, serverless.
fn sweep_cfg() -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.mode = PipelineMode::PureServerless;
    cfg.physical_records = SWEEP_RECORDS;
    cfg
}

/// The planner's predicted sort-stage makespan at `workers`, with the
/// parameters a `workers: auto` stage plans with (derived from the
/// sweep's service configurations) and no encode tail.
fn model_sort_s(params: &ModelParams, cfg: &PipelineConfig, workers: usize) -> f64 {
    let wl = Workload::new(
        cfg.modeled_bytes as f64,
        cfg.parallelism,
        cfg.size_scale(),
        0,
    );
    let cand = Candidate {
        workers,
        io_concurrency: cfg.io_concurrency,
        exchange: cfg.exchange,
    };
    params.estimate(&wl, &cand).makespan_s
}

fn run(workers: WorkerChoice) -> (usize, f64, f64, f64, Breakdown) {
    let mut cfg = sweep_cfg();
    cfg.workers = workers;
    cfg.trace = true;
    let outcome = run_methcomp_pipeline(&cfg).expect("pipeline run");
    let sort = outcome
        .stages
        .iter()
        .find(|s| s.stage == "sort")
        .expect("sort stage");
    let breakdown = critical_path(&outcome.trace).expect("traced run has a breakdown");
    assert_eq!(
        breakdown.total(),
        breakdown.makespan,
        "critical-path buckets must sum to the makespan"
    );
    (
        outcome.sort_workers,
        outcome.latency.as_secs_f64(),
        sort.finished
            .saturating_duration_since(sort.started)
            .as_secs_f64(),
        outcome.cost.total().as_dollars(),
        breakdown,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = faaspipe_sweep::jobs_from_args_or_exit(&args);
    let sweep = [1usize, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128];
    let cfg = sweep_cfg();
    assert_eq!(cfg.exchange, ExchangeKind::Scatter);
    let params = ModelParams::from_configs(
        &cfg.store,
        &cfg.faas,
        &RelayConfig::default(),
        &DirectConfig::default(),
        &cfg.work,
        &cfg.pricing,
    );

    // The fixed-W grid plus the `workers: auto` run, all independent sims.
    let mut grid: Sweep<(usize, f64, f64, f64, Breakdown)> = Sweep::new();
    for &w in &sweep {
        grid.push(format!("W={}", w), move || run(WorkerChoice::Fixed(w)));
    }
    grid.push("W=auto", || run(WorkerChoice::Auto));
    let mut results = grid.run_expect(jobs).into_iter();

    let mut rows = Vec::new();
    let mut max_model_err: f64 = 0.0;
    println!(
        "workers  latency(s)  sort(s)  model(s)  err%   cost($)  \
         | measured: compute  store-io  cold  queue  other"
    );
    for &w in &sweep {
        let (_, latency, sort, cost, b) = results.next().expect("one row per W");
        let predicted = model_sort_s(&params, &cfg, w);
        let err = (predicted - sort).abs() / sort * 100.0;
        max_model_err = max_model_err.max(err);
        println!(
            "{:>7}  {:>10.2}  {:>7.2}  {:>8.2}  {:>4.0}%  {:>8.4}  \
             | {:>16.2} {:>9.2} {:>5.2} {:>6.2} {:>6.2}",
            w,
            latency,
            sort,
            predicted,
            err,
            cost,
            b.compute.as_secs_f64(),
            b.store_io.as_secs_f64(),
            b.cold_start.as_secs_f64(),
            b.queueing.as_secs_f64(),
            b.other.as_secs_f64()
        );
        rows.push(SweepRow {
            workers: w,
            latency_s: latency,
            sort_latency_s: sort,
            model_sort_s: predicted,
            cost_dollars: cost,
            autotuned: false,
            compute_s: b.compute.as_secs_f64(),
            store_io_s: b.store_io.as_secs_f64(),
            cold_start_s: b.cold_start.as_secs_f64(),
            queueing_s: b.queueing.as_secs_f64(),
            other_s: b.other.as_secs_f64(),
        });
    }
    println!(
        "the planner's model tracks the measured sort stage within {:.0}% across the sweep",
        max_model_err
    );
    let best = rows
        .iter()
        .min_by(|a, b| a.latency_s.total_cmp(&b.latency_s))
        .expect("non-empty sweep");
    println!(
        "empirical optimum: {} workers at {:.2}s",
        best.workers, best.latency_s
    );
    let best_workers = best.workers;
    let best_latency = best.latency_s;
    let worst_latency = rows.iter().map(|r| r.latency_s).fold(f64::MIN, f64::max);

    let (picked, latency, sort, cost, b) = results.next().expect("workers: auto row");
    println!(
        "workers: auto picked {} workers: {:.2}s (sort {:.2}s, ${:.4})",
        picked, latency, sort, cost
    );
    println!("{}", b.render());
    rows.push(SweepRow {
        workers: picked,
        latency_s: latency,
        sort_latency_s: sort,
        model_sort_s: model_sort_s(&params, &cfg, picked),
        cost_dollars: cost,
        autotuned: true,
        compute_s: b.compute.as_secs_f64(),
        store_io_s: b.store_io.as_secs_f64(),
        cold_start_s: b.cold_start.as_secs_f64(),
        queueing_s: b.queueing.as_secs_f64(),
        other_s: b.other.as_secs_f64(),
    });
    assert!(
        max_model_err < 30.0,
        "the planner's model must stay predictive; worst error {:.0}%",
        max_model_err
    );

    // The claim: a well-chosen worker count makes object storage
    // competitive; bad counts are much worse; `workers: auto` lands near
    // the optimum.
    assert!(
        worst_latency > best_latency * 1.5,
        "worker count must matter: best {:.1}s worst {:.1}s",
        best_latency,
        worst_latency
    );
    assert!(
        latency <= best_latency * 1.25,
        "workers: auto ({} w, {:.1}s) should be within 25% of the oracle ({} w, {:.1}s)",
        picked,
        latency,
        best_workers,
        best_latency
    );
    write_json("worker_sweep", &rows);
}
