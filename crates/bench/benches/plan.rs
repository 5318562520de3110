//! Planner hot-path cost: single model evaluation and the full
//! (W, K, backend, shards) search enumeration.
//!
//! The planner runs inline inside `Executor::plan_stage` before the
//! shuffle stage starts, so its cost must be negligible next to even a
//! quick simulated run — a full search should stay well under a
//! millisecond.

use criterion::{criterion_group, criterion_main, Criterion};

use faaspipe_plan::{Candidate, ModelParams, Planner, Workload};
use faaspipe_shuffle::ExchangeKind;

fn table1_workload() -> Workload {
    // 3.5 GB modeled input split into 8 chunks, as in the Table-1 run.
    Workload::new(3_500_000_000.0, 8, 1.0, 8)
}

fn bench_plan(c: &mut Criterion) {
    let params = ModelParams::default();
    let wl = table1_workload();

    c.bench_function("model_estimate", |b| {
        let cand = Candidate {
            workers: 32,
            io_concurrency: 4,
            exchange: ExchangeKind::Scatter,
        };
        b.iter(|| params.estimate(&wl, &cand))
    });

    c.bench_function("planner_full_search", |b| {
        let planner = Planner::new(params.clone());
        b.iter(|| planner.plan(&wl))
    });
}

criterion_group!(benches, bench_plan);
criterion_main!(benches);
