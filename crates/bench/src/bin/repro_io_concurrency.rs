//! E17 — intra-function parallel I/O: makespan vs the per-function I/O
//! window.
//!
//! Sweeps `io_concurrency` (K) — how many store reads / exchange
//! transfers each shuffle function keeps in flight — across exchange
//! backends and worker counts. `K = 1` keeps one request in flight per
//! function, so downloads and compute never overlap; raising K overlaps
//! transfer latency with compute and with other transfers until the
//! function NIC or the store's aggregate bandwidth saturates, after
//! which the curve goes flat. The sorted-run bytes are identical at
//! every K (the window is a schedule knob, not a transform —
//! `tests/exchange_backends.rs` pins that); what moves is the critical
//! path's store-I/O share.
//!
//! ```text
//! cargo run --release -p faaspipe-bench --bin repro_io_concurrency [-- --quick] [--jobs N]
//! ```
//!
//! `--quick` shrinks the sweep to a CI smoke run (W=8, K ∈ {1,4}, the
//! two object-store backends, few records, loose assertions). The
//! K × W × backend grid runs through the [`faaspipe_sweep`] engine
//! (`--jobs` worker threads, default `FAASPIPE_JOBS` / core count);
//! output is byte-identical to serial.

use faaspipe_bench::{write_json, SWEEP_RECORDS};
use faaspipe_core::dag::WorkerChoice;
use faaspipe_core::pipeline::{run_methcomp_pipeline, PipelineConfig, PipelineMode};
use faaspipe_shuffle::ExchangeKind;
use faaspipe_sweep::Sweep;
use faaspipe_trace::critical_path;

struct Row {
    io_concurrency: usize,
    workers: usize,
    backend: String,
    latency_s: f64,
    sort_latency_s: f64,
    cost_dollars: f64,
    compute_s: f64,
    store_io_s: f64,
}

faaspipe_json::json_object! {
    Row {
        req io_concurrency,
        req workers,
        req backend,
        req latency_s,
        req sort_latency_s,
        req cost_dollars,
        req compute_s,
        req store_io_s,
    }
}

const WINDOWS: [usize; 5] = [1, 2, 4, 8, 16];

fn run(k: usize, workers: usize, records: usize, backend: ExchangeKind) -> Row {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.mode = PipelineMode::PureServerless;
    cfg.physical_records = records;
    cfg.workers = WorkerChoice::Fixed(workers);
    cfg.exchange = backend;
    cfg.io_concurrency = k;
    cfg.trace = true;
    let outcome = run_methcomp_pipeline(&cfg).expect("pipeline run");
    assert!(
        outcome.verified,
        "{} W={} K={} must verify",
        backend, workers, k
    );
    let sort = outcome
        .stages
        .iter()
        .find(|s| s.stage == "sort")
        .expect("sort stage");
    let b = critical_path(&outcome.trace).expect("breakdown");
    Row {
        io_concurrency: k,
        workers,
        backend: backend.to_string(),
        latency_s: outcome.latency.as_secs_f64(),
        sort_latency_s: sort
            .finished
            .saturating_duration_since(sort.started)
            .as_secs_f64(),
        cost_dollars: outcome.cost.total().as_dollars(),
        compute_s: b.compute.as_secs_f64(),
        store_io_s: b.store_io.as_secs_f64(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = faaspipe_sweep::jobs_from_args_or_exit(&args);
    let (windows, workers_sweep, backends, records): (&[usize], &[usize], &[ExchangeKind], usize) =
        if quick {
            (
                &[1, 4],
                &[8],
                &[ExchangeKind::Scatter, ExchangeKind::Coalesced],
                8_000,
            )
        } else {
            (&WINDOWS, &[8, 32], &ExchangeKind::ALL, SWEEP_RECORDS)
        };

    // One cell per (W, backend, K) point, in curve order.
    let mut sweep: Sweep<Row> = Sweep::new();
    for &w in workers_sweep {
        for &backend in backends {
            for &k in windows {
                sweep.push(format!("{} W={} K={}", backend, w, k), move || {
                    run(k, w, records, backend)
                });
            }
        }
    }
    let mut results = sweep.run_expect(jobs).into_iter();

    let mut rows: Vec<Row> = Vec::new();
    for &w in workers_sweep {
        for &backend in backends {
            println!("\n{} @ W={} — latency by I/O window:", backend, w);
            println!(
                "{:>3}  {:>10}  {:>10}  {:>10}  {:>9}",
                "K", "latency", "sort", "store-io", "cost"
            );
            let mut curve: Vec<Row> = Vec::new();
            for &k in windows {
                let row = results.next().expect("one row per cell");
                println!(
                    "{:>3}  {:>9.2}s  {:>9.2}s  {:>9.2}s  ${:>8.4}",
                    k, row.latency_s, row.sort_latency_s, row.store_io_s, row.cost_dollars
                );
                curve.push(row);
            }

            // Widening the window must never make the makespan
            // meaningfully worse: the curve drops until the NIC / store
            // aggregate saturates, then flattens (a sub-1% wobble at the
            // plateau comes from chunk-granularity effects, not model
            // drift).
            for pair in curve.windows(2) {
                assert!(
                    pair[1].latency_s <= pair[0].latency_s * 1.01,
                    "{} W={}: K={} ({:.3}s) must not regress K={} ({:.3}s)",
                    backend,
                    w,
                    pair[1].io_concurrency,
                    pair[1].latency_s,
                    pair[0].io_concurrency,
                    pair[0].latency_s
                );
            }
            let first = &curve[0];
            let last = curve.last().expect("swept");
            if quick {
                assert!(
                    last.latency_s <= first.latency_s,
                    "{} W={}: widening the window must not slow the pipeline",
                    backend,
                    w
                );
            } else {
                // Full scale: the win must be real, and it must show up
                // where the model says it comes from — the critical
                // path's store-I/O share.
                assert!(
                    last.latency_s < first.latency_s,
                    "{} W={}: K={} must beat the sequential plane",
                    backend,
                    w,
                    last.io_concurrency
                );
                assert!(
                    last.store_io_s < first.store_io_s,
                    "{} W={}: parallel I/O must shrink the store-I/O critical-path share \
                     (K=1: {:.2}s, K={}: {:.2}s)",
                    backend,
                    w,
                    first.store_io_s,
                    last.io_concurrency,
                    last.store_io_s
                );
            }
            rows.extend(curve);
        }
    }

    write_json("io_concurrency", &rows);
}
