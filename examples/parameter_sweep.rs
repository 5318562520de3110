//! Parallel parameter sweeps with `faaspipe::sweep`.
//!
//! A `Sim` is single-threaded by design (its internals are `Rc`-linked
//! and never cross a thread), but *independent* simulations share
//! nothing — each cell below builds and runs its own pipeline entirely
//! on whichever worker thread picks it up, and only the plain-data row
//! crosses back. Because virtual time is a pure function of the config
//! and seed, the rows are identical at any `--jobs` count; the engine
//! additionally hands them back in submission order, so the printed
//! table never depends on host scheduling.
//!
//! ```text
//! cargo run --release --example parameter_sweep [-- --jobs N]
//! ```

use faaspipe::core::dag::WorkerChoice;
use faaspipe::core::pipeline::{run_methcomp_pipeline, PipelineConfig, PipelineMode};
use faaspipe::exchange::ExchangeKind;
use faaspipe::sweep::Sweep;

/// Everything a cell sends back: plain data, no simulator guts.
struct Row {
    workers: usize,
    backend: ExchangeKind,
    latency_s: f64,
    cost_dollars: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = faaspipe::sweep::jobs_from_args_or_exit(&args);

    let mut sweep: Sweep<Row> = Sweep::new();
    for workers in [4usize, 8, 16] {
        for backend in [ExchangeKind::Scatter, ExchangeKind::Coalesced] {
            sweep.push(format!("W={} {}", workers, backend), move || {
                let mut cfg = PipelineConfig::paper_table1();
                cfg.mode = PipelineMode::PureServerless;
                cfg.physical_records = 8_000;
                cfg.workers = WorkerChoice::Fixed(workers);
                cfg.exchange = backend;
                let outcome = run_methcomp_pipeline(&cfg).expect("pipeline run");
                assert!(outcome.verified);
                Row {
                    workers,
                    backend,
                    latency_s: outcome.latency.as_secs_f64(),
                    cost_dollars: outcome.cost.total().as_dollars(),
                }
            });
        }
    }

    // `run` (instead of `run_expect`) keeps per-cell panics as values:
    // a poisoned cell reports its grid coordinates while every sibling
    // still finishes.
    let outcome = sweep.run(jobs);
    // Host wall time goes to stderr: stdout is the grid alone, so two
    // runs print the same bytes.
    eprintln!(
        "{} cells on {} thread(s) in {:.0}ms",
        outcome.stats.cells,
        outcome.stats.jobs,
        outcome.stats.wall.as_secs_f64() * 1e3
    );
    println!(
        "{:>3}  {:<10}  {:>10}  {:>9}",
        "W", "backend", "latency", "cost"
    );
    for cell in &outcome.results {
        match cell {
            Ok(row) => println!(
                "{:>3}  {:<10}  {:>9.2}s  ${:>8.4}",
                row.workers,
                row.backend.to_string(),
                row.latency_s,
                row.cost_dollars
            ),
            Err(failure) => println!("cell {} failed: {}", failure.index, failure),
        }
    }
}
