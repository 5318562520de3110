//! The sweep engine's headline guarantee, checked end to end: running
//! independent simulations on worker threads changes *nothing* about
//! the results — JSON artifacts and per-run trace exports are
//! byte-identical at every job count, a panicking cell reports its grid
//! coordinates while every sibling still completes, and the
//! calibration pipeline (probe sims → order-stable fit) serializes to
//! the same bytes serial and parallel.
//!
//! Why this holds: a `Sim` is a pure function of its config and seed
//! (virtual time never reads the host clock), each cell builds and
//! runs its `Sim` entirely on one worker thread (shared-nothing), and
//! the engine returns rows in submission order regardless of which
//! cell finished first.

use faaspipe::codec::checksum::Crc32;
use faaspipe::core::dag::WorkerChoice;
use faaspipe::core::pipeline::{run_methcomp_pipeline, PipelineConfig, PipelineMode};
use faaspipe::plan::{calibrate, Calibration, ModelParams, ProbeRun, ProbeSpec, Workload};
use faaspipe::shuffle::ExchangeKind;
use faaspipe::sweep::Sweep;
use faaspipe::trace::{chrome_trace_json, TraceData};

const RECORDS: usize = 8_000;

/// The shape the repro binaries serialize: one JSON row per grid cell.
struct Row {
    backend: String,
    workers: usize,
    latency_s: f64,
    cost_dollars: f64,
    events: u64,
}

faaspipe_json::json_object! {
    Row { req backend, req workers, req latency_s, req cost_dollars, req events }
}

fn traced_cell(workers: usize, backend: ExchangeKind) -> (Row, TraceData) {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.mode = PipelineMode::PureServerless;
    cfg.physical_records = RECORDS;
    cfg.workers = WorkerChoice::Fixed(workers);
    cfg.exchange = backend;
    cfg.trace = true;
    let outcome = run_methcomp_pipeline(&cfg).expect("pipeline run");
    assert!(outcome.verified, "{} W={} must verify", backend, workers);
    (
        Row {
            backend: backend.to_string(),
            workers,
            latency_s: outcome.latency.as_secs_f64(),
            cost_dollars: outcome.cost.total().as_dollars(),
            events: outcome.sim.events,
        },
        outcome.trace,
    )
}

fn trace_crc(trace: &TraceData) -> u32 {
    let mut crc = Crc32::new();
    crc.update(chrome_trace_json(trace).as_bytes());
    crc.finish()
}

/// Runs the E15-shaped grid at one job count; returns the serialized
/// JSON artifact and the per-run trace CRCs, in submission order.
fn grid_digest(jobs: usize) -> (String, Vec<u32>) {
    let mut sweep: Sweep<(Row, TraceData)> = Sweep::new();
    for backend in [ExchangeKind::Scatter, ExchangeKind::Coalesced] {
        for workers in [4usize, 8] {
            sweep.push(format!("{} W={}", backend, workers), move || {
                traced_cell(workers, backend)
            });
        }
    }
    let cells = sweep.run_expect(jobs);
    let crcs: Vec<u32> = cells.iter().map(|(_, trace)| trace_crc(trace)).collect();
    let rows: Vec<Row> = cells.into_iter().map(|(row, _)| row).collect();
    (faaspipe_json::to_string_pretty(&rows), crcs)
}

#[test]
fn grid_json_and_trace_crcs_identical_across_job_counts() {
    let (serial_json, serial_crcs) = grid_digest(1);
    for jobs in [2usize, 8] {
        let (json, crcs) = grid_digest(jobs);
        assert_eq!(
            serial_json, json,
            "JSON artifact must be byte-identical at --jobs {}",
            jobs
        );
        assert_eq!(
            serial_crcs, crcs,
            "per-run trace exports must be byte-identical at --jobs {}",
            jobs
        );
    }
}

/// The calibration path: probe sims through the engine, then the
/// order-stable fit. Serial and 8-way parallel must serialize the same
/// `Calibration`, byte for byte — this is E19's `calibration.json`.
fn calibrate_at(jobs: usize) -> Calibration {
    const MODELED: u64 = 3_500_000_000;
    let probe_grid = [
        (4usize, 1usize, ExchangeKind::Scatter),
        (4, 4, ExchangeKind::Scatter),
        (4, 1, ExchangeKind::VmRelay),
    ];
    let mut sweep: Sweep<(ProbeSpec, TraceData)> = Sweep::new();
    for (workers, k, exchange) in probe_grid {
        sweep.push(
            format!("probe W={} K={} {}", workers, k, exchange),
            move || {
                let mut cfg = PipelineConfig::paper_table1();
                cfg.mode = PipelineMode::PureServerless;
                cfg.physical_records = RECORDS;
                cfg.modeled_bytes = MODELED;
                cfg.workers = WorkerChoice::Fixed(workers);
                cfg.io_concurrency = k;
                cfg.exchange = exchange;
                cfg.trace = true;
                let wl = Workload::new(
                    cfg.modeled_bytes as f64,
                    cfg.parallelism,
                    cfg.size_scale(),
                    cfg.parallelism,
                );
                let spec = ProbeSpec {
                    label: format!("W{}-K{}-{}", workers, k, exchange),
                    workers,
                    io_concurrency: k,
                    data_bytes: wl.data_bytes,
                    input_chunks: wl.input_chunks,
                    sample_read_bytes: wl.sample_read_bytes,
                };
                let outcome = run_methcomp_pipeline(&cfg).expect("probe run");
                assert!(outcome.verified);
                (spec, outcome.trace)
            },
        );
    }
    let probes_raw = sweep.run_expect(jobs);
    let probes: Vec<ProbeRun<'_>> = probes_raw
        .iter()
        .map(|(spec, trace)| ProbeRun { spec, trace })
        .collect();
    calibrate(&probes, &ModelParams::default())
}

#[test]
fn calibration_json_identical_serial_and_parallel() {
    let serial = faaspipe_json::to_string_pretty(&calibrate_at(1));
    let parallel = faaspipe_json::to_string_pretty(&calibrate_at(8));
    assert_eq!(
        serial, parallel,
        "calibration.json must not depend on the job count"
    );
    assert!(serial.contains("store_latency_s"));
}

#[test]
fn panicking_cell_reports_coordinates_and_siblings_complete() {
    // Serial reference for the healthy cells.
    let (reference, _) = traced_cell(4, ExchangeKind::Scatter);

    let mut sweep: Sweep<(Row, TraceData)> = Sweep::new();
    sweep.push("scatter W=4", || traced_cell(4, ExchangeKind::Scatter));
    sweep.push("poisoned W=8 k=2", || panic!("poisoned cell"));
    sweep.push("coalesced W=4", || traced_cell(4, ExchangeKind::Coalesced));
    let outcome = sweep.run(8);

    assert_eq!(outcome.results.len(), 3);
    let first = outcome.results[0].as_ref().expect("sibling before");
    assert_eq!(first.0.latency_s, reference.latency_s);
    assert_eq!(first.0.events, reference.events);
    let failure = match &outcome.results[1] {
        Ok(_) => panic!("poisoned cell must fail"),
        Err(failure) => failure,
    };
    assert_eq!(failure.index, 1, "failure carries the cell's position");
    assert_eq!(failure.label, "poisoned W=8 k=2", "failure names the cell");
    assert!(
        failure.panic.contains("poisoned cell"),
        "failure carries the panic payload, got: {}",
        failure.panic
    );
    let last = outcome.results[2].as_ref().expect("sibling after");
    assert_eq!(last.0.backend, "coalesced");
    assert!(last.0.latency_s > 0.0);
}
