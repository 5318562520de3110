//! End-to-end properties of the `--exchange auto` planner: calibration
//! is byte-identically reproducible, auto runs are deterministic per
//! seed, the JSON spec path (`"exchange": "auto"`) drives the planner,
//! and auto never degrades the pipeline's correctness guarantees.

use faaspipe::core::dag::WorkerChoice;
use faaspipe::core::pipeline::{
    run_methcomp_pipeline, PipelineConfig, PipelineMode, PipelineOutcome,
};
use faaspipe::core::spec::PipelineSpec;
use faaspipe::des::Money;
use faaspipe::exchange::{DirectConfig, RelayConfig};
use faaspipe::plan::{
    calibrate, Calibration, Candidate, Estimate, ModelParams, ProbeRun, ProbeSpec, Workload,
};
use faaspipe::shuffle::ExchangeKind;
use faaspipe::trace::{Category, TraceData, Value};

const MODELED: u64 = 3_500_000_000;

fn quick_cfg() -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.mode = PipelineMode::PureServerless;
    cfg.physical_records = 8_000;
    cfg.modeled_bytes = MODELED;
    cfg
}

/// One traced probe run, as `repro_autotuner` stages them.
fn probe(workers: usize, k: usize, exchange: ExchangeKind) -> (ProbeSpec, TraceData) {
    let mut cfg = quick_cfg();
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
}

fn calibrate_once() -> Calibration {
    let probes_raw = [
        probe(4, 1, ExchangeKind::Scatter),
        probe(4, 1, ExchangeKind::VmRelay),
    ];
    let probes: Vec<ProbeRun<'_>> = probes_raw
        .iter()
        .map(|(spec, trace)| ProbeRun { spec, trace })
        .collect();
    calibrate(&probes, &ModelParams::default())
}

#[test]
fn calibration_is_byte_identical_across_runs() {
    let a = faaspipe_json::to_string_pretty(&calibrate_once());
    let b = faaspipe_json::to_string_pretty(&calibrate_once());
    assert_eq!(a, b, "same probes must serialize byte-identically");
    assert!(a.contains("store_latency_s"));
}

#[test]
fn calibration_fits_simulator_constants() {
    let cal = calibrate_once();
    assert!(cal.evidence.store_requests > 0);
    assert!(cal.evidence.cold_starts > 0);
    // The simulator charges 28 ms first-byte latency and an 80 MiB/s
    // function NIC; the fit must land on that line, not the defaults.
    assert!((cal.params.store_latency_s - 0.028).abs() < 0.005);
    let mib = 1024.0 * 1024.0;
    assert!((cal.params.store_conn_bps / mib - 80.0).abs() < 2.0);
    assert!((cal.params.orchestration_s - 8.0).abs() < 0.1);
}

fn auto_outcome() -> (f64, String, TraceData) {
    let mut cfg = quick_cfg();
    cfg.workers = WorkerChoice::Auto;
    cfg.exchange = ExchangeKind::Auto;
    cfg.trace = true;
    let outcome = run_methcomp_pipeline(&cfg).expect("auto run");
    assert!(outcome.verified, "auto-planned run must verify");
    (
        outcome.latency.as_secs_f64(),
        outcome.tracker_log.clone(),
        outcome.trace,
    )
}

#[test]
fn auto_runs_are_deterministic_and_record_their_pick() {
    let (lat_a, log_a, trace) = auto_outcome();
    let (lat_b, log_b, _) = auto_outcome();
    assert_eq!(lat_a, lat_b, "auto planning must be deterministic");
    assert_eq!(log_a, log_b);
    assert!(
        log_a.contains("planner picked W="),
        "tracker must log the pick: {}",
        log_a
    );

    let span = trace
        .spans
        .iter()
        .find(|s| s.category == Category::Planner)
        .expect("auto run records a planner span");
    let attr = |key: &str| span.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let workers = match attr("workers") {
        Some(Value::U64(w)) => *w as usize,
        other => panic!("workers attr: {:?}", other),
    };
    assert!(workers >= 2, "planner must pick a real fleet width");
    match attr("exchange") {
        Some(Value::Str(s)) => {
            let kind: ExchangeKind = s.parse().expect("recorded backend parses back");
            assert_ne!(kind, ExchangeKind::Auto, "the pick is always concrete");
        }
        other => panic!("exchange attr: {:?}", other),
    }
    assert!(attr("predicted_makespan_s").is_some());
    assert!(attr("evaluated").is_some());
}

#[test]
fn explicit_backends_are_untouched_by_the_planner_path() {
    // A fixed configuration must not consult the planner at all: no
    // planner span, no tracker note, same latency as before the planner
    // existed (the golden tests pin the exact value; here we pin the
    // absence of planning).
    let mut cfg = quick_cfg();
    cfg.workers = WorkerChoice::Fixed(8);
    cfg.exchange = ExchangeKind::Scatter;
    cfg.trace = true;
    let outcome = run_methcomp_pipeline(&cfg).expect("fixed run");
    assert!(outcome.verified);
    assert!(
        !outcome
            .trace
            .spans
            .iter()
            .any(|s| s.category == Category::Planner),
        "explicit backends must not invoke the planner"
    );
    assert!(!outcome.tracker_log.contains("planner picked"));
}

#[test]
fn json_spec_auto_drives_the_planner() {
    const SPEC: &str = r#"{
        "name": "methcomp-auto",
        "bucket": "data",
        "stages": [
            { "name": "sort", "kind": "shuffle_sort",
              "exchange": "auto", "input": "in/", "output": "sorted/" },
            { "name": "encode", "kind": "encode", "codec": "methcomp",
              "workers": 4, "input": "sorted/", "output": "enc/",
              "deps": ["sort"] }
        ]
    }"#;
    let dag = PipelineSpec::from_json(SPEC)
        .expect("parse")
        .to_dag()
        .expect("dag");
    let sort = dag
        .stages()
        .iter()
        .find(|s| s.name == "sort")
        .expect("sort stage");
    match &sort.kind {
        faaspipe::core::dag::StageKind::ShuffleSort {
            workers, exchange, ..
        } => {
            assert_eq!(*exchange, ExchangeKind::Auto);
            assert_eq!(*workers, WorkerChoice::Auto);
        }
        other => panic!("unexpected stage kind: {:?}", other),
    }
}

#[test]
fn spec_rejects_unknown_exchange_with_the_valid_forms() {
    const SPEC: &str = r#"{
        "name": "bad",
        "bucket": "data",
        "stages": [
            { "name": "sort", "kind": "shuffle_sort",
              "exchange": "carrier-pigeon", "input": "in/", "output": "s/" }
        ]
    }"#;
    let err = PipelineSpec::from_json(SPEC)
        .expect("parse")
        .to_dag()
        .expect_err("unknown backend must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("carrier-pigeon"),
        "names the offender: {}",
        msg
    );
    assert!(msg.contains("auto"), "lists the valid forms: {}", msg);
}

/// The four backends the bill pins cover: both object-store layouts,
/// the cold relay VM and direct streaming.
const BILLED_BACKENDS: [ExchangeKind; 4] = [
    ExchangeKind::Scatter,
    ExchangeKind::Coalesced,
    ExchangeKind::VmRelay,
    ExchangeKind::Direct,
];

/// A Figure-1 run at W workers and window K on `exchange`, with `cfg`'s
/// functions; returns the outcome and what the model predicts for it,
/// priced with the book the run is billed with.
fn planned_and_billed(
    mut cfg: PipelineConfig,
    workers: usize,
    k: usize,
    exchange: ExchangeKind,
) -> (PipelineOutcome, Estimate, Candidate, Workload) {
    cfg.workers = WorkerChoice::Fixed(workers);
    cfg.io_concurrency = k;
    cfg.exchange = exchange;
    let outcome = run_methcomp_pipeline(&cfg).expect("pipeline run");
    assert!(outcome.verified);
    let params = ModelParams::from_configs(
        &cfg.store,
        &cfg.faas,
        &RelayConfig::default(),
        &DirectConfig::default(),
        &cfg.work,
        &cfg.pricing,
    );
    let wl = Workload::new(
        cfg.modeled_bytes as f64,
        cfg.parallelism,
        cfg.size_scale(),
        cfg.parallelism,
    );
    let cand = Candidate {
        workers,
        io_concurrency: k,
        exchange,
    };
    (outcome, params.estimate(&wl, &cand), cand, wl)
}

/// The planned bill prices functions at their memory size and relay VMs
/// at the book's rate, as the run's bill does, so its error does not
/// grow with the memory ratio: every 1 GB and 4 GB error lies within the
/// span of the 2 GB errors, widened by `MARGIN`. (A model that bills a
/// fixed 2 GB plans +52 to +103 % over the bill at 1 GB and −23 to
/// −50 % under it at 4 GB.) The bill itself equals its itemized parts.
#[test]
fn planned_bill_tracks_the_billed_bill_at_every_function_size() {
    const MARGIN: f64 = 0.05;
    let mut errors = Vec::new();
    for memory_mb in [1024, 2048, 4096] {
        for exchange in BILLED_BACKENDS {
            let mut cfg = quick_cfg();
            cfg.faas = cfg.faas.with_memory_mb(memory_mb);
            let (outcome, est, _, _) = planned_and_billed(cfg, 8, 4, exchange);
            let bill = &outcome.cost;
            let parts = bill.functions + bill.requests + bill.vm;
            let rows = bill
                .by_stage
                .values()
                .fold(Money::ZERO, |sum, row| sum + row.total());
            assert_eq!(rows, parts, "{memory_mb} MB {exchange}: stage rows");
            assert_eq!(bill.total(), parts, "{memory_mb} MB {exchange}: total");
            let err = est.cost_dollars / bill.total().as_dollars() - 1.0;
            errors.push((memory_mb, exchange, err));
        }
    }
    let at_2gb = errors.iter().filter(|(mb, _, _)| *mb == 2048);
    let lo = at_2gb.clone().map(|e| e.2).fold(f64::INFINITY, f64::min) - MARGIN;
    let hi = at_2gb.map(|e| e.2).fold(f64::NEG_INFINITY, f64::max) + MARGIN;
    for (memory_mb, exchange, err) in errors {
        assert!(
            (lo..=hi).contains(&err),
            "{memory_mb} MB {exchange}: planned bill {:+.1}% off, outside [{:+.1}%, {:+.1}%]",
            err * 100.0,
            lo * 100.0,
            hi * 100.0
        );
    }
}

/// The model bills the requests the store counts, on every backend at
/// K ∈ {1, 4}, but for one: the encode stage's driver LIST of the
/// sorted runs (`encode/driver`, one class-A request per run).
#[test]
fn planned_request_counts_match_the_store() {
    for k in [1, 4] {
        for exchange in BILLED_BACKENDS {
            let (outcome, _, cand, wl) = planned_and_billed(quick_cfg(), 8, k, exchange);
            let (class_a, class_b) = cand.store_requests(&wl);
            let store = outcome.store_metrics.total();
            let left_out = outcome
                .store_metrics
                .iter()
                .find(|(tag, _)| *tag == "encode/driver")
                .map(|(_, m)| (m.class_a, m.class_b));
            assert_eq!(left_out, Some((1, 0)), "K={k} {exchange}: encode LIST");
            assert_eq!(
                (class_a, class_b),
                ((store.class_a - 1) as f64, store.class_b as f64),
                "K={k} {exchange}: model vs store requests (A, B)"
            );
        }
    }
}
