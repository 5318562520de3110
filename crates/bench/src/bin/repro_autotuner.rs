//! E19 — the calibrated cost model and `--exchange auto` planner,
//! validated against simulated ground truth.
//!
//! Three acts:
//!
//! 1. **Calibrate** — five cheap traced probe runs (sequential scatter,
//!    windowed scatter, a relay run for the provisioning delay, a direct
//!    run for the rendezvous handshake, and a wide over-capacity relay
//!    run that saturates the relay NIC and spills to disk) are fed to
//!    `faaspipe_plan::calibrate`, and the fitted parameters plus their
//!    evidence counts are archived as `results/calibration.json`.
//! 2. **Model error** — every point of the E15 (backend × W), E16
//!    (relay shards × prewarm), and E17 (I/O window) grids is simulated
//!    AND predicted; the report lists per-point relative makespan error
//!    and asserts the mean stays ≤ 15%, and beside it the planned bill
//!    against the simulated bill (both for the whole pipeline).
//! 3. **Planner regret** — for three dataset sizes the pipeline runs end
//!    to end with `exchange = auto` (worker count open too), and the
//!    planner's pick is compared with the best configuration of a
//!    simulated grid sweep: regret = pick / best − 1 must stay ≤ 10% at
//!    every scenario.
//!
//! ```text
//! cargo run --release -p faaspipe-bench --bin repro_autotuner [-- --quick] [--jobs N]
//! ```
//!
//! `--quick` shrinks the grids and record count to a CI smoke run and
//! skips the error/regret assertions.
//!
//! All three acts are sweep-engine grids ([`faaspipe_sweep`], `--jobs`
//! worker threads, default `FAASPIPE_JOBS` / core count): the calibration
//! probes, the 52-point model-error grid, and the per-scenario regret
//! sweeps each run as independent sims with results gathered in
//! submission order — `results/calibration.json` and the report are
//! byte-identical to a serial run.

use faaspipe_bench::{write_json, SWEEP_RECORDS};
use faaspipe_core::dag::WorkerChoice;
use faaspipe_core::pipeline::{run_methcomp_pipeline, PipelineConfig, PipelineMode};
use faaspipe_plan::{calibrate, Candidate, ModelParams, ProbeRun, ProbeSpec, Workload};
use faaspipe_shuffle::ExchangeKind;
use faaspipe_sweep::Sweep;
use faaspipe_trace::{Category, TraceData, Value};

struct ModelRow {
    experiment: String,
    workers: usize,
    io_concurrency: usize,
    backend: String,
    sim_s: f64,
    model_s: f64,
    rel_err: f64,
    sim_usd: f64,
    model_usd: f64,
    bill_rel_err: f64,
}

faaspipe_json::json_object! {
    ModelRow {
        req experiment,
        req workers,
        req io_concurrency,
        req backend,
        req sim_s,
        req model_s,
        req rel_err,
        req sim_usd,
        req model_usd,
        req bill_rel_err,
    }
}

struct RegretRow {
    scenario: String,
    modeled_gb: f64,
    picked_workers: usize,
    picked_io: usize,
    picked_backend: String,
    picked_s: f64,
    best_grid_backend: String,
    best_grid_s: f64,
    regret: f64,
}

faaspipe_json::json_object! {
    RegretRow {
        req scenario,
        req modeled_gb,
        req picked_workers,
        req picked_io,
        req picked_backend,
        req picked_s,
        req best_grid_backend,
        req best_grid_s,
        req regret,
    }
}

struct Report {
    mean_rel_err: f64,
    max_rel_err: f64,
    max_regret: f64,
    mean_bill_rel_err: f64,
    max_bill_rel_err: f64,
    model_rows: Vec<ModelRow>,
    regret_rows: Vec<RegretRow>,
}

faaspipe_json::json_object! {
    Report {
        req mean_rel_err,
        req max_rel_err,
        req max_regret,
        req mean_bill_rel_err,
        req max_bill_rel_err,
        req model_rows,
        req regret_rows,
    }
}

fn base_cfg(records: usize, modeled: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.mode = PipelineMode::PureServerless;
    cfg.physical_records = records;
    cfg.modeled_bytes = modeled;
    cfg
}

/// The shape the model sees for `cfg`: the sort stage plus its encode
/// tail.
fn workload(cfg: &PipelineConfig) -> Workload {
    Workload::new(
        cfg.modeled_bytes as f64,
        cfg.parallelism,
        cfg.size_scale(),
        cfg.parallelism,
    )
}

/// Runs one fixed configuration; returns end-to-end simulated seconds
/// and the run's bill in dollars.
fn simulate(
    records: usize,
    modeled: u64,
    workers: usize,
    k: usize,
    exchange: ExchangeKind,
    trace: bool,
) -> (f64, f64, TraceData) {
    let mut cfg = base_cfg(records, modeled);
    cfg.workers = WorkerChoice::Fixed(workers);
    cfg.io_concurrency = k;
    cfg.exchange = exchange;
    cfg.trace = trace;
    let outcome = run_methcomp_pipeline(&cfg).expect("pipeline run");
    assert!(
        outcome.verified,
        "{} W={} K={} must verify",
        exchange, workers, k
    );
    (
        outcome.latency.as_secs_f64(),
        outcome.cost.total().as_dollars(),
        outcome.trace,
    )
}

/// One traced probe run for the calibrator.
fn probe(
    records: usize,
    modeled: u64,
    workers: usize,
    k: usize,
    exchange: ExchangeKind,
) -> (ProbeSpec, TraceData) {
    let wl = workload(&base_cfg(records, modeled));
    let spec = ProbeSpec {
        label: format!("W{}-K{}-{}", workers, k, exchange),
        workers,
        io_concurrency: k,
        data_bytes: wl.data_bytes,
        input_chunks: wl.input_chunks,
        sample_read_bytes: wl.sample_read_bytes,
    };
    let (_, _, trace) = simulate(records, modeled, workers, k, exchange, true);
    (spec, trace)
}

/// Reads the planner's decision back out of the trace.
fn planned_pick(trace: &TraceData) -> (usize, usize, String) {
    let span = trace
        .spans
        .iter()
        .find(|s| s.category == Category::Planner)
        .expect("auto run records a planner span");
    let num = |key: &str| -> usize {
        span.attrs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                Value::U64(u) => Some(*u as usize),
                _ => None,
            })
            .expect("planner span attr")
    };
    let backend = span
        .attrs
        .iter()
        .find(|(k, _)| k == "exchange")
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        })
        .expect("planner span backend attr");
    (num("workers"), num("io_concurrency"), backend)
}

/// Runs the pipeline end to end with `exchange = auto` and every
/// dimension open; returns the simulated seconds and the pick.
fn auto_run(records: usize, modeled: u64, params: &ModelParams) -> (f64, usize, usize, String) {
    let mut cfg = base_cfg(records, modeled);
    cfg.workers = WorkerChoice::Auto;
    cfg.exchange = ExchangeKind::Auto;
    cfg.plan_params = Some(params.clone());
    cfg.trace = true;
    let outcome = run_methcomp_pipeline(&cfg).expect("auto pipeline run");
    assert!(outcome.verified, "auto run must verify");
    let (w, k, backend) = planned_pick(&outcome.trace);
    (outcome.latency.as_secs_f64(), w, k, backend)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = faaspipe_sweep::jobs_from_args_or_exit(&args);
    let records = if quick { 8_000 } else { SWEEP_RECORDS };
    const GB_3_5: u64 = 3_500_000_000;

    // ---- Act 1: calibrate from five cheap traced probes. ----
    // The last two exist to give the relay/direct parameters real
    // evidence: the direct run exposes the rendezvous handshake, and
    // the wide relay run both saturates the relay NIC (32 function
    // NICs > one relay NIC) and overflows its 24 GiB memory (34 GB
    // modeled), so NIC, memory capacity, and disk spill bandwidth all
    // leave the config defaults behind.
    //
    // The probes are independent traced sims; the sweep engine returns
    // them in submission order, so the calibrator sees the same probe
    // sequence (and fits the same parameters, byte-for-byte) at every
    // job count.
    const GB_34: u64 = 34_000_000_000;
    let probe_grid: [(u64, usize, usize, ExchangeKind); 5] = [
        (GB_3_5, 4, 1, ExchangeKind::Scatter),
        (GB_3_5, 4, 4, ExchangeKind::Scatter),
        (GB_3_5, 4, 1, ExchangeKind::VmRelay),
        (GB_3_5, 4, 1, ExchangeKind::Direct),
        (GB_34, 32, 4, ExchangeKind::VmRelay),
    ];
    let mut sweep: Sweep<(ProbeSpec, TraceData)> = Sweep::new();
    for (modeled, w, k, exchange) in probe_grid {
        sweep.push(format!("probe W={} K={} {}", w, k, exchange), move || {
            probe(records, modeled, w, k, exchange)
        });
    }
    let probes_raw: Vec<(ProbeSpec, TraceData)> = sweep.run_expect(jobs);
    let defaults = {
        let cfg = base_cfg(records, GB_3_5);
        ModelParams::from_configs(
            &cfg.store,
            &cfg.faas,
            &faaspipe_exchange::RelayConfig::default(),
            &faaspipe_exchange::DirectConfig::default(),
            &cfg.work,
            &cfg.pricing,
        )
    };
    let probes: Vec<ProbeRun<'_>> = probes_raw
        .iter()
        .map(|(spec, trace)| ProbeRun { spec, trace })
        .collect();
    let calibration = calibrate(&probes, &defaults);
    println!("calibrated from {} probes:", calibration.evidence.probes);
    println!(
        "  cold start {:.3}s, orchestration {:.2}s, store latency {:.1}ms @ {:.1} MiB/s",
        calibration.params.cold_start_s,
        calibration.params.orchestration_s,
        calibration.params.store_latency_s * 1e3,
        calibration.params.store_conn_bps / (1024.0 * 1024.0)
    );
    println!(
        "  sort {:.0} / partition {:.0} / merge {:.0} / parse {:.0} / encode {:.0} MiB/s (wire), \
         relay provision {:.1}s, encode ratio {:.3}",
        calibration.params.sort_bps / (1024.0 * 1024.0),
        calibration.params.partition_bps / (1024.0 * 1024.0),
        calibration.params.merge_bps / (1024.0 * 1024.0),
        calibration.params.parse_bps / (1024.0 * 1024.0),
        calibration.params.encode_bps / (1024.0 * 1024.0),
        calibration.params.relay_provision_s,
        calibration.params.encode_output_ratio
    );
    println!(
        "  relay NIC {:.0} MiB/s / mem {:.1} GiB / disk {:.0} MiB/s ({} flows, {} spills), \
         direct handshake {:.1}ms ({} streams)",
        calibration.params.relay_nic_bps / (1024.0 * 1024.0),
        calibration.params.relay_mem_bytes / (1024.0 * 1024.0 * 1024.0),
        calibration.params.relay_disk_bps / (1024.0 * 1024.0),
        calibration.evidence.relay_flows,
        calibration.evidence.relay_spills,
        calibration.params.direct_handshake_s * 1e3,
        calibration.evidence.direct_handshakes
    );
    write_json("calibration", &calibration);
    let params = calibration.params.clone();

    // ---- Act 2: model error across the E15/E16/E17 grids. ----
    let mut grid: Vec<(&str, usize, usize, ExchangeKind)> = Vec::new();
    if quick {
        for w in [4, 8] {
            grid.push(("e15", w, 4, ExchangeKind::Scatter));
            grid.push(("e15", w, 4, ExchangeKind::Direct));
        }
        grid.push((
            "e16",
            8,
            4,
            ExchangeKind::ShardedRelay {
                shards: 2,
                prewarm: true,
            },
        ));
        grid.push(("e17", 8, 1, ExchangeKind::Scatter));
    } else {
        for w in [4, 8, 16, 32, 64] {
            for backend in ExchangeKind::ALL {
                grid.push(("e15", w, 4, backend));
            }
        }
        for w in [8, 32] {
            for shards in [2, 4, 8] {
                for prewarm in [false, true] {
                    grid.push(("e16", w, 4, ExchangeKind::ShardedRelay { shards, prewarm }));
                }
            }
        }
        for k in [1, 2, 4, 8, 16] {
            for w in [8, 32] {
                grid.push(("e17", w, k, ExchangeKind::Scatter));
                grid.push(("e17", w, k, ExchangeKind::Direct));
            }
        }
    }
    let wl = workload(&base_cfg(records, GB_3_5));
    let mut model_rows: Vec<ModelRow> = Vec::new();
    println!(
        "\nmodel vs simulation (3.5 GB, {} grid points):",
        grid.len()
    );
    println!(
        "{:<5} {:>3} {:>3}  {:<22} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8}",
        "exp", "W", "K", "backend", "sim", "model", "err", "sim $", "model $", "err"
    );
    // Simulated ground truth for every grid point, via the sweep engine;
    // model estimates are closed-form and stay on this thread.
    let mut sweep: Sweep<(f64, f64)> = Sweep::new();
    for &(exp, w, k, backend) in &grid {
        sweep.push(format!("{} W={} K={} {}", exp, w, k, backend), move || {
            let (sim_s, sim_usd, _) = simulate(records, GB_3_5, w, k, backend, false);
            (sim_s, sim_usd)
        });
    }
    let sims: Vec<(f64, f64)> = sweep.run_expect(jobs);
    for (&(exp, w, k, backend), &(sim_s, sim_usd)) in grid.iter().zip(&sims) {
        let est = params.estimate(
            &wl,
            &Candidate {
                workers: w,
                io_concurrency: k,
                exchange: backend,
            },
        );
        let rel_err = (est.makespan_s - sim_s).abs() / sim_s;
        let bill_rel_err = (est.cost_dollars - sim_usd).abs() / sim_usd;
        println!(
            "{:<5} {:>3} {:>3}  {:<22} {:>8.2}s {:>8.2}s {:>7.1}% {:>9.5} {:>9.5} {:>7.1}%",
            exp,
            w,
            k,
            backend.to_string(),
            sim_s,
            est.makespan_s,
            rel_err * 100.0,
            sim_usd,
            est.cost_dollars,
            bill_rel_err * 100.0
        );
        model_rows.push(ModelRow {
            experiment: exp.to_string(),
            workers: w,
            io_concurrency: k,
            backend: backend.to_string(),
            sim_s,
            model_s: est.makespan_s,
            rel_err,
            sim_usd,
            model_usd: est.cost_dollars,
            bill_rel_err,
        });
    }
    let mean_rel_err = model_rows.iter().map(|r| r.rel_err).sum::<f64>() / model_rows.len() as f64;
    let max_rel_err = model_rows.iter().map(|r| r.rel_err).fold(0.0, f64::max);
    println!(
        "mean relative makespan error {:.1}%, max {:.1}%",
        mean_rel_err * 100.0,
        max_rel_err * 100.0
    );
    let mean_bill_rel_err =
        model_rows.iter().map(|r| r.bill_rel_err).sum::<f64>() / model_rows.len() as f64;
    let max_bill_rel_err = model_rows
        .iter()
        .map(|r| r.bill_rel_err)
        .fold(0.0, f64::max);
    println!(
        "mean relative bill error {:.1}%, max {:.1}%",
        mean_bill_rel_err * 100.0,
        max_bill_rel_err * 100.0
    );

    // ---- Act 3: planner regret at three dataset sizes. ----
    let scenarios: &[(&str, u64)] = if quick {
        &[("3.5GB", GB_3_5)]
    } else {
        &[
            ("1.75GB", 1_750_000_000),
            ("3.5GB", GB_3_5),
            ("7GB", 7_000_000_000),
        ]
    };
    // The reference grid per scenario: a simulated sweep over the
    // strongest backends and the W/K ranges the experiments cover.
    let mut reference: Vec<(usize, usize, ExchangeKind)> = Vec::new();
    let (ws, ks): (&[usize], &[usize]) = if quick {
        (&[4, 8], &[4])
    } else {
        (&[4, 8, 16, 32, 64], &[4, 16])
    };
    for &w in ws {
        for &k in ks {
            reference.push((w, k, ExchangeKind::Scatter));
            reference.push((w, k, ExchangeKind::Coalesced));
            reference.push((w, k, ExchangeKind::Direct));
            if !quick {
                reference.push((
                    w,
                    k,
                    ExchangeKind::ShardedRelay {
                        shards: 4,
                        prewarm: true,
                    },
                ));
            }
        }
    }
    // All scenarios' reference sims and the auto runs go through the
    // engine together; results unzip back per scenario by position.
    let mut sweep: Sweep<f64> = Sweep::new();
    for &(name, modeled) in scenarios {
        for &(w, k, backend) in &reference {
            sweep.push(format!("{} W={} K={} {}", name, w, k, backend), move || {
                simulate(records, modeled, w, k, backend, false).0
            });
        }
    }
    let reference_sims: Vec<f64> = sweep.run_expect(jobs);
    let mut auto_sweep: Sweep<(f64, usize, usize, String)> = Sweep::new();
    for &(name, modeled) in scenarios {
        let params = params.clone();
        auto_sweep.push(format!("{} auto", name), move || {
            auto_run(records, modeled, &params)
        });
    }
    let auto_runs = auto_sweep.run_expect(jobs);

    let mut regret_rows: Vec<RegretRow> = Vec::new();
    for (si, &(name, modeled)) in scenarios.iter().enumerate() {
        let sims = &reference_sims[si * reference.len()..(si + 1) * reference.len()];
        let mut best_s = f64::INFINITY;
        let mut best_desc = String::new();
        for (&(w, k, backend), &sim_s) in reference.iter().zip(sims) {
            if sim_s < best_s {
                best_s = sim_s;
                best_desc = format!("W={} K={} {}", w, k, backend);
            }
        }
        let (picked_s, w, k, backend) = auto_runs[si].clone();
        let regret = picked_s / best_s - 1.0;
        println!(
            "\n{}: auto picked W={} K={} {} -> {:.2}s; grid best {} -> {:.2}s; regret {:+.1}%",
            name,
            w,
            k,
            backend,
            picked_s,
            best_desc,
            best_s,
            regret * 100.0
        );
        regret_rows.push(RegretRow {
            scenario: name.to_string(),
            modeled_gb: modeled as f64 / 1e9,
            picked_workers: w,
            picked_io: k,
            picked_backend: backend,
            picked_s,
            best_grid_backend: best_desc,
            best_grid_s: best_s,
            regret,
        });
    }
    let max_regret = regret_rows
        .iter()
        .map(|r| r.regret)
        .fold(f64::MIN, f64::max);

    if !quick {
        assert!(
            mean_rel_err <= 0.15,
            "mean relative model error {:.1}% exceeds 15%",
            mean_rel_err * 100.0
        );
        // Pin the ROADMAP-item-3 regression: the serialized rendezvous
        // at K <= 2 direct used to be under-modeled by ~20-25%; the
        // convoy term must keep these cells individually within 15%.
        for r in model_rows
            .iter()
            .filter(|r| r.backend == "direct" && r.io_concurrency <= 2)
        {
            assert!(
                r.rel_err <= 0.15,
                "direct W={} K={} model error {:.1}% exceeds 15%",
                r.workers,
                r.io_concurrency,
                r.rel_err * 100.0
            );
        }
        assert!(
            max_regret <= 0.10,
            "planner regret {:.1}% exceeds 10%",
            max_regret * 100.0
        );
    }

    write_json(
        "autotuner",
        &Report {
            mean_rel_err,
            max_rel_err,
            max_regret,
            mean_bill_rel_err,
            max_bill_rel_err,
            model_rows,
            regret_rows,
        },
    );
}
