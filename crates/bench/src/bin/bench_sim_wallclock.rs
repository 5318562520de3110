//! BENCH_sim / BENCH_host — wall-clock cost of the simulator itself.
//!
//! Two host-time (not virtual-time) measurements of the simulator:
//!
//! * **BENCH_sim** — a small fixed batch of *traced* pipeline runs shaped
//!   like the E15 `--quick` smoke: both object-store exchange layouts at
//!   two worker counts. Catches tracing-path regressions.
//! * **BENCH_host** — the scaling trajectory the stackless scheduler is
//!   sized for: untraced coalesced runs at W ∈ {64, 256, 1024, 4096,
//!   8192, 16384}. Each row records the wall clock plus the simulator's
//!   own gauges (events dispatched, peak live processes),
//!   the host's CPU/context-switch counters, the per-event unit cost
//!   (µs of wall per dispatched event — flat means the scheduler scales
//!   with what changed), and a per-row peak-RSS gauge (`VmHWM`, reset
//!   before each run), so a slowdown can be split into "more work" vs
//!   "same work, slower" and a memory blow-up is visible per width.
//!
//! `--check` additionally applies warn-only scheduler-health ceilings:
//! a simulation runs on one thread and context-switches only when the
//! host preempts it, so a process thread count past that one thread (plus
//! slack) or switch rates far above the event-loop baseline flag a
//! scheduler regression even when the wall clock still passes.
//!
//! Both files also carry one **cluster** row (`scenario = "cluster"`): a
//! fixed multi-tenant [`faaspipe_cluster`] service run whose concurrent
//! per-run process trees exercise the scheduler's many-live-process
//! path that single pipeline runs cannot reach.
//!
//! Both batches run through the [`faaspipe_sweep`] engine. Unlike the
//! repro binaries, `--jobs` here defaults to **1** regardless of core
//! count or `FAASPIPE_JOBS` absence: the per-row CPU / context-switch /
//! peak-RSS gauges read process-wide `/proc` counters, which are only
//! attributable to a row when rows run one at a time. Passing
//! `--jobs N` (or setting `FAASPIPE_JOBS`) opts into concurrent cells:
//! per-row host counters are then recorded as 0 (simulator gauges and
//! wall clock stay per-row), and the process-wide deltas move to the
//! sweep-aggregate row. `BENCH_host.json` always ends with that
//! aggregate row (`scenario = "sweep"`, `workers = 0`): sweep wall
//! clock, cells/s, aggregate simulated events/s, and the job count —
//! the engine's own throughput trend, `--check`ed like any other row.
//!
//! Wall-clock numbers are host-dependent by construction, but what the
//! rows simulated is not: `--check` exits 2 when a fresh host row's
//! `events`, `sim_latency_s` or `peak_live_processes` differ from the
//! checked-in baseline row, which pins the W = 4096–16384 and cluster
//! rows that no golden test covers. Exit 1 (a wall-clock regression) is
//! warn-only in CI, exit 2 fails the step, and the artifact is always
//! archived.
//!
//! ```text
//! cargo run --release -p faaspipe-bench --bin bench_sim_wallclock
//! cargo run --release -p faaspipe-bench --bin bench_sim_wallclock -- \
//!     --check [baseline.json]   # exit 2 if simulated results drifted,
//!                               # else 1 if wall clock regressed >1.5x
//! ```

use std::time::Instant;

use faaspipe_bench::{results_dir, write_json};
use faaspipe_cluster::TraceMode;
use faaspipe_cluster::{run_cluster, ArrivalProcess, ClusterConfig, ClusterReport, TenantSpec};
use faaspipe_core::dag::WorkerChoice;
use faaspipe_core::pipeline::{run_methcomp_pipeline, PipelineConfig, PipelineMode};
use faaspipe_des::SimDuration;
use faaspipe_shuffle::ExchangeKind;
use faaspipe_sweep::Sweep;

struct SimRow {
    backend: String,
    workers: usize,
    records: usize,
    wall_ms: f64,
    sim_latency_s: f64,
    spans: usize,
    events: u64,
    peak_live_processes: usize,
}

faaspipe_json::json_object! {
    SimRow {
        req backend,
        req workers,
        req records,
        req wall_ms,
        req sim_latency_s,
        req spans,
        req events,
        req peak_live_processes,
    }
}

struct HostRow {
    /// Empty for the single-pipeline trajectory, `"cluster"` for the
    /// multi-tenant service row. `opt` so baselines captured before the
    /// cluster row existed still parse.
    scenario: String,
    workers: usize,
    records: usize,
    wall_ms: f64,
    sim_latency_s: f64,
    events: u64,
    peak_live_processes: usize,
    user_cpu_s: f64,
    sys_cpu_s: f64,
    ctx_switches: u64,
    /// Host microseconds of wall clock per dispatched event — the
    /// scheduler's unit cost. Flat across the trajectory means per-event
    /// work is O(what changed); growth with W means a superlinear term
    /// crept back in. `opt` for pre-PR-9 baselines.
    us_per_event: f64,
    /// Peak resident set (`VmHWM`, KiB) attributable to this row: the
    /// kernel high-water mark is reset before each run via
    /// `/proc/self/clear_refs`. 0 when the gauge is unavailable
    /// (off-Linux, or no permission to reset), or when the sweep ran
    /// with `--jobs > 1` (concurrent rows share the process gauge — the
    /// sweep-aggregate row carries it instead). `opt` for pre-PR-9
    /// baselines.
    peak_rss_kib: u64,
    /// Sweep-aggregate fields, non-zero only on the `scenario = "sweep"`
    /// row: cell count, completed cells per wall-clock second, and
    /// aggregate simulated events dispatched per wall-clock second
    /// across the whole BENCH_host batch. `opt` for pre-PR-10 baselines.
    cells: usize,
    cells_per_sec: f64,
    agg_events_per_sec: f64,
    /// Worker threads the sweep ran with (the aggregate row only).
    jobs: usize,
}

faaspipe_json::json_object! {
    HostRow {
        opt scenario,
        req workers,
        req records,
        req wall_ms,
        req sim_latency_s,
        req events,
        req peak_live_processes,
        req user_cpu_s,
        req sys_cpu_s,
        req ctx_switches,
        opt us_per_event,
        opt peak_rss_kib,
        opt cells,
        opt cells_per_sec,
        opt agg_events_per_sec,
        opt jobs,
    }
}

const RECORDS: usize = 8_000;
const HOST_WIDTHS: [usize; 6] = [64, 256, 1024, 4096, 8192, 16384];

/// The fixed cluster workload: `CLUSTER_TENANTS` Table-1-shaped tenants
/// (W = 8 each) fed by a seeded Poisson process, so the same arrival set
/// (and event count) replays on every host.
const CLUSTER_TENANTS: usize = 4;
const CLUSTER_RECORDS: usize = 4_000;

fn cluster_cfg(traced: bool) -> ClusterConfig {
    let tenants = (0..CLUSTER_TENANTS)
        .map(|i| TenantSpec::new(format!("t{}", i)))
        .collect();
    let arrivals = ArrivalProcess::Poisson {
        rate_per_sec: 0.05,
        horizon: SimDuration::from_secs(240),
    };
    let mut cfg = ClusterConfig::new(tenants, arrivals);
    cfg.physical_records = CLUSTER_RECORDS;
    if traced {
        cfg.trace = TraceMode::InMemory;
    }
    cfg
}

fn timed_cluster(traced: bool) -> (f64, ClusterReport) {
    let start = Instant::now();
    let report = run_cluster(&cluster_cfg(traced)).expect("cluster run");
    let wall = start.elapsed();
    assert_eq!(report.failed, 0, "cluster runs must all complete");
    assert!(report.completed > 0, "seeded arrivals must produce runs");
    (wall.as_secs_f64() * 1e3, report)
}

/// Wall-clock regression factor that triggers the `--check` warning.
/// Generous on purpose: shared CI runners jitter, and the check is
/// warn-only — its job is to flag order-of-magnitude scheduler
/// regressions, not 10% noise.
const CHECK_FACTOR: f64 = 1.5;

/// Process-wide (user, system) CPU seconds from `/proc/self/stat`.
fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat.split_whitespace().collect();
    let tick = 100.0; // CLK_TCK
    let ut: f64 = fields.get(13).and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let st: f64 = fields.get(14).and_then(|s| s.parse().ok()).unwrap_or(0.0);
    (ut / tick, st / tick)
}

/// Resets the kernel's peak-RSS high-water mark (`VmHWM`) for this
/// process so the next [`peak_rss_kib`] read is attributable to the work
/// since the reset. Needs write access to `/proc/self/clear_refs`
/// (normally granted to the process itself); quietly a no-op elsewhere —
/// the gauge then reports a whole-process high-water mark instead, which
/// is still an upper bound.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size in KiB (`VmHWM`), falling back to the current
/// `VmRSS` and then to 0 when `/proc` is unavailable.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for key in ["VmHWM:", "VmRSS:"] {
        if let Some(v) = status.lines().find_map(|l| l.strip_prefix(key)) {
            if let Some(kib) = v.split_whitespace().next().and_then(|n| n.parse().ok()) {
                return kib;
            }
        }
    }
    0
}

/// Total context switches (voluntary + involuntary) across all live
/// threads of this process. Under-counts switches charged to already
/// exited threads, which is fine for a before/after delta within one run.
fn ctx_switches() -> u64 {
    let mut total = 0u64;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for t in tasks.flatten() {
            if let Ok(s) = std::fs::read_to_string(t.path().join("status")) {
                for line in s.lines() {
                    if line.starts_with("voluntary_ctxt_switches")
                        || line.starts_with("nonvoluntary_ctxt_switches")
                    {
                        total += line
                            .split_whitespace()
                            .last()
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(0);
                    }
                }
            }
        }
    }
    total
}

fn bench_sim(jobs: usize) -> Vec<SimRow> {
    // Each cell times its own run: wall_ms is per-row wherever the cell
    // lands (contention inflates it at --jobs > 1, which the doc header
    // flags; CI measures serially).
    let mut sweep: Sweep<SimRow> = Sweep::new();
    for backend in [ExchangeKind::Scatter, ExchangeKind::Coalesced] {
        for workers in [4usize, 8] {
            sweep.push(format!("sim {} W={}", backend, workers), move || {
                let mut cfg = PipelineConfig::paper_table1();
                cfg.mode = PipelineMode::PureServerless;
                cfg.physical_records = RECORDS;
                cfg.workers = WorkerChoice::Fixed(workers);
                cfg.exchange = backend;
                cfg.trace = true;
                let start = Instant::now();
                let outcome = run_methcomp_pipeline(&cfg).expect("pipeline run");
                let wall = start.elapsed();
                assert!(outcome.verified, "{} W={} must verify", backend, workers);
                SimRow {
                    backend: backend.to_string(),
                    workers,
                    records: RECORDS,
                    wall_ms: wall.as_secs_f64() * 1e3,
                    sim_latency_s: outcome.latency.as_secs_f64(),
                    spans: outcome.trace.spans.len(),
                    events: outcome.sim.events,
                    peak_live_processes: outcome.sim.peak_live_processes,
                }
            });
        }
    }
    // One traced cluster run: concurrent per-tenant process trees over the
    // shared store/platform, the many-live-process path the pipeline rows
    // above never exercise.
    sweep.push("sim cluster", || {
        let (wall_ms, report) = timed_cluster(true);
        SimRow {
            backend: "cluster".to_string(),
            workers: CLUSTER_TENANTS * 8,
            records: CLUSTER_RECORDS,
            wall_ms,
            sim_latency_s: report.makespan.as_secs_f64(),
            spans: report.trace.spans.len(),
            events: report.sim.events,
            peak_live_processes: report.sim.peak_live_processes,
        }
    });
    let rows = sweep.run_expect(jobs);

    println!("BENCH_sim — traced pipeline runs (host wall clock):");
    println!(
        "{:<10} {:>4}  {:>9}  {:>12}  {:>7}  {:>9}  {:>5}",
        "backend", "W", "wall", "sim-latency", "spans", "events", "peak"
    );
    for row in &rows {
        println!(
            "{:<10} {:>4}  {:>7.0}ms  {:>11.2}s  {:>7}  {:>9}  {:>5}",
            row.backend,
            row.workers,
            row.wall_ms,
            row.sim_latency_s,
            row.spans,
            row.events,
            row.peak_live_processes
        );
    }
    rows
}

/// Process-wide counter snapshot taken around a single cell (only
/// attributable when cells run one at a time).
fn row_counters_before(serial: bool) -> (f64, f64, u64) {
    if !serial {
        return (0.0, 0.0, 0);
    }
    let (u, s) = cpu_times();
    let c = ctx_switches();
    reset_peak_rss();
    (u, s, c)
}

fn bench_host(jobs: usize) -> Vec<HostRow> {
    let serial = jobs == 1;
    let mut sweep: Sweep<HostRow> = Sweep::new();
    for workers in HOST_WIDTHS {
        sweep.push(format!("host W={}", workers), move || {
            let mut cfg = PipelineConfig::paper_table1();
            cfg.mode = PipelineMode::PureServerless;
            cfg.physical_records = RECORDS;
            cfg.workers = WorkerChoice::Fixed(workers);
            cfg.exchange = ExchangeKind::Coalesced;
            cfg.trace = false;
            let (u0, s0, c0) = row_counters_before(serial);
            let start = Instant::now();
            let outcome = run_methcomp_pipeline(&cfg).expect("pipeline run");
            let wall = start.elapsed();
            let rss = if serial { peak_rss_kib() } else { 0 };
            let (u1, s1) = if serial { cpu_times() } else { (0.0, 0.0) };
            let c1 = if serial { ctx_switches() } else { 0 };
            assert!(outcome.verified, "W={} must verify", workers);
            HostRow {
                scenario: String::new(),
                workers,
                records: RECORDS,
                wall_ms: wall.as_secs_f64() * 1e3,
                sim_latency_s: outcome.latency.as_secs_f64(),
                events: outcome.sim.events,
                peak_live_processes: outcome.sim.peak_live_processes,
                user_cpu_s: u1 - u0,
                sys_cpu_s: s1 - s0,
                ctx_switches: c1.saturating_sub(c0),
                us_per_event: wall.as_secs_f64() * 1e6 / outcome.sim.events.max(1) as f64,
                peak_rss_kib: rss,
                cells: 0,
                cells_per_sec: 0.0,
                agg_events_per_sec: 0.0,
                jobs: 0,
            }
        });
    }
    // The untraced cluster row, with the same host counters as the
    // trajectory points so a slowdown still splits into work vs speed.
    sweep.push("host cluster", move || {
        let (u0, s0, c0) = row_counters_before(serial);
        let (wall_ms, report) = timed_cluster(false);
        let rss = if serial { peak_rss_kib() } else { 0 };
        let (u1, s1) = if serial { cpu_times() } else { (0.0, 0.0) };
        let c1 = if serial { ctx_switches() } else { 0 };
        HostRow {
            scenario: "cluster".to_string(),
            workers: CLUSTER_TENANTS * 8,
            records: CLUSTER_RECORDS,
            wall_ms,
            sim_latency_s: report.makespan.as_secs_f64(),
            events: report.sim.events,
            peak_live_processes: report.sim.peak_live_processes,
            user_cpu_s: u1 - u0,
            sys_cpu_s: s1 - s0,
            ctx_switches: c1.saturating_sub(c0),
            us_per_event: wall_ms * 1e3 / report.sim.events.max(1) as f64,
            peak_rss_kib: rss,
            cells: 0,
            cells_per_sec: 0.0,
            agg_events_per_sec: 0.0,
            jobs: 0,
        }
    });

    // Process-wide deltas around the whole batch feed the aggregate row;
    // they are valid at any job count because they never claim to be
    // per-row.
    let (sweep_u0, sweep_s0) = cpu_times();
    let sweep_c0 = ctx_switches();
    if !serial {
        reset_peak_rss();
    }
    let (mut rows, stats) = sweep.run_expect_stats(jobs);
    let (sweep_u1, sweep_s1) = cpu_times();
    let sweep_c1 = ctx_switches();
    // At --jobs 1 every cell resets the high-water mark, so the batch
    // peak is the max of the per-row gauges; concurrent cells share the
    // gauge and the whole-batch reading is the only attributable one.
    let sweep_rss = if serial {
        rows.iter().map(|r| r.peak_rss_kib).max().unwrap_or(0)
    } else {
        peak_rss_kib()
    };

    println!();
    println!("BENCH_host — untraced coalesced scaling trajectory:");
    println!(
        "{:<5}  {:>10}  {:>12}  {:>9}  {:>5}  {:>7}  {:>7}  {:>9}  {:>8}  {:>9}",
        "W", "wall", "sim-latency", "events", "peak", "user", "sys", "ctxsw", "µs/evt", "peakRSS"
    );
    for row in &rows {
        println!(
            "{:<5}  {:>8.0}ms  {:>11.2}s  {:>9}  {:>5}  {:>6.2}s  {:>6.2}s  {:>9}  {:>8.2}  {:>7}KiB{}",
            row.workers,
            row.wall_ms,
            row.sim_latency_s,
            row.events,
            row.peak_live_processes,
            row.user_cpu_s,
            row.sys_cpu_s,
            row.ctx_switches,
            row.us_per_event,
            row.peak_rss_kib,
            if row.scenario.is_empty() {
                ""
            } else {
                "  (cluster)"
            }
        );
    }

    let sweep_wall_s = stats.wall.as_secs_f64();
    let agg_events: u64 = rows.iter().map(|r| r.events).sum();
    let sweep_row = HostRow {
        scenario: "sweep".to_string(),
        workers: 0,
        records: RECORDS,
        wall_ms: sweep_wall_s * 1e3,
        sim_latency_s: 0.0,
        events: agg_events,
        peak_live_processes: 0,
        user_cpu_s: sweep_u1 - sweep_u0,
        sys_cpu_s: sweep_s1 - sweep_s0,
        ctx_switches: sweep_c1.saturating_sub(sweep_c0),
        us_per_event: sweep_wall_s * 1e6 / agg_events.max(1) as f64,
        peak_rss_kib: sweep_rss,
        cells: stats.cells,
        cells_per_sec: stats.cells_per_sec(),
        agg_events_per_sec: agg_events as f64 / sweep_wall_s.max(f64::EPSILON),
        jobs: stats.jobs,
    };
    println!(
        "sweep: {} cells in {:.0}ms on {} thread(s) — {:.2} cells/s, {:.0} events/s aggregate",
        sweep_row.cells,
        sweep_row.wall_ms,
        sweep_row.jobs,
        sweep_row.cells_per_sec,
        sweep_row.agg_events_per_sec
    );
    rows.push(sweep_row);
    rows
}

/// Context-switch ceiling for `--check`, in switches per 1000 dispatched
/// events. The stackless loop measures ~3–30 (allocator housekeeping
/// plus CI-runner noise); the old thread-per-process
/// scheduler sat near 10_000. 100 splits those regimes with wide margin
/// on both sides.
const CTXSW_PER_KEVENT_CEILING: f64 = 100.0;

/// Process thread-count ceiling for `--check`: the event-loop thread plus
/// slack for threads the runtime or a profiler may add (the sweep
/// engine's scoped workers have exited by then). Warn-only, like the
/// other health ceilings.
const THREADS_CEILING: usize = 4;

/// Current `Threads:` count from /proc/self/status (0 off-Linux).
fn host_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Warn-only scheduler-health ceilings, applied to the fresh rows in
/// `--check` mode. Never contributes to the exit code: these counters
/// are host-shaped and exist to annotate the CI log, not to gate.
fn health_warnings(rows: &[HostRow]) {
    for row in rows {
        // The aggregate row's switches include the sweep engine's own
        // worker handoffs at --jobs > 1; the ceiling only describes the
        // serial event loop.
        let concurrent_aggregate = row.scenario == "sweep" && row.jobs > 1;
        if row.events > 0 && !concurrent_aggregate {
            let per_kevent = row.ctx_switches as f64 / (row.events as f64 / 1e3);
            if per_kevent > CTXSW_PER_KEVENT_CEILING {
                eprintln!(
                    "warning: W={} made {:.0} context switches per 1000 events \
                     (ceiling {:.0}) — processes may be landing on threads again",
                    row.workers, per_kevent, CTXSW_PER_KEVENT_CEILING
                );
            }
        }
    }
    let threads = host_threads();
    if threads > THREADS_CEILING {
        eprintln!(
            "warning: process holds {} threads after the trajectory (ceiling {}) — \
             expected only the event-loop thread",
            threads, THREADS_CEILING
        );
    }
}

/// What [`check_against`] found.
#[derive(Debug, Default, PartialEq)]
struct CheckOutcome {
    /// Rows whose wall clock exceeds `CHECK_FACTOR` × the baseline row's.
    regressed: usize,
    /// Rows whose simulated results (events, virtual latency, peak live
    /// processes) differ from the baseline row's.
    drifted: usize,
}

/// Compares fresh host rows against a checked-in baseline, matching rows
/// by scenario, worker count and record count.
fn check_against(baseline: &[HostRow], current: &[HostRow]) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    for row in current {
        let Some(base) = baseline.iter().find(|b| {
            b.scenario == row.scenario && b.workers == row.workers && b.records == row.records
        }) else {
            eprintln!(
                "warning: no baseline point for W={} records={}; skipping",
                row.workers, row.records
            );
            continue;
        };
        if row.events != base.events
            || row.sim_latency_s != base.sim_latency_s
            || row.peak_live_processes != base.peak_live_processes
        {
            eprintln!(
                "error: {} W={} simulated (events {}, latency {} s, peak live {}) vs baseline \
                 ({}, {} s, {}) — simulated results drifted",
                if row.scenario.is_empty() {
                    "trajectory"
                } else {
                    &row.scenario
                },
                row.workers,
                row.events,
                row.sim_latency_s,
                row.peak_live_processes,
                base.events,
                base.sim_latency_s,
                base.peak_live_processes
            );
            outcome.drifted += 1;
        }
        let limit = base.wall_ms * CHECK_FACTOR;
        if row.wall_ms > limit {
            eprintln!(
                "warning: wall-clock regression at W={}: {:.0}ms > {:.1}x baseline {:.0}ms",
                row.workers, row.wall_ms, CHECK_FACTOR, base.wall_ms
            );
            outcome.regressed += 1;
        } else {
            println!(
                "check ok at W={}: {:.0}ms <= {:.1}x baseline {:.0}ms",
                row.workers, row.wall_ms, CHECK_FACTOR, base.wall_ms
            );
        }
    }
    outcome
}

/// Jobs for this binary: explicit `--jobs` / `FAASPIPE_JOBS` wins, but
/// the *default* is 1 (not the core count) — serial rows are the only
/// ones whose host counters mean anything.
fn bench_jobs(args: &[String]) -> usize {
    let explicit = args
        .iter()
        .any(|a| a == "--jobs" || a.starts_with("--jobs="))
        || std::env::var_os(faaspipe_sweep::JOBS_ENV).is_some();
    if explicit {
        faaspipe_sweep::jobs_from_args_or_exit(args)
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let jobs = bench_jobs(&args);
    // The first positional argument (after stripping the flags and the
    // `--jobs` value) is an optional baseline path for --check.
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => {}
            "--jobs" => {
                let _ = it.next();
            }
            s if s.starts_with("--jobs=") => {}
            _ => positional.push(a),
        }
    }

    // In check mode the baseline must be read before measuring: the
    // fresh rows overwrite `results/BENCH_host.json` afterwards (that
    // file is both the checked-in baseline and the uploaded artifact).
    let baseline: Option<Vec<HostRow>> = if check {
        let path = positional
            .first()
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| results_dir().join("BENCH_host.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read baseline {}: {}", path.display(), e));
        Some(faaspipe_json::from_str(&text).expect("parse baseline BENCH_host.json"))
    } else {
        None
    };

    let sim_rows = bench_sim(jobs);
    let host_rows = bench_host(jobs);
    write_json("BENCH_sim", &sim_rows);
    write_json("BENCH_host", &host_rows);

    if let Some(baseline) = baseline {
        health_warnings(&host_rows);
        let outcome = check_against(&baseline, &host_rows);
        if outcome.drifted > 0 {
            eprintln!(
                "{} of {} rows simulated different results from the baseline",
                outcome.drifted,
                host_rows.len()
            );
            std::process::exit(2);
        }
        if outcome.regressed > 0 {
            eprintln!(
                "{} of {} trajectory points regressed (warn-only; CI does not gate on this)",
                outcome.regressed,
                host_rows.len()
            );
            std::process::exit(1);
        }
        println!(
            "simulated results and wall-clock check passed for all {} points",
            host_rows.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workers: usize, events: u64, sim_latency_s: f64, wall_ms: f64) -> HostRow {
        HostRow {
            scenario: String::new(),
            workers,
            records: RECORDS,
            wall_ms,
            sim_latency_s,
            events,
            peak_live_processes: 10,
            user_cpu_s: 0.0,
            sys_cpu_s: 0.0,
            ctx_switches: 0,
            us_per_event: 0.0,
            peak_rss_kib: 0,
            cells: 0,
            cells_per_sec: 0.0,
            agg_events_per_sec: 0.0,
            jobs: 0,
        }
    }

    #[test]
    fn check_separates_simulated_drift_from_wall_clock_regressions() {
        let baseline = [row(64, 100, 1.5, 10.0), row(256, 200, 2.5, 10.0)];
        let same = [row(64, 100, 1.5, 14.0), row(256, 200, 2.5, 9.0)];
        assert_eq!(check_against(&baseline, &same), CheckOutcome::default());

        let slower = [row(64, 100, 1.5, 16.0), row(256, 200, 2.5, 9.0)];
        let outcome = check_against(&baseline, &slower);
        assert_eq!((outcome.regressed, outcome.drifted), (1, 0));

        let mut peak = row(256, 200, 2.5, 9.0);
        peak.peak_live_processes += 1;
        for drifted in [
            row(64, 101, 1.5, 10.0),
            row(64, 100, 1.500000001, 10.0),
            peak,
        ] {
            let outcome = check_against(&baseline, &[drifted]);
            assert_eq!((outcome.regressed, outcome.drifted), (0, 1));
        }
    }
}
