//! The measurement loops: untraced end-to-end runs, and traced rounds
//! that split a run into layers.

use std::time::Instant;

use faaspipe::cluster::arrival::run_seed;
use faaspipe::cluster::TraceMode;
use faaspipe::cluster::{percentile, run_cluster, ClusterConfig, ClusterReport};
use faaspipe::core::{
    run_methcomp_pipeline, PipelineConfig, PipelineMode, PipelineOutcome, WorkerChoice,
};
use faaspipe::des::Sim;
use faaspipe::methcomp::synth::Synthesizer;
use faaspipe::shuffle::SortRecord;
use faaspipe::store::{ObjectStore, TagMetrics};
use faaspipe::trace::chrome_trace_json;

use bytes::Bytes;

use crate::host::{
    at_reference_speed, peak_rss_mib, reset_peak_rss, timed, trim_heap, Calibration, HostSpans,
    HostTime, SpanId,
};
use crate::layers::{replay_kernels, stage, trace_counts, Composed, KernelTimes, TraceCounts};
use crate::stats::Metric;
use crate::workload::{Plan, Workload};

/// The paper's Table 1: (mode, latency s, cost $).
const PAPER_TABLE1: [(PipelineMode, f64, f64); 2] = [
    (PipelineMode::PureServerless, 83.32, 0.008),
    (PipelineMode::VmHybrid, 142.77, 0.010),
];

/// Operations attempted and failed, with the cause of each failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub causes: Vec<String>,
}

impl Tally {
    /// Counts one operation and returns its value; a failure is counted
    /// with its cause, printed at once, and gives `None`.
    pub fn check<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(cause) => {
                self.fail(what, cause);
                None
            }
        }
    }

    /// Counts one failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: &str, cause: String) {
        let line = format!("FAILED {what}: {cause}");
        eprintln!("{line}");
        self.failed += 1;
        self.causes.push(line);
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// How one workload measurement is run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measurement time; whole runs continue until it has passed.
    pub seconds: f64,
    /// Shrunken sizes for tests.
    pub smoke: bool,
}

/// Everything one workload measurement produced.
#[derive(Debug)]
pub struct Measured {
    /// The metrics the mode reports, in output order.
    pub metrics: Vec<Metric>,
    /// Metrics reported beside them that not every workload has
    /// (`fail_frac`, and `t1_*` on `table1`).
    pub extra: Vec<Metric>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Host-time spans of the benchmark's calls into the program.
    pub spans: HostSpans,
    /// Span-track labels: (run id, label).
    pub runs: Vec<(u64, String)>,
}

/// Set-up-only repetitions per measured run, so that `setup_s` is a
/// median of many short samples.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::Fanout => 8,
        Workload::Table1 => 2,
        Workload::Cluster => 200,
    }
}

struct Runner {
    settings: Settings,
    tally: Tally,
    spans: HostSpans,
    runs: Vec<(u64, String)>,
}

impl Runner {
    fn new(settings: Settings) -> Runner {
        Runner {
            settings,
            tally: Tally::default(),
            spans: HostSpans::new(),
            runs: Vec::new(),
        }
    }

    /// A fresh run id and its root span.
    fn open_run(&mut self, label: &str) -> (u64, SpanId) {
        let id = self.runs.len() as u64;
        self.runs.push((
            id,
            format!("{}#{id} {label}", self.settings.workload.name()),
        ));
        (id, self.spans.begin("run", None, id))
    }

    /// Runs `round` until the measurement time has passed (at least once).
    fn repeat(&mut self, mut round: impl FnMut(&mut Runner)) {
        let start = Instant::now();
        loop {
            round(self);
            if start.elapsed().as_secs_f64() >= self.settings.seconds {
                break;
            }
        }
    }

    fn finish(self, metrics: Vec<Metric>, mut extra: Vec<Metric>) -> Measured {
        extra.insert(
            0,
            Metric::new("fail_frac", "ratio", vec![self.tally.fail_frac()]),
        );
        Measured {
            metrics,
            extra,
            tally: self.tally,
            spans: self.spans,
            runs: self.runs,
        }
    }
}

/// Samples of the end-to-end metrics, and beside them the raw clock
/// readings they were computed from.
#[derive(Default)]
struct EndToEnd {
    run_s: Vec<f64>,
    setup_s: Vec<f64>,
    events_per_s: Vec<f64>,
    rss: Vec<f64>,
    run_cpu_s: Vec<f64>,
    run_wall_s: Vec<f64>,
    events_per_cpu_s: Vec<f64>,
    events_per_wall_s: Vec<f64>,
    cal_s: Vec<f64>,
}

impl EndToEnd {
    /// A calibration reading, kept for the raw output.
    fn calibrate(&mut self, cal: &Calibration) -> f64 {
        let s = cal.measure();
        self.cal_s.push(s);
        s
    }

    /// One run's host time; `between` is the pair of calibration
    /// readings taken just before and after it.
    fn run(&mut self, took: HostTime, between: (f64, f64)) {
        self.run_s.push(at_reference_speed(took.cpu_s, between));
        self.run_cpu_s.push(took.cpu_s);
        self.run_wall_s.push(took.wall_s);
    }

    /// `events` dispatched in `took` of simulation.
    fn events(&mut self, events: u64, took: HostTime, between: (f64, f64)) {
        let events = events as f64;
        self.events_per_s
            .push(events / at_reference_speed(took.cpu_s, between));
        self.events_per_cpu_s.push(events / took.cpu_s);
        self.events_per_wall_s.push(events / took.wall_s);
    }

    fn into_metrics(self) -> (Vec<Metric>, Vec<Metric>) {
        let metrics = vec![
            Metric::new("run_s", "s", self.run_s),
            Metric::new("setup_s", "s", self.setup_s),
            Metric::new("events_per_s", "1/s", self.events_per_s),
            Metric::new("peak_rss_mib", "MiB", self.rss),
        ];
        let raw = vec![
            Metric::new("run_cpu_s", "s", self.run_cpu_s),
            Metric::new("run_wall_s", "s", self.run_wall_s),
            Metric::new("events_per_cpu_s", "1/s", self.events_per_cpu_s),
            Metric::new("events_per_wall_s", "1/s", self.events_per_wall_s),
            Metric::new("calibration_s", "s", self.cal_s),
        ];
        (metrics, raw)
    }
}

/// Runs `settings.workload` untraced and reports the end-to-end metrics.
///
/// Each timed block is bracketed by calibration readings, and its
/// process CPU time is reported at the reference speed (see
/// [`Calibration`]); the raw CPU and wall times go beside them.
pub fn end_to_end(settings: Settings) -> Measured {
    let plan = settings.workload.plan(settings.seed, settings.smoke);
    let mut r = Runner::new(settings);
    let cal = Calibration::new();
    let mut e = EndToEnd::default();
    let mut t1 = Vec::new();
    match &plan {
        Plan::Pipelines(cfgs) => {
            // One untimed run first, so lazy set-up is not timed.
            library_runs(&mut r, cfgs, "warm-up");
            r.repeat(|r| {
                trim_heap();
                let c0 = e.calibrate(&cal);
                reset_peak_rss();
                let (outcomes, took) = timed(|| library_runs(r, cfgs, "run"));
                e.rss.push(peak_rss_mib());
                let c1 = e.calibrate(&cal);
                let (id, root) = r.open_run("composed");
                let composed: Vec<Option<Composed>> = cfgs
                    .iter()
                    .zip(&outcomes)
                    .map(|(cfg, lib)| composed_run(r, cfg, lib.as_ref(), Some(root), id))
                    .collect();
                r.spans.end(root);
                let c2 = e.calibrate(&cal);
                if let Some(composed) = composed.into_iter().collect::<Option<Vec<_>>>() {
                    let events: u64 = composed.iter().map(|c| c.sim.events).sum();
                    let looped = HostTime {
                        cpu_s: composed.iter().map(|c| c.loop_s).sum(),
                        wall_s: composed.iter().map(|c| c.loop_wall_s).sum(),
                    };
                    let setup: f64 = composed.iter().map(|c| c.setup_s).sum();
                    e.run(took, (c0, c1));
                    e.events(events, looped, (c1, c2));
                    e.setup_s.push(at_reference_speed(setup, (c1, c2)));
                    if settings.workload == Workload::Table1 {
                        t1 = table1_errors(outcomes.iter().flatten());
                    }
                }
                let mut setups = Vec::new();
                for _ in 0..setup_reps(settings.workload) {
                    let staged: Result<Vec<_>, _> = cfgs
                        .iter()
                        .map(|cfg| stage(cfg, &mut r.spans, None, id))
                        .collect();
                    match staged {
                        Ok(s) => setups.push(s.iter().map(|s| s.setup_s).sum::<f64>()),
                        Err(e) => {
                            r.tally.check::<()>("setup", Err(e));
                        }
                    }
                }
                let c3 = e.calibrate(&cal);
                e.setup_s
                    .extend(setups.iter().map(|&s| at_reference_speed(s, (c2, c3))));
            });
        }
        Plan::Cluster(cfg) => {
            cluster_run(&mut r, cfg, "warm-up");
            r.repeat(|r| {
                trim_heap();
                let c0 = e.calibrate(&cal);
                reset_peak_rss();
                let (report, took) = timed(|| cluster_run(r, cfg, "run"));
                e.rss.push(peak_rss_mib());
                let c1 = e.calibrate(&cal);
                if let Some(report) = report {
                    e.run(took, (c0, c1));
                    e.events(report.sim.events, took, (c0, c1));
                }
                let setups: Vec<f64> = (0..setup_reps(settings.workload))
                    .map(|_| timed(|| cluster_setup(settings)).1.cpu_s)
                    .collect();
                let c2 = e.calibrate(&cal);
                e.setup_s
                    .extend(setups.iter().map(|&s| at_reference_speed(s, (c1, c2))));
            });
        }
    }
    let (metrics, mut extra) = e.into_metrics();
    extra.extend(t1);
    r.finish(metrics, extra)
}

/// The cluster's set-up outside the simulation: its configuration and
/// arrival schedule.
fn cluster_setup(settings: Settings) -> usize {
    match settings.workload.plan(settings.seed, settings.smoke) {
        Plan::Cluster(cfg) => {
            let weights: Vec<f64> = cfg.tenants.iter().map(|t| t.weight).collect();
            cfg.arrivals
                .generate(cfg.seed, &weights)
                .map_or(0, |a| std::hint::black_box(a).len())
        }
        Plan::Pipelines(_) => 0,
    }
}

/// Runs every config through `run_methcomp_pipeline`, one after
/// another, checking each; `None` marks a failed run.
fn library_runs(
    r: &mut Runner,
    cfgs: &[PipelineConfig],
    what: &str,
) -> Vec<Option<PipelineOutcome>> {
    cfgs.iter()
        .map(|cfg| {
            let label = format!("{what} {} seed {:#x}", cfg.mode, cfg.seed);
            let result = run_methcomp_pipeline(cfg)
                .map_err(|e| e.to_string())
                .and_then(|o| {
                    if o.verified == cfg.verify {
                        Ok(o)
                    } else {
                        Err("outputs were not verified".to_string())
                    }
                });
            r.tally.check(&label, result)
        })
        .collect()
}

/// A composed run checked against the library run of the same config;
/// the check is one more attempted operation.
fn composed_run(
    r: &mut Runner,
    cfg: &PipelineConfig,
    lib: Option<&PipelineOutcome>,
    parent: Option<SpanId>,
    id: u64,
) -> Option<Composed> {
    let label = format!("composed {} seed {:#x}", cfg.mode, cfg.seed);
    let result = stage(cfg, &mut r.spans, parent, id)
        .and_then(|s| s.run(cfg, &mut r.spans, parent, id))
        .and_then(|c| match lib {
            Some(lib) => c.matches(lib).map(|()| c),
            None => Err("no library run to compare with".into()),
        });
    r.tally.check(&label, result)
}

/// Runs the cluster and checks that every submitted run completed; each
/// submitted run is one attempted operation.
fn cluster_run(r: &mut Runner, cfg: &ClusterConfig, what: &str) -> Option<ClusterReport> {
    let label = format!("{what} cluster seed {:#x}", cfg.seed);
    match run_cluster(cfg) {
        Err(e) => r.tally.check(&label, Err(e.to_string())),
        Ok(report) => {
            r.tally.attempted += report.submitted as u64;
            for run in report.runs.iter().filter(|run| !run.ok) {
                let cause = run.error.clone().unwrap_or_else(|| "failed".into());
                r.tally
                    .fail(&format!("{label} run {}/r{}", run.tenant, run.seq), cause);
            }
            let missing = report.submitted.saturating_sub(report.runs.len());
            for _ in 0..missing {
                r.tally
                    .fail(&label, "a submitted run never finished".into());
            }
            if report.submitted == 0 {
                r.tally
                    .check::<()>(&label, Err("no runs were submitted".into()));
            }
            (report.completed == report.submitted && report.submitted > 0).then_some(report)
        }
    }
}

/// `t1_*` metrics: |simulated − paper| / paper for each Table-1 row.
fn table1_errors<'a>(outcomes: impl IntoIterator<Item = &'a PipelineOutcome>) -> Vec<Metric> {
    let mut out = Vec::new();
    for o in outcomes {
        let Some((_, lat, cost)) = PAPER_TABLE1.iter().find(|(m, _, _)| *m == o.mode) else {
            continue;
        };
        let err = |sim: f64, paper: f64| vec![100.0 * (sim - paper).abs() / paper];
        let (lat_name, cost_name) = match o.mode {
            PipelineMode::PureServerless => ("t1_pure_latency_err_pct", "t1_pure_cost_err_pct"),
            PipelineMode::VmHybrid => ("t1_vm_latency_err_pct", "t1_vm_cost_err_pct"),
        };
        out.push(Metric::new(
            lat_name,
            "%",
            err(o.latency.as_secs_f64(), *lat),
        ));
        out.push(Metric::new(
            cost_name,
            "%",
            err(o.cost.total().as_dollars(), *cost),
        ));
    }
    out
}

/// Per-round samples of every per-layer metric, in output order.
struct Layers(Vec<(&'static str, &'static str, Vec<f64>)>);

impl Layers {
    fn new() -> Layers {
        Layers(Vec::new())
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, _, samples)) => samples.push(value),
            None => self.0.push((name, unit, vec![value])),
        }
    }

    fn into_metrics(self) -> Vec<Metric> {
        self.0
            .into_iter()
            .map(|(name, unit, samples)| Metric::new(name, unit, samples))
            .collect()
    }
}

/// Samples of one round shared by both workload kinds.
#[derive(Default)]
struct Round {
    run_s: f64,
    verify_s: f64,
    unattributed_s: f64,
    synth_s: f64,
    stage_s: f64,
    loop_s: f64,
    traced_s: f64,
    export_s: f64,
    events: u64,
    processes: u64,
    peak_live: u64,
    store: TagMetrics,
    invocations: u64,
    cold_starts: u64,
    warm_starts: u64,
    gb_s: f64,
    vm_instances: u64,
    vm_billed_s: f64,
    latency_s: f64,
    bill_usd: f64,
    compression_ratio: f64,
    completed: u64,
    sojourn_p50_s: f64,
    sojourn_p99_s: f64,
    goodput_per_s: f64,
    fairness: f64,
    mean_queue_s: f64,
    trace: TraceCounts,
    kernels: KernelTimes,
}

impl Round {
    fn record(&self, l: &mut Layers) {
        let mib = |b: u64| b as f64 / (1u64 << 20) as f64;
        let rate = |secs: f64| mib(self.kernels.bytes) / secs.max(1e-9);
        let cp = self.trace.critical_path_s;
        l.push("methcomp.synth_s", "s", self.synth_s);
        l.push("store.stage_s", "s", self.stage_s);
        l.push("des.loop_s", "s", self.loop_s);
        l.push(
            "des.us_per_event",
            "us",
            self.loop_s * 1e6 / self.events.max(1) as f64,
        );
        l.push("des.events", "count", self.events as f64);
        l.push("des.processes", "count", self.processes as f64);
        l.push("des.peak_live_processes", "count", self.peak_live as f64);
        l.push("core.verify_s", "s", self.verify_s);
        l.push("core.unattributed_s", "s", self.unattributed_s);
        l.push("shuffle.sort_mib_s", "MiB/s", rate(self.kernels.sort_s));
        l.push(
            "shuffle.partition_mib_s",
            "MiB/s",
            rate(self.kernels.partition_s),
        );
        l.push("shuffle.merge_mib_s", "MiB/s", rate(self.kernels.merge_s));
        l.push(
            "methcomp.compress_mib_s",
            "MiB/s",
            rate(self.kernels.compress_s),
        );
        l.push(
            "methcomp.decompress_mib_s",
            "MiB/s",
            rate(self.kernels.decompress_s),
        );
        l.push("store.requests_a", "count", self.store.class_a as f64);
        l.push("store.requests_b", "count", self.store.class_b as f64);
        l.push("store.errors", "count", self.store.errors as f64);
        l.push("store.mib_in", "MiB", mib(self.store.bytes_in.as_u64()));
        l.push("store.mib_out", "MiB", mib(self.store.bytes_out.as_u64()));
        l.push("store.flows", "count", self.trace.flows as f64);
        l.push(
            "store.peak_inflight_flows",
            "count",
            self.trace.peak_inflight_flows,
        );
        l.push("faas.invocations", "count", self.invocations as f64);
        l.push("faas.cold_starts", "count", self.cold_starts as f64);
        l.push("faas.warm_starts", "count", self.warm_starts as f64);
        l.push("faas.peak_queued", "count", self.trace.peak_queued);
        l.push("faas.gb_s", "GB-s", self.gb_s);
        l.push("vm.instances", "count", self.vm_instances as f64);
        l.push("vm.billed_s", "s", self.vm_billed_s);
        l.push("core.latency_s", "s", self.latency_s);
        l.push("core.bill_usd", "USD", self.bill_usd);
        l.push("core.compression_ratio", "ratio", self.compression_ratio);
        l.push("cluster.completed", "count", self.completed as f64);
        l.push("cluster.p50_s", "s", self.sojourn_p50_s);
        l.push("cluster.p99_s", "s", self.sojourn_p99_s);
        l.push("cluster.goodput_per_s", "1/s", self.goodput_per_s);
        l.push("cluster.fairness", "ratio", self.fairness);
        l.push("cluster.mean_queue_s", "s", self.mean_queue_s);
        l.push("plan.decisions", "count", self.trace.planner as f64);
        l.push("trace.spans", "count", self.trace.spans as f64);
        l.push(
            "trace.overhead_pct",
            "%",
            100.0 * (self.traced_s - self.run_s) / self.run_s.max(1e-9),
        );
        l.push("trace.export_s", "s", self.export_s);
        l.push("trace.cp_compute_s", "s", cp[0]);
        l.push("trace.cp_store_io_s", "s", cp[1]);
        l.push("trace.cp_cold_start_s", "s", cp[2]);
        l.push("trace.cp_queueing_s", "s", cp[3]);
        l.push("trace.cp_other_s", "s", cp[4]);
    }
}

/// The worker count a pipeline's shuffle kernels run at.
fn width(cfg: &PipelineConfig) -> usize {
    match (cfg.mode, cfg.workers) {
        (PipelineMode::PureServerless, WorkerChoice::Fixed(w)) => w,
        _ => cfg.parallelism,
    }
}

/// Runs traced rounds of `settings.workload` and reports the per-layer
/// metrics.
pub fn per_layer(settings: Settings) -> Measured {
    let plan = settings.workload.plan(settings.seed, settings.smoke);
    let mut r = Runner::new(settings);
    let mut layers = Layers::new();
    let mut t1 = Vec::new();
    match &plan {
        Plan::Pipelines(cfgs) => {
            library_runs(&mut r, cfgs, "warm-up");
            r.repeat(|r| {
                if let Some((round, outcomes)) = pipeline_round(r, cfgs) {
                    round.record(&mut layers);
                    if settings.workload == Workload::Table1 {
                        t1 = table1_errors(&outcomes);
                    }
                }
            });
        }
        Plan::Cluster(cfg) => {
            cluster_run(&mut r, cfg, "warm-up");
            r.repeat(|r| {
                if let Some(round) = cluster_round(r, cfg) {
                    round.record(&mut layers);
                }
            });
        }
    }
    r.finish(layers.into_metrics(), t1)
}

/// One traced round of a pipeline workload: verify on and off, composed,
/// traced, and kernel replays. `None` when a run failed.
fn pipeline_round(
    r: &mut Runner,
    cfgs: &[PipelineConfig],
) -> Option<(Round, Vec<PipelineOutcome>)> {
    let mut round = Round::default();
    let (on, took) = timed(|| library_runs(r, cfgs, "verify-on"));
    round.run_s = took.cpu_s;
    let off_cfgs: Vec<PipelineConfig> = cfgs
        .iter()
        .map(|c| PipelineConfig {
            verify: false,
            ..c.clone()
        })
        .collect();
    let (off, took) = timed(|| library_runs(r, &off_cfgs, "verify-off"));
    round.verify_s = round.run_s - took.cpu_s;
    let on: Vec<PipelineOutcome> = on.into_iter().collect::<Option<_>>()?;
    off.into_iter().collect::<Option<Vec<_>>>()?;

    let (id, root) = r.open_run("composed");
    let mut composed = Vec::new();
    for (cfg, lib) in cfgs.iter().zip(&on) {
        composed.push(composed_run(r, cfg, Some(lib), Some(root), id));
    }
    r.spans.end(root);
    let composed: Vec<Composed> = composed.into_iter().collect::<Option<_>>()?;

    let traced_cfgs: Vec<PipelineConfig> = cfgs
        .iter()
        .map(|c| PipelineConfig {
            trace: true,
            ..c.clone()
        })
        .collect();
    let (traced, took) = timed(|| library_runs(r, &traced_cfgs, "traced"));
    round.traced_s = took.cpu_s;
    let traced: Vec<PipelineOutcome> = traced.into_iter().collect::<Option<_>>()?;

    let (id, root) = r.open_run("replay");
    let n = on.len() as f64;
    let mut latencies = Vec::new();
    for (((cfg, lib), c), t) in cfgs.iter().zip(&on).zip(&composed).zip(&traced) {
        let label = format!("traced {} seed {:#x}", cfg.mode, cfg.seed);
        let same = t.latency == lib.latency
            && t.cost.total() == lib.cost.total()
            && t.sim.events == lib.sim.events;
        if !same {
            r.tally
                .fail(&label, "traced run differs from the untraced run".into());
            return None;
        }
        let (json, took) = r.spans.time("trace.export", Some(root), id, || {
            chrome_trace_json(&t.trace)
        });
        std::hint::black_box(json);
        round.export_s += took.cpu_s;
        round.trace += trace_counts(&t.trace);

        let kernels = replay_kernels(&c.chunks, width(cfg), &mut r.spans, Some(root), id);
        let label = format!("kernel replay {} seed {:#x}", cfg.mode, cfg.seed);
        if let Some(k) = r.tally.check(&label, kernels) {
            round.kernels += k;
        }

        round.synth_s += c.synth_s;
        round.stage_s += c.stage_s;
        round.loop_s += c.loop_s;
        round.events += c.sim.events;
        round.processes += c.sim.processes as u64;
        round.peak_live = round.peak_live.max(c.sim.peak_live_processes as u64);
        round.store.merge(&c.store);
        round.invocations += c.invocations.len() as u64;
        round.cold_starts += c.invocations.iter().filter(|i| i.cold).count() as u64;
        round.warm_starts += c.invocations.iter().filter(|i| !i.cold).count() as u64;
        round.gb_s += c.invocations.iter().map(|i| i.gb_seconds()).sum::<f64>();
        round.vm_instances += c.vms.len() as u64;
        round.vm_billed_s += c
            .vms
            .iter()
            .map(|v| v.billed_duration(c.sim.end_time).as_secs_f64())
            .sum::<f64>();
        round.latency_s += lib.latency.as_secs_f64() / n;
        round.bill_usd += lib.cost.total().as_dollars() / n;
        round.compression_ratio += lib.compression_ratio_text / n;
        latencies.push(lib.latency.as_secs_f64());
    }
    r.spans.end(root);

    // A standalone run is a one-tenant cluster with no admission queue,
    // its runs back to back.
    round.completed = on.len() as u64;
    round.sojourn_p50_s = percentile(&latencies, 50.0);
    round.sojourn_p99_s = percentile(&latencies, 99.0);
    round.goodput_per_s = n / latencies.iter().sum::<f64>();
    round.fairness = 1.0;
    round.unattributed_s =
        round.run_s - round.synth_s - round.stage_s - round.loop_s - round.verify_s;
    Some((round, on))
}

/// One traced round of the cluster: verify on and off, traced, and
/// replays of the synthesis, staging and kernels its runs perform inside
/// the simulation. `None` when a run failed.
fn cluster_round(r: &mut Runner, cfg: &ClusterConfig) -> Option<Round> {
    let mut round = Round::default();
    let (on, took) = timed(|| cluster_run(r, cfg, "verify-on"));
    round.run_s = took.cpu_s;
    let off_cfg = ClusterConfig {
        verify: false,
        ..cfg.clone()
    };
    let (off, took) = timed(|| cluster_run(r, &off_cfg, "verify-off"));
    round.verify_s = round.run_s - took.cpu_s;
    let on = on?;
    off?;
    let traced_cfg = ClusterConfig {
        trace: TraceMode::InMemory,
        ..cfg.clone()
    };
    let (traced, took) = timed(|| cluster_run(r, &traced_cfg, "traced"));
    round.traced_s = took.cpu_s;
    let traced = traced?;
    if traced.makespan != on.makespan
        || traced.cost.total() != on.cost.total()
        || traced.sim.events != on.sim.events
    {
        r.tally.fail(
            &format!("traced cluster seed {:#x}", cfg.seed),
            "traced run differs from the untraced run".into(),
        );
        return None;
    }

    let (id, root) = r.open_run("replay");
    let (json, took) = r.spans.time("trace.export", Some(root), id, || {
        chrome_trace_json(&traced.trace)
    });
    std::hint::black_box(json);
    round.export_s = took.cpu_s;
    round.trace = trace_counts(&traced.trace);
    round.invocations = round.trace.invocations;
    round.cold_starts = round.trace.cold_starts;
    round.warm_starts = round.trace.warm_starts;
    round.vm_instances = round.trace.vm_instances;
    round.vm_billed_s = round.trace.vm_billed_s;
    round.gb_s = on.cost.functions.as_dollars() / cfg.pricing.fn_gb_second.as_dollars();

    // The synthesis and staging every run performs inside the
    // simulation, replayed outside it with the same calls.
    let weights: Vec<f64> = cfg.tenants.iter().map(|t| t.weight).collect();
    let arrivals = r.tally.check(
        "arrival schedule",
        cfg.arrivals.generate(cfg.seed, &weights),
    )?;
    let mut first_chunks: Vec<Option<Vec<Bytes>>> = vec![None; cfg.tenants.len()];
    let mut sim = Sim::new();
    let store = ObjectStore::install(
        &mut sim,
        cfg.store.clone().with_size_scale(cfg.size_scale()),
    );
    for (seq, a) in arrivals.iter().enumerate() {
        let (dataset, took) = r.spans.time("methcomp.synth", Some(root), id, || {
            Synthesizer::new(run_seed(cfg.seed, seq)).generate_shuffled(cfg.physical_records)
        });
        round.synth_s += took.cpu_s;
        let spec = &cfg.tenants[a.tenant];
        let bucket = format!("{}-r{}", spec.name, seq);
        let (chunks, took) = r.spans.time("store.stage", Some(root), id, || {
            store.create_bucket(bucket.clone())?;
            let per = dataset.records.len().div_ceil(spec.parallelism);
            let mut chunks = Vec::new();
            for (i, records) in dataset.records.chunks(per).enumerate() {
                let data = Bytes::from(SortRecord::write_all(records));
                store.put_untimed(&bucket, &format!("in/{:04}", i), data.clone())?;
                chunks.push(data);
            }
            Ok::<_, faaspipe::store::StoreError>(chunks)
        });
        round.stage_s += took.cpu_s;
        match chunks {
            Ok(chunks) => {
                first_chunks[a.tenant].get_or_insert(chunks);
            }
            Err(e) => {
                r.tally
                    .fail(&format!("staging replay {bucket}"), e.to_string());
                return None;
            }
        }
    }
    drop(store);
    drop(sim);

    for (spec, chunks) in cfg.tenants.iter().zip(first_chunks) {
        let Some(chunks) = chunks else { continue };
        let w = match (spec.mode, spec.workers) {
            (PipelineMode::PureServerless, WorkerChoice::Fixed(w)) => w,
            _ => spec.parallelism,
        };
        let kernels = replay_kernels(&chunks, w, &mut r.spans, Some(root), id);
        let label = format!("kernel replay {} seed {:#x}", spec.name, cfg.seed);
        if let Some(k) = r.tally.check(&label, kernels) {
            round.kernels += k;
        }
    }
    r.spans.end(root);

    round.loop_s = round.run_s;
    round.events = on.sim.events;
    round.processes = on.sim.processes as u64;
    round.peak_live = on.sim.peak_live_processes as u64;
    for t in &on.tenants {
        round.store.merge(&t.store);
    }
    let done: Vec<_> = on.runs.iter().filter(|run| run.ok).collect();
    let n = done.len().max(1) as f64;
    round.latency_s = done
        .iter()
        .map(|run| run.exec_latency().as_secs_f64())
        .sum::<f64>()
        / n;
    round.bill_usd = on.cost.total().as_dollars() / n;
    round.compression_ratio =
        round.kernels.text_bytes as f64 / round.kernels.archive_bytes.max(1) as f64;
    let sojourns: Vec<f64> = done.iter().map(|run| run.sojourn().as_secs_f64()).collect();
    round.completed = on.completed as u64;
    round.sojourn_p50_s = percentile(&sojourns, 50.0);
    round.sojourn_p99_s = percentile(&sojourns, 99.0);
    round.goodput_per_s = on.goodput_rate;
    round.fairness = on.fairness;
    round.mean_queue_s = done
        .iter()
        .map(|run| run.queue_wait().as_secs_f64())
        .sum::<f64>()
        / n;
    // Synthesis, staging and verification run inside this workload's
    // simulation loop; the rest of the loop is unattributed.
    round.unattributed_s = round.run_s - round.synth_s - round.stage_s - round.verify_s;
    Some(round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::DEFAULT_SEED;
    use faaspipe_json::Json;

    fn smoke(workload: Workload) -> Settings {
        Settings {
            workload,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            smoke: true,
        }
    }

    /// `(name, unit)` of every metric BENCHMARK.json lists under `key`.
    fn listed(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json: Json = text.parse().expect("BENCHMARK.json parses");
        let field = |m: &Json, f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
        json.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn reported(m: &Measured) -> Vec<(String, String)> {
        m.metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn every_workload_passes_every_check_end_to_end() {
        for w in Workload::ALL {
            let m = end_to_end(smoke(w));
            assert!(m.tally.attempted > 0, "{w:?}");
            assert_eq!(m.tally.failed, 0, "{w:?}: {:?}", m.tally.causes);
            assert_eq!(reported(&m), listed("end_to_end"), "{w:?}");
            for metric in &m.metrics {
                assert!(!metric.samples.is_empty(), "{w:?} {}", metric.name);
                assert!(metric.value() > 0.0, "{w:?} {} is 0", metric.name);
            }
            let t1 = m.extra.iter().filter(|x| x.name.starts_with("t1_")).count();
            assert_eq!(t1, if w == Workload::Table1 { 4 } else { 0 }, "{w:?}");
        }
    }

    #[test]
    fn every_workload_reports_every_layer_traced() {
        for w in Workload::ALL {
            let m = per_layer(smoke(w));
            assert!(m.tally.attempted > 0, "{w:?}");
            assert_eq!(m.tally.failed, 0, "{w:?}: {:?}", m.tally.causes);
            assert_eq!(reported(&m), listed("per_layer"), "{w:?}");
            let value = |name: &str| {
                m.metrics
                    .iter()
                    .find(|x| x.name == name)
                    .map(Metric::value)
                    .expect(name)
            };
            for name in [
                "des.events",
                "store.flows",
                "faas.invocations",
                "trace.spans",
            ] {
                assert!(value(name) > 0.0, "{w:?} {name}");
            }
            assert!(m.spans.len() > 0, "{w:?} recorded no host spans");
        }
    }

    #[test]
    fn counts_repeat_exactly_across_rounds() {
        let mut settings = smoke(Workload::Fanout);
        settings.seconds = 1e-9;
        let a = per_layer(settings);
        let b = per_layer(settings);
        for name in [
            "des.events",
            "store.requests_a",
            "faas.cold_starts",
            "core.latency_s",
        ] {
            let get = |m: &Measured| {
                m.metrics
                    .iter()
                    .find(|x| x.name == name)
                    .map(|x| x.samples.clone())
                    .expect(name)
            };
            assert_eq!(get(&a), get(&b), "{name}");
        }
    }

    #[test]
    fn fail_frac_counts_a_failed_outcome() {
        let mut r = Runner::new(smoke(Workload::Fanout));
        let Plan::Pipelines(cfgs) = Workload::Fanout.plan(DEFAULT_SEED, true) else {
            panic!("fanout runs a pipeline");
        };
        let lib = library_runs(&mut r, &cfgs, "run")
            .remove(0)
            .expect("library run");
        assert!(composed_run(&mut r, &cfgs[0], Some(&lib), None, 0).is_some());

        // A library outcome the composed run cannot reproduce.
        let mut wrong = lib.clone();
        wrong.sim.events += 1;
        assert!(composed_run(&mut r, &cfgs[0], Some(&wrong), None, 0).is_none());
        assert!(composed_run(&mut r, &cfgs[0], None, None, 0).is_none());

        assert_eq!((r.tally.attempted, r.tally.failed), (4, 2));
        assert_eq!(r.tally.fail_frac(), 0.5);
        assert!(
            r.tally.causes[0].contains("composed events"),
            "{:?}",
            r.tally.causes
        );
        let m = r.finish(Vec::new(), Vec::new());
        assert_eq!(m.extra[0].name, "fail_frac");
        assert_eq!(m.extra[0].value(), 0.5);
    }

    #[test]
    fn empty_tally_has_no_failures() {
        assert_eq!(Tally::default().fail_frac(), 0.0);
    }
}
