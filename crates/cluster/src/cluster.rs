//! The cluster itself: shared infrastructure, the arrival driver, the
//! per-run process trees, and the report aggregation.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;

use faaspipe_core::pricing::StageCost;
use faaspipe_core::{
    size_scale, stage_input, stage_window, CostReport, EncodeCodec, Executor, Figure1,
    PipelineMode, PriceBook, Services, Tracker, WorkerChoice,
};
use faaspipe_des::{
    catch_unwind_future, panic_message, Ctx, Money, Sim, SimDuration, SimError, SimReport, SimTime,
};
use faaspipe_exchange::ExchangeKind;
use faaspipe_faas::FaasConfig;
use faaspipe_methcomp::synth::Synthesizer;
use faaspipe_methcomp::MethRecord;
use faaspipe_shuffle::{SortConfig, SortRecord, WorkModel};
use faaspipe_store::{ObjectStore, StoreConfig, TagMetrics};
use faaspipe_trace::{Category, SpanId, TraceData, TraceSink};
use faaspipe_vm::VmProfile;

use crate::admission::{AdmissionPolicy, TenantGate};
use crate::arrival::{run_seed, Arrival, ArrivalProcess};
use crate::metrics::{jain_fairness, percentile};

/// One tenant of the cluster: a pipeline shape plus an arrival weight
/// and an admission policy. Names become tag/span prefixes, so they
/// must not contain `/`.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name, e.g. `"t0"`. Used as the attribution scope.
    pub name: String,
    /// Relative share of Poisson arrivals routed to this tenant.
    pub weight: f64,
    /// Pipeline incarnation for this tenant's runs.
    pub mode: PipelineMode,
    /// Input partitions / encode workers per run.
    pub parallelism: usize,
    /// Worker policy for the serverless shuffle.
    pub workers: WorkerChoice,
    /// Intermediate data-exchange backend.
    pub exchange: ExchangeKind,
    /// Per-function I/O window.
    pub io_concurrency: usize,
    /// Encode-stage codec.
    pub encode_codec: EncodeCodec,
    /// VM type for `PipelineMode::VmHybrid` runs.
    pub vm_profile: VmProfile,
    /// Limits on this tenant's runs (default: unlimited).
    pub admission: AdmissionPolicy,
}

impl TenantSpec {
    /// A tenant with the paper's Table-1 pipeline shape (serverless
    /// scatter sort, parallelism 8) and no admission limits.
    pub fn new(name: impl Into<String>) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            weight: 1.0,
            mode: PipelineMode::PureServerless,
            parallelism: 8,
            workers: WorkerChoice::Fixed(8),
            exchange: ExchangeKind::Scatter,
            io_concurrency: SortConfig::default().io_concurrency,
            encode_codec: EncodeCodec::Methcomp,
            vm_profile: VmProfile::bx2_8x32(),
            admission: AdmissionPolicy::unlimited(),
        }
    }

    /// The tenant's Figure-1 pipeline shape.
    fn figure1(&self) -> Figure1<'_> {
        Figure1 {
            mode: self.mode,
            parallelism: self.parallelism,
            workers: self.workers,
            exchange: self.exchange,
            io_concurrency: self.io_concurrency,
            encode_codec: self.encode_codec,
            vm_profile: &self.vm_profile,
        }
    }
}

/// Where the cluster's execution trace goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceMode {
    /// No tracing (disabled sinks stay out of the hot path).
    Off,
    /// Record into memory; the full [`TraceData`] lands in
    /// [`ClusterReport::trace`].
    InMemory,
    /// Stream JSONL span/counter lines to a file as the simulation
    /// runs; memory use stays flat no matter how many runs execute.
    Stream(PathBuf),
}

/// The most tenants one cluster may hold. Each tenant is a spec, an
/// admission gate and a pool partition, so a count from outside the
/// process is checked against this before anything is sized by it.
pub const MAX_TENANTS: usize = 1_024;

/// Configuration of one cluster experiment.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The tenants (at least one, at most [`MAX_TENANTS`]).
    pub tenants: Vec<TenantSpec>,
    /// The open-loop submission schedule.
    pub arrivals: ArrivalProcess,
    /// Physical records per run's dataset (wire/compute scaled up to
    /// `modeled_bytes`, exactly like the standalone pipeline).
    pub physical_records: usize,
    /// Modelled dataset size of one run.
    pub modeled_bytes: u64,
    /// Base seed: run `r{seq}` synthesizes its dataset from
    /// [`run_seed`]`(seed, seq)`; the arrival schedule derives from the
    /// same seed (salted).
    pub seed: u64,
    /// The **shared** object store (global ops/s + aggregate bandwidth).
    pub store: StoreConfig,
    /// The **shared** functions platform; the warm pool is automatically
    /// partitioned per tenant.
    pub faas: FaasConfig,
    /// CPU-work calibration (size scale set automatically).
    pub work: WorkModel,
    /// Price book for the per-tenant bills.
    pub pricing: PriceBook,
    /// Check every completed run's outputs (sorted order + archives
    /// present). Adds host-side work per run; off by default.
    pub verify: bool,
    /// Trace destination.
    pub trace: TraceMode,
}

impl ClusterConfig {
    /// A cluster of Table-1-shaped tenants with a physically small
    /// (20 000-record) dataset per run, modelling the paper's 3.5 GB.
    pub fn new(tenants: Vec<TenantSpec>, arrivals: ArrivalProcess) -> ClusterConfig {
        ClusterConfig {
            tenants,
            arrivals,
            physical_records: 20_000,
            modeled_bytes: 3_500_000_000,
            seed: 0xE0C0_FF88,
            store: StoreConfig::default(),
            faas: FaasConfig::default(),
            work: WorkModel::default(),
            pricing: PriceBook::default(),
            verify: false,
            trace: TraceMode::Off,
        }
    }

    /// The wire/compute scale factor of one run (see
    /// [`PipelineConfig::size_scale`](faaspipe_core::PipelineConfig::size_scale)).
    pub fn size_scale(&self) -> f64 {
        size_scale(self.modeled_bytes, self.physical_records)
    }
}

/// Errors from a cluster run.
#[derive(Debug)]
pub enum ClusterError {
    /// The configuration is unusable.
    BadConfig {
        /// Why.
        reason: String,
    },
    /// The simulation failed (deadlock or unobserved panic).
    Sim(SimError),
    /// The streaming trace file could not be opened or flushed.
    Trace(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::BadConfig { reason } => write!(f, "bad config: {}", reason),
            ClusterError::Sim(e) => write!(f, "simulation failed: {}", e),
            ClusterError::Trace(e) => write!(f, "trace stream failed: {}", e),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<SimError> for ClusterError {
    fn from(e: SimError) -> Self {
        ClusterError::Sim(e)
    }
}

/// What happened to one submitted run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Owning tenant.
    pub tenant: String,
    /// Global arrival index (names the run `{tenant}/r{seq}`).
    pub seq: usize,
    /// Submission time.
    pub arrived: SimTime,
    /// When admission control let the run start.
    pub admitted: SimTime,
    /// First stage start.
    pub started: SimTime,
    /// Last stage end (or when the failure surfaced).
    pub finished: SimTime,
    /// Whether every stage succeeded (and, with `verify`, checked out).
    pub ok: bool,
    /// Failure message when `!ok`.
    pub error: Option<String>,
}

impl RunOutcome {
    /// Submission to completion — the open-loop SLO metric (includes
    /// admission queueing).
    pub fn sojourn(&self) -> SimDuration {
        self.finished.saturating_duration_since(self.arrived)
    }

    /// Time spent queued in admission control.
    pub fn queue_wait(&self) -> SimDuration {
        self.admitted.saturating_duration_since(self.arrived)
    }

    /// First stage start to last stage end — directly comparable to the
    /// standalone pipeline's Table-1 latency.
    pub fn exec_latency(&self) -> SimDuration {
        self.finished.saturating_duration_since(self.started)
    }
}

/// Per-tenant SLO summary (sojourn statistics are in seconds).
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Runs submitted.
    pub submitted: usize,
    /// Runs that completed successfully.
    pub completed: usize,
    /// Runs that failed.
    pub failed: usize,
    /// Median sojourn of completed runs, seconds.
    pub p50: f64,
    /// 99th-percentile sojourn, seconds.
    pub p99: f64,
    /// 99.9th-percentile sojourn, seconds.
    pub p999: f64,
    /// Mean sojourn, seconds.
    pub mean: f64,
    /// Mean admission queue wait, seconds.
    pub mean_queue: f64,
    /// The tenant's bill (functions + store requests + VM time).
    pub bill: Money,
    /// The tenant's object-store traffic.
    pub store: TagMetrics,
}

/// Everything a cluster run produces.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-tenant summaries, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Every run, sorted by arrival.
    pub runs: Vec<RunOutcome>,
    /// Total runs submitted.
    pub submitted: usize,
    /// Total runs completed.
    pub completed: usize,
    /// Total runs failed.
    pub failed: usize,
    /// Virtual time from start to the last completion.
    pub makespan: SimDuration,
    /// Submissions per second over the submission window.
    pub offered_rate: f64,
    /// Completions per second over the makespan.
    pub goodput_rate: f64,
    /// Jain fairness index over per-tenant mean sojourns (1.0 = all
    /// tenants see identical service; compares like-shaped tenants).
    pub fairness: f64,
    /// Itemized cost; `by_stage` keys are tenant names.
    pub cost: CostReport,
    /// The trace (empty unless [`TraceMode::InMemory`]).
    pub trace: TraceData,
    /// The simulator's execution report.
    pub sim: SimReport,
}

impl ClusterReport {
    /// The report row for `tenant`, if it exists.
    pub fn tenant(&self, tenant: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }

    /// Renders the per-tenant SLO table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cluster: {} submitted, {} completed, {} failed | makespan {:.1} s | \
             offered {:.3}/s goodput {:.3}/s | fairness {:.3}\n",
            self.submitted,
            self.completed,
            self.failed,
            self.makespan.as_secs_f64(),
            self.offered_rate,
            self.goodput_rate,
            self.fairness,
        ));
        out.push_str(
            "tenant       runs   ok fail   p50 s   p99 s  p999 s  mean s queue s        bill\n",
        );
        for t in &self.tenants {
            out.push_str(&format!(
                "{:<12} {:>4} {:>4} {:>4} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>11}\n",
                t.tenant,
                t.submitted,
                t.completed,
                t.failed,
                t.p50,
                t.p99,
                t.p999,
                t.mean,
                t.mean_queue,
                t.bill.to_string(),
            ));
        }
        out
    }
}

/// State shared by every run process.
struct Shared {
    services: Services,
    work: WorkModel,
    sink: TraceSink,
    tracing: bool,
    physical_records: usize,
    seed: u64,
    verify: bool,
    outcomes: Arc<Mutex<Vec<RunOutcome>>>,
}

/// Runs a multi-tenant cluster simulation to completion.
///
/// # Errors
/// [`ClusterError::BadConfig`] for unusable configurations,
/// [`ClusterError::Sim`] when the simulation deadlocks or panics,
/// [`ClusterError::Trace`] when the streaming trace file fails.
pub fn run_cluster(cfg: &ClusterConfig) -> Result<ClusterReport, ClusterError> {
    simulate(cfg).map(|(report, _store)| report)
}

/// [`run_cluster`], also handing back the shared store as the
/// simulation left it.
pub(crate) fn simulate(
    cfg: &ClusterConfig,
) -> Result<(ClusterReport, Arc<ObjectStore>), ClusterError> {
    validate(cfg)?;
    let weights: Vec<f64> = cfg.tenants.iter().map(|t| t.weight).collect();
    let arrivals = cfg
        .arrivals
        .generate(cfg.seed, &weights)
        .map_err(|reason| ClusterError::BadConfig { reason })?;

    let scale = cfg.size_scale();
    let mut sim = Sim::new();
    let services = Services::install(
        &mut sim,
        cfg.store.clone().with_size_scale(scale),
        cfg.faas.clone().with_tenant_scoped_pool(true),
    );

    let (sink, tracing) = match &cfg.trace {
        TraceMode::Off => (TraceSink::disabled(), false),
        TraceMode::InMemory => (TraceSink::recording(), true),
        TraceMode::Stream(path) => (
            TraceSink::streaming_file(path).map_err(|e| ClusterError::Trace(e.to_string()))?,
            true,
        ),
    };
    if tracing {
        services.set_trace_sink(&sink);
    }

    let mut gates = Vec::with_capacity(cfg.tenants.len());
    for spec in &cfg.tenants {
        gates.push(TenantGate::install(&mut sim, &spec.admission));
        if let Some((ops, burst)) = spec.admission.store_ops {
            services
                .store
                .set_scope_ops_limit(&mut sim, spec.name.clone(), ops, burst);
        }
    }

    let outcomes: Arc<Mutex<Vec<RunOutcome>>> = Arc::new(Mutex::new(Vec::new()));
    let shared = Arc::new(Shared {
        services: services.clone(),
        work: cfg.work.clone().with_size_scale(scale),
        sink: sink.clone(),
        tracing,
        physical_records: cfg.physical_records,
        seed: cfg.seed,
        verify: cfg.verify,
        outcomes: Arc::clone(&outcomes),
    });

    // The arrival driver: sleeps to each submission instant, spawns the
    // run's process tree, and finally joins every run so the simulation
    // does not end before the queue drains.
    {
        let shared = Arc::clone(&shared);
        let specs: Vec<TenantSpec> = cfg.tenants.clone();
        let arrivals = arrivals.clone();
        sim.spawn("cluster:arrivals", move |ctx: Ctx| async move {
            let mut runs = Vec::with_capacity(arrivals.len());
            for (seq, a) in arrivals.iter().enumerate() {
                let wait = a.at.saturating_duration_since(ctx.now());
                if wait > SimDuration::ZERO {
                    ctx.sleep(wait).await;
                }
                let shared = Arc::clone(&shared);
                let spec = specs[a.tenant].clone();
                let gate = gates[a.tenant];
                let name = format!("{}/r{}", spec.name, seq);
                runs.push(
                    ctx.spawn(name, move |mut ctx: Ctx| async move {
                        execute_run(&mut ctx, &shared, &spec, gate, seq).await;
                    })
                    .await,
                );
            }
            for pid in runs {
                // Every run records its own outcome, a panicking one
                // included (see `execute_run`), so a join error is left
                // with nothing to report.
                let _ = ctx.join(pid).await;
            }
        });
    }

    drop(shared);
    let report = sim.run()?;
    sink.finish()
        .map_err(|e| ClusterError::Trace(e.to_string()))?;

    let mut runs = outcomes.lock().clone();
    runs.sort_by_key(|r| (r.arrived, r.seq));

    let report = aggregate(cfg, &arrivals, runs, &services, report, sink);
    Ok((report, services.store))
}

fn validate(cfg: &ClusterConfig) -> Result<(), ClusterError> {
    let bad = |reason: String| Err(ClusterError::BadConfig { reason });
    if cfg.tenants.is_empty() {
        return bad("at least one tenant is required".into());
    }
    if cfg.tenants.len() > MAX_TENANTS {
        return bad(format!(
            "{} tenants exceeds the ceiling of {}",
            cfg.tenants.len(),
            MAX_TENANTS
        ));
    }
    if cfg.physical_records == 0 {
        return bad("physical_records must be positive".into());
    }
    for spec in &cfg.tenants {
        if spec.name.is_empty() || spec.name.contains('/') {
            return bad(format!(
                "tenant name {:?} must be non-empty and must not contain '/'",
                spec.name
            ));
        }
        if spec.parallelism == 0 {
            return bad(format!(
                "tenant {}: parallelism must be positive",
                spec.name
            ));
        }
        let policy = &spec.admission;
        if policy.max_concurrent_runs == Some(0) {
            return bad(format!(
                "tenant {}: max_concurrent_runs must be positive",
                spec.name
            ));
        }
        // Every store request takes one token, so the bucket must refill
        // and hold at least one.
        if let Some((rate, burst)) = policy.store_ops {
            if !(rate.is_finite() && rate > 0.0 && burst.is_finite() && burst >= 1.0) {
                return bad(format!(
                    "tenant {}: store_ops needs a finite positive rate and a finite burst \
                     of at least 1, got rate {} and burst {}",
                    spec.name, rate, burst
                ));
            }
        }
    }
    let mut names: Vec<&str> = cfg.tenants.iter().map(|t| t.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    if names.len() != cfg.tenants.len() {
        return bad("tenant names must be unique".into());
    }
    Ok(())
}

/// The body of one run's root process: admission, input staging, the
/// two-stage DAG via [`Executor::spawn_dag_in`], freeing the run's bucket,
/// and outcome recording.
async fn execute_run(
    ctx: &mut Ctx,
    shared: &Shared,
    spec: &TenantSpec,
    gate: TenantGate,
    seq: usize,
) {
    let run_name = format!("{}/r{}", spec.name, seq);
    let arrived = ctx.now();
    let span = if shared.tracing {
        let span = shared.sink.span_start(
            Category::Run,
            run_name.clone(),
            "cluster",
            &spec.name,
            SpanId::NONE,
            arrived,
        );
        shared.sink.attr(span, "tenant", spec.name.clone());
        shared.sink.attr(span, "seq", seq as u64);
        span
    } else {
        SpanId::NONE
    };

    gate.admit(ctx).await;
    let admitted = ctx.now();
    if shared.tracing {
        shared.sink.attr(
            span,
            "queue_wait_s",
            admitted.saturating_duration_since(arrived).as_secs_f64(),
        );
    }

    let mut outcome = RunOutcome {
        tenant: spec.name.clone(),
        seq,
        arrived,
        admitted,
        started: admitted,
        finished: admitted,
        ok: false,
        error: None,
    };

    // A panic in the run (a dataset that cannot be allocated, say) fails
    // this run only: it still releases its admission slot and records an
    // outcome, as a crashed invocation does on the functions platform.
    let bucket = format!("{}-r{}", spec.name, seq);
    let run = drive_run(ctx, shared, spec, &run_name, &bucket, seq);
    let result = match catch_unwind_future(std::panic::AssertUnwindSafe(run)).await {
        Ok(result) => result,
        Err(payload) => Err(format!("run panicked: {}", panic_message(payload.as_ref()))),
    };
    // Nothing reads a run's objects once it has ended, verified, failed
    // or panicked, so its bucket is freed now, without a request.
    shared.services.store.drop_bucket_untimed(&bucket);
    match result {
        Ok((started, finished)) => {
            outcome.started = started;
            outcome.finished = finished;
            outcome.ok = true;
        }
        Err(message) => {
            outcome.finished = ctx.now();
            outcome.error = Some(message);
        }
    }

    gate.release(ctx).await;
    if shared.tracing {
        shared.sink.span_end(span, ctx.now());
    }
    shared.outcomes.lock().push(outcome);
}

/// Stages the input into the run's `bucket`, runs the DAG, and
/// (optionally) verifies outputs. Returns the run's stage window.
async fn drive_run(
    ctx: &mut Ctx,
    shared: &Shared,
    spec: &TenantSpec,
    run_name: &str,
    bucket: &str,
    seq: usize,
) -> Result<(SimTime, SimTime), String> {
    let dag = spec
        .figure1()
        .dag(run_name, bucket, &format!("{}/", run_name))
        .map_err(|e| e.to_string())?;
    // The key layout inside the bucket is the standalone pipeline's. The
    // dataset is freed before the run's first `.await`: the staged chunks
    // are the only copy the run reads.
    let dataset =
        Synthesizer::new(run_seed(shared.seed, seq)).generate_shuffled(shared.physical_records);
    let staged = stage_input(
        &shared.services.store,
        bucket,
        dag.stages()[0].kind.input(),
        &dataset.records,
        spec.parallelism,
    );
    drop(dataset);
    staged.map_err(|e| e.to_string())?;

    // Parent the run's stage spans to nothing cluster-global: the run
    // span above already carries tenant/seq, and the tracker labels
    // stages with the full `{tenant}/r{seq}/{stage}` names. Untraced, the
    // sink is disabled and the tracker records nothing.
    let tracker = Tracker::with_sink(shared.sink.clone(), SpanId::NONE);
    let services = Services {
        store: shared.services.store.clone(),
        faas: shared.services.faas.clone(),
        // The shared fleet, with this tenant stamped on every VM record.
        fleet: shared.services.fleet.scoped(spec.name.clone()),
    };
    let executor = Executor::new(services, shared.work.clone(), tracker);
    let handle = executor.spawn_dag_in(ctx, &dag).await;
    ctx.join(handle.root).await.map_err(|e| e.to_string())?;
    let window = stage_window(&handle.ok_results()?);

    if shared.verify {
        verify_run(shared, bucket)?;
    }
    Ok(window)
}

/// Cheap per-run output check: sorted runs exist, concatenate in
/// globally sorted order, and every run has its archive. (Full decode
/// round-trips are covered by the standalone pipeline's tests.)
fn verify_run(shared: &Shared, bucket: &str) -> Result<(), String> {
    let store = &shared.services.store;
    let keys = store.keys_untimed(bucket, "sorted/");
    if keys.is_empty() {
        return Err("no sorted runs produced".to_string());
    }
    let mut last: Option<MethRecord> = None;
    let mut total = 0usize;
    for key in &keys {
        let j = key.trim_start_matches("sorted/");
        let run = store
            .peek(bucket, key)
            .ok_or_else(|| format!("missing sorted run {}", j))?;
        let records: Vec<MethRecord> =
            SortRecord::read_all(&run).map_err(|e| format!("sorted run {} corrupt: {}", j, e))?;
        for rec in records {
            if let Some(prev) = last {
                if prev.sort_key() > rec.sort_key() {
                    return Err(format!("run {} breaks global sort order", j));
                }
            }
            last = Some(rec);
            total += 1;
        }
        if store.peek(bucket, &format!("enc/{}", j)).is_none() {
            return Err(format!("missing archive {}", j));
        }
    }
    if total != shared.physical_records {
        return Err(format!(
            "expected {} records across sorted runs, found {}",
            shared.physical_records, total
        ));
    }
    Ok(())
}

fn aggregate(
    cfg: &ClusterConfig,
    arrivals: &[Arrival],
    runs: Vec<RunOutcome>,
    Services { store, faas, fleet }: &Services,
    report: SimReport,
    sink: TraceSink,
) -> ClusterReport {
    let metrics = store.metrics();
    let cost = cfg
        .pricing
        .assemble(&faas.records(), &metrics, &fleet.records(), report.end_time);

    let mut tenants = Vec::with_capacity(cfg.tenants.len());
    let mut means = Vec::with_capacity(cfg.tenants.len());
    for spec in &cfg.tenants {
        let mine: Vec<&RunOutcome> = runs.iter().filter(|r| r.tenant == spec.name).collect();
        let sojourns: Vec<f64> = mine
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.sojourn().as_secs_f64())
            .collect();
        let queues: Vec<f64> = mine
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.queue_wait().as_secs_f64())
            .collect();
        let completed = sojourns.len();
        let mean = if completed > 0 {
            sojourns.iter().sum::<f64>() / completed as f64
        } else {
            0.0
        };
        if completed > 0 {
            means.push(mean);
        }
        tenants.push(TenantReport {
            tenant: spec.name.clone(),
            submitted: mine.len(),
            completed,
            failed: mine.len() - completed,
            p50: percentile(&sojourns, 50.0),
            p99: percentile(&sojourns, 99.0),
            p999: percentile(&sojourns, 99.9),
            mean,
            mean_queue: if completed > 0 {
                queues.iter().sum::<f64>() / completed as f64
            } else {
                0.0
            },
            bill: cost
                .by_stage
                .get(&spec.name)
                .map_or(Money::ZERO, StageCost::total),
            store: metrics.total_for_scope(&spec.name),
        });
    }

    let submitted = runs.len();
    let completed = runs.iter().filter(|r| r.ok).count();
    let makespan = report.end_time.saturating_duration_since(SimTime::ZERO);
    let window = match &cfg.arrivals {
        ArrivalProcess::Poisson { horizon, .. } => horizon.as_secs_f64(),
        ArrivalProcess::Trace(_) => arrivals.last().map_or(0.0, |a| {
            a.at.saturating_duration_since(SimTime::ZERO).as_secs_f64()
        }),
    };
    ClusterReport {
        fairness: jain_fairness(&means),
        tenants,
        runs,
        submitted,
        completed,
        failed: submitted - completed,
        makespan,
        offered_rate: if window > 0.0 {
            submitted as f64 / window
        } else {
            0.0
        },
        goodput_rate: if makespan.as_secs_f64() > 0.0 {
            completed as f64 / makespan.as_secs_f64()
        } else {
            0.0
        },
        cost,
        trace: sink.snapshot(),
        sim: report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use faaspipe_store::{FailurePolicy, StoreError};

    fn with_admission(admission: AdmissionPolicy) -> ClusterConfig {
        let mut tenant = TenantSpec::new("t0");
        tenant.admission = admission;
        ClusterConfig::new(vec![tenant], ArrivalProcess::Trace(Vec::new()))
    }

    fn reason(cfg: &ClusterConfig) -> String {
        match validate(cfg) {
            Err(ClusterError::BadConfig { reason }) => reason,
            other => panic!("expected BadConfig, got {:?}", other),
        }
    }

    #[test]
    fn admission_limits_must_be_usable() {
        let unlimited = AdmissionPolicy::unlimited();
        assert!(validate(&with_admission(unlimited.clone())).is_ok());
        let limited = unlimited
            .clone()
            .with_max_concurrent(2)
            .with_store_ops(100.0, 100.0);
        assert!(validate(&with_admission(limited)).is_ok());

        assert!(
            reason(&with_admission(unlimited.clone().with_max_concurrent(0)))
                .contains("max_concurrent_runs must be positive")
        );
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, 0.5] {
            let store = with_admission(unlimited.clone().with_store_ops(bad, bad));
            assert!(reason(&store).contains("store_ops"), "store_ops {bad}");
            let burst = with_admission(unlimited.clone().with_store_ops(1.0, bad));
            assert!(
                reason(&burst).contains("store_ops"),
                "store_ops burst {bad}"
            );
        }
        let nan_rate = with_admission(unlimited.with_store_ops(f64::NAN, 1.0));
        assert!(reason(&nan_rate).contains("store_ops"));
    }

    /// One tenant `t0` submitting two runs one second apart, one run at
    /// a time.
    fn two_runs() -> ClusterConfig {
        let mut tenant = TenantSpec::new("t0");
        // One run at a time: a failed run that kept its slot would leave
        // the second queued forever.
        tenant.admission = AdmissionPolicy::unlimited().with_max_concurrent(1);
        let arrivals: Vec<Arrival> = (0..2u64)
            .map(|i| Arrival {
                at: SimTime::from_nanos(i * 1_000_000_000),
                tenant: 0,
            })
            .collect();
        ClusterConfig::new(vec![tenant], ArrivalProcess::Trace(arrivals))
    }

    /// [`two_runs`] with a dataset whose in-memory records overflow
    /// `isize::MAX` bytes (while its wire size still fits): every run
    /// panics, naming the count, without allocating anything.
    fn two_panicking_runs() -> ClusterConfig {
        let records = isize::MAX as usize / MethRecord::WIRE_SIZE;
        assert!(records
            .checked_mul(std::mem::size_of::<MethRecord>())
            .is_none_or(|b| b > isize::MAX as usize));
        let mut cfg = two_runs();
        cfg.physical_records = records;
        cfg
    }

    #[test]
    fn a_panicking_run_is_reported_as_failed() {
        let cfg = two_panicking_runs();
        let records = cfg.physical_records;
        let report = run_cluster(&cfg).expect("panicking runs do not fail the simulation");
        assert_eq!(report.submitted, 2);
        assert_eq!(report.failed, 2);
        assert_eq!(report.completed, 0);
        for run in &report.runs {
            let error = run
                .error
                .as_deref()
                .expect("a failed run carries its message");
            assert!(
                error.contains(&format!("cannot hold {records} records")),
                "{error}"
            );
        }
    }

    #[test]
    fn every_exit_path_frees_the_run_bucket() {
        let mut completed = two_runs();
        completed.physical_records = 2_000;
        let mut verified = completed.clone();
        verified.verify = true;
        // Every request fails, so the shuffle's first request exhausts
        // its retries and the sort stage fails.
        let mut failing = completed.clone();
        failing.store = failing
            .store
            .with_failure(FailurePolicy::with_error_rate(1.0));
        let cases = [
            ("completed", completed, true),
            ("completed and verified", verified, true),
            ("failed", failing, false),
            ("panicked", two_panicking_runs(), false),
        ];
        for (case, cfg, ok) in cases {
            let (report, store) = simulate(&cfg).expect("the simulation runs");
            assert_eq!(report.submitted, 2, "{case}");
            assert_eq!(report.completed, if ok { 2 } else { 0 }, "{case}");
            for run in &report.runs {
                let bucket = format!("{}-r{}", run.tenant, run.seq);
                let probe = store.put_untimed(&bucket, "probe", Bytes::new());
                assert!(
                    matches!(probe, Err(StoreError::NoSuchBucket { .. })),
                    "{case}: bucket {bucket} outlived its run"
                );
                if case == "failed" {
                    // The run reports the sort's store error, not the
                    // skipped encode's "dependency failed".
                    let error = run.error.as_deref().unwrap_or_default();
                    assert!(error.contains("injected"), "{case}: {error}");
                }
            }
        }
    }
}
