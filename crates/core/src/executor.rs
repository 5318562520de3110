//! Executes a workflow DAG over the simulated cloud.
//!
//! One driver process per stage: each joins its dependencies' drivers,
//! runs the stage (a gang of function invocations, or a VM task), and
//! publishes a [`StageResult`]. Independent stages overlap naturally.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use faaspipe_des::{Ctx, LocalBoxFuture, ProcessId, Sim, SimTime};
use faaspipe_exchange::{
    DataExchange, DirectConfig, DirectExchange, ExchangeKind, RelayConfig, ShardedRelayConfig,
    ShardedRelayExchange,
};
use faaspipe_faas::{FaasConfig, FunctionEnv, FunctionPlatform};
use faaspipe_methcomp::{codec as mc_codec, Dataset, MethRecord};
use faaspipe_plan::{ModelParams, Plan, Planner, PriceBook, SearchSpace, Workload};
use faaspipe_shuffle::sort::DRIVER_ORCHESTRATION;
use faaspipe_shuffle::{serverless_sort, vm_sort, SortConfig, SortRecord, VmSortConfig, WorkModel};
use faaspipe_store::{ObjectStore, StoreConfig};
use faaspipe_trace::{Category, TraceSink};
use faaspipe_vm::VmFleet;

use crate::dag::{Dag, EncodeCodec, Stage, StageKind, WorkerChoice};
use crate::tracker::Tracker;

/// The simulated cloud services a workflow runs on.
#[derive(Clone)]
pub struct Services {
    /// Object storage.
    pub store: Arc<ObjectStore>,
    /// Functions platform.
    pub faas: Arc<FunctionPlatform>,
    /// VM fleet.
    pub fleet: VmFleet,
}

impl Services {
    /// Installs the object store, then the functions platform, into
    /// `sim`, beside an empty VM fleet: the services every run starts
    /// from.
    pub fn install(sim: &mut Sim, store: StoreConfig, faas: FaasConfig) -> Services {
        Services {
            store: ObjectStore::install(sim, store),
            faas: FunctionPlatform::install(sim, faas),
            fleet: VmFleet::new(),
        }
    }

    /// Records the spans and counters of all three services into `sink`.
    pub fn set_trace_sink(&self, sink: &TraceSink) {
        self.store.set_trace_sink(sink.clone());
        self.faas.set_trace_sink(sink.clone());
        self.fleet.set_trace_sink(sink.clone());
    }
}

impl std::fmt::Debug for Services {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Services").finish_non_exhaustive()
    }
}

/// Outcome of one stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageResult {
    /// Stage name.
    pub stage: String,
    /// When the stage driver began (after dependencies).
    pub started: SimTime,
    /// When the stage finished.
    pub finished: SimTime,
    /// Workers actually used (a `workers: auto` shuffle reports the
    /// planner's pick).
    pub workers_used: usize,
    /// Real output bytes written.
    pub output_bytes: u64,
}

/// A run's stage window: the first stage's start and the last stage's
/// end. Table 1's latency is its length, startups included.
///
/// # Panics
/// Panics if `stages` is empty (a validated DAG has a stage).
pub fn stage_window(stages: &[StageResult]) -> (SimTime, SimTime) {
    let started = stages.iter().map(|s| s.started).min();
    let finished = stages.iter().map(|s| s.finished).max();
    started.zip(finished).expect("a run has stages")
}

/// Per-stage outcomes, indexed like [`Dag::stages`]; `None` until the
/// stage's driver finishes.
type ResultMap = Arc<Mutex<Vec<Option<Result<StageResult, String>>>>>;

/// Handle to a spawned workflow: join `root` (or run the sim to
/// completion) and collect results.
#[derive(Debug)]
pub struct DagHandle {
    /// The workflow root process (finishes when every stage does).
    pub root: ProcessId,
    results: ResultMap,
}

impl DagHandle {
    /// All stage results in DAG order, or the first failure in that
    /// order.
    ///
    /// # Errors
    /// The first stage error message. A failed stage comes before the
    /// dependents it skipped, so the message is the failing stage's own
    /// cause, not a dependent's "dependency failed".
    pub fn ok_results(&self) -> Result<Vec<StageResult>, String> {
        self.results.lock().iter().flatten().cloned().collect()
    }
}

/// The workflow root process: finishes when every stage driver has.
fn root_driver(pids: Vec<ProcessId>) -> impl FnOnce(Ctx) -> LocalBoxFuture<'static, ()> {
    move |ctx: Ctx| -> LocalBoxFuture<'static, ()> {
        Box::pin(async move {
            for pid in pids {
                let _ = ctx.join(pid).await;
            }
        })
    }
}

/// The ceiling on the worker count a `workers: auto` stage plans.
pub const DEFAULT_MAX_AUTO_WORKERS: usize = 64;

/// Workflow executor. Construct once per simulation.
#[derive(Debug, Clone)]
pub struct Executor {
    /// The cloud services.
    pub services: Services,
    /// CPU-work calibration (share the store's size scale).
    pub work: WorkModel,
    /// Job tracker receiving progress events.
    pub tracker: Tracker,
    /// Default per-function I/O window for shuffle stages that don't
    /// pin one (`StageKind::ShuffleSort::io_concurrency`). `1` keeps one
    /// request in flight per function.
    pub io_concurrency: usize,
    /// Calibrated model parameters for `--exchange auto` planning.
    /// `None` derives parameters from the service configurations and
    /// [`Executor::pricing`] at plan time ([`ModelParams::from_configs`]);
    /// supplied parameters keep the prices they were derived with.
    pub plan_params: Option<ModelParams>,
    /// The price book the planner prices a plan with: the book the run
    /// is billed with.
    pub pricing: PriceBook,
}

impl Executor {
    /// Creates an executor with the given services and work model. It
    /// plans with the default [`PriceBook`] until
    /// [`Executor::with_pricing`] supplies the run's.
    pub fn new(services: Services, work: WorkModel, tracker: Tracker) -> Executor {
        Executor {
            services,
            work,
            tracker,
            io_concurrency: SortConfig::default().io_concurrency,
            plan_params: None,
            pricing: PriceBook::default(),
        }
    }

    /// Sets the price book plans are priced with (see
    /// [`Executor::pricing`]).
    #[must_use]
    pub fn with_pricing(mut self, pricing: PriceBook) -> Executor {
        self.pricing = pricing;
        self
    }

    /// Sets the default shuffle I/O window (see
    /// [`Executor::io_concurrency`]).
    #[must_use]
    pub fn with_io_concurrency(mut self, io_concurrency: usize) -> Executor {
        self.io_concurrency = io_concurrency.max(1);
        self
    }

    /// Supplies calibrated model parameters for `--exchange auto`
    /// planning (see [`Executor::plan_params`]).
    #[must_use]
    pub fn with_plan_params(mut self, params: ModelParams) -> Executor {
        self.plan_params = Some(params);
        self
    }

    /// Spawns the workflow's driver processes into `sim`. Run the sim to
    /// execute; inspect the returned handle afterwards.
    ///
    /// # Panics
    /// Panics if the DAG fails validation (construct via [`Dag::add_stage`]
    /// to make that impossible).
    pub fn spawn_dag(&self, sim: &mut Sim, dag: &Dag) -> DagHandle {
        dag.validate().expect("DAG must be valid");
        let results: ResultMap = Arc::new(Mutex::new(vec![None; dag.len()]));
        let mut pids = Vec::with_capacity(dag.len());
        for idx in 0..dag.len() {
            let (name, body) = self.stage_driver(dag, idx, &pids, &results);
            pids.push(sim.spawn(name, body));
        }
        let root = sim.spawn("workflow:root", root_driver(pids));
        DagHandle { root, results }
    }

    /// Like [`Executor::spawn_dag`], but launched from *inside* a running
    /// simulation — the caller is a live process (a cluster's per-run
    /// driver) and the DAG starts at the current virtual time.
    /// `ctx.join(handle.root)` to rendezvous with completion.
    ///
    /// # Panics
    /// Panics if the DAG fails validation.
    pub async fn spawn_dag_in(&self, ctx: &Ctx, dag: &Dag) -> DagHandle {
        dag.validate().expect("DAG must be valid");
        let results: ResultMap = Arc::new(Mutex::new(vec![None; dag.len()]));
        let mut pids = Vec::with_capacity(dag.len());
        for idx in 0..dag.len() {
            let (name, body) = self.stage_driver(dag, idx, &pids, &results);
            pids.push(ctx.spawn(name, body).await);
        }
        let root = ctx.spawn("workflow:root", root_driver(pids)).await;
        DagHandle { root, results }
    }

    /// The driver process of stage `idx`, given the driver pids of the
    /// stages before it: joins its dependencies' drivers, runs the stage,
    /// and records its [`StageResult`] in `results`.
    fn stage_driver(
        &self,
        dag: &Dag,
        idx: usize,
        pids: &[ProcessId],
        results: &ResultMap,
    ) -> (
        String,
        impl FnOnce(Ctx) -> LocalBoxFuture<'static, ()> + 'static,
    ) {
        let stage = dag.stages()[idx].clone();
        // The planner's makespan objective extends through any encode
        // stage fed by this one: a wide shuffle that leaves the encode
        // gang more runs than workers is not actually faster.
        let downstream_encode: usize = dag
            .stages()
            .iter()
            .filter(|s| s.deps.iter().any(|d| d.0 == idx))
            .filter_map(|s| match &s.kind {
                StageKind::Encode { workers, .. } => Some(*workers),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        // (index, driver pid, name) of every dependency.
        let deps: Vec<(usize, ProcessId, String)> = stage
            .deps
            .iter()
            .map(|d| (d.0, pids[d.0], dag.stages()[d.0].name.clone()))
            .collect();
        let bucket = dag.bucket.clone();
        let exec = self.clone();
        let results = Arc::clone(results);
        let name = format!("stage:{}", stage.name);
        let body = move |mut ctx: Ctx| -> LocalBoxFuture<'static, ()> {
            Box::pin(async move {
                let ctx = &mut ctx;
                // Wait for dependencies; skip if any failed.
                for (_, pid, name) in &deps {
                    if ctx.join(*pid).await.is_err() {
                        results.lock()[idx] =
                            Some(Err(format!("dependency driver '{}' crashed", name)));
                        return;
                    }
                }
                let failed = deps
                    .iter()
                    .find(|(dep, _, _)| !matches!(results.lock()[*dep], Some(Ok(_))));
                if let Some((_, _, name)) = failed {
                    results.lock()[idx] = Some(Err(format!("dependency '{}' failed", name)));
                    return;
                }
                exec.tracker.stage_start(ctx, &stage.name);
                let started = ctx.now();
                let outcome = exec
                    .run_stage(ctx, &bucket, &stage, downstream_encode)
                    .await;
                exec.tracker.stage_end(ctx, &stage.name);
                let finished = ctx.now();
                let entry = outcome.map(|(workers_used, output_bytes)| StageResult {
                    stage: stage.name.clone(),
                    started,
                    finished,
                    workers_used,
                    output_bytes,
                });
                results.lock()[idx] = Some(entry);
            })
        };
        (name, body)
    }

    /// Charges one driver orchestration phase ([`DRIVER_ORCHESTRATION`]:
    /// job serialization, invoke fan-out, future polling), recording it
    /// as an [`Category::Orchestration`] span when tracing is on.
    async fn orchestrate(&self, ctx: &Ctx) {
        let trace = self.services.store.trace_sink();
        if !trace.is_enabled() {
            ctx.sleep(DRIVER_ORCHESTRATION).await;
            return;
        }
        let parent = trace.current(ctx.pid());
        let span = trace.span_start(
            Category::Orchestration,
            "orchestration",
            "driver",
            "driver",
            parent,
            ctx.now(),
        );
        ctx.sleep(DRIVER_ORCHESTRATION).await;
        trace.span_end(span, ctx.now());
    }

    async fn run_stage(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        stage: &Stage,
        downstream_encode: usize,
    ) -> Result<(usize, u64), String> {
        match &stage.kind {
            StageKind::ShuffleSort {
                workers,
                exchange,
                io_concurrency,
                input,
                output,
            } => {
                self.exec_shuffle(
                    ctx,
                    bucket,
                    &stage.name,
                    *workers,
                    *exchange,
                    *io_concurrency,
                    downstream_encode,
                    input,
                    output,
                )
                .await
            }
            StageKind::VmSort {
                profile,
                runs,
                input,
                output,
            } => {
                // Job submission overhead before the VM work starts.
                self.orchestrate(ctx).await;
                let cfg = VmSortConfig {
                    bucket: bucket.to_string(),
                    input_prefix: input.clone(),
                    output_prefix: output.clone(),
                    runs: *runs,
                    profile: profile.clone(),
                    tag: stage.name.clone(),
                    work: self.work.clone(),
                };
                let stats =
                    vm_sort::<MethRecord>(ctx, &self.services.fleet, &self.services.store, &cfg)
                        .await
                        .map_err(|e| format!("vm sort failed: {}", e))?;
                self.tracker.note(
                    ctx,
                    &stage.name,
                    format!(
                        "vm sort: provision {:.1}s, download {:.1}s, sort {:.1}s, upload {:.1}s",
                        stats.provision_duration.as_secs_f64(),
                        stats.download_duration.as_secs_f64(),
                        stats.sort_duration.as_secs_f64(),
                        stats.upload_duration.as_secs_f64()
                    ),
                );
                Ok((1, stats.output_bytes))
            }
            StageKind::Encode {
                codec,
                workers,
                input,
                output,
            } => {
                self.exec_encode(ctx, bucket, &stage.name, *codec, *workers, input, output)
                    .await
            }
        }
    }

    /// Builds the intermediate data-exchange backend a shuffle stage
    /// asked for. Object-store layouts return `None` — the sort operator
    /// constructs its default [`ObjectStoreExchange`]
    /// (faaspipe_exchange::ObjectStoreExchange) over the stage's own
    /// `part_prefix`. The relay and direct backends share the store's
    /// size scale so wire bytes stay comparable, and the relay VMs come
    /// from the executor's fleet so their billing lands in the cost
    /// report. `vm_relay` is a cold one-shard relay fleet.
    fn exchange_backend(&self, exchange: ExchangeKind) -> Option<Arc<dyn DataExchange>> {
        let scale = self.services.store.config().size_scale;
        let trace = self.services.store.trace_sink();
        match exchange {
            ExchangeKind::Scatter | ExchangeKind::Coalesced => None,
            ExchangeKind::Direct => {
                let direct = DirectExchange::new(DirectConfig {
                    keep_alive: self.services.faas.config().keep_alive,
                    size_scale: scale,
                    ..DirectConfig::default()
                })
                .with_trace(trace);
                Some(Arc::new(direct))
            }
            ExchangeKind::VmRelay | ExchangeKind::ShardedRelay { .. } => {
                let (shards, prewarm) = exchange.relay_shards().expect("a relay backend");
                let sharded = ShardedRelayExchange::new(
                    self.services.fleet.clone(),
                    ShardedRelayConfig {
                        relay: RelayConfig {
                            size_scale: scale,
                            ..RelayConfig::default()
                        },
                        shards,
                        prewarm,
                    },
                )
                .with_trace(trace);
                Some(Arc::new(sharded))
            }
            ExchangeKind::Auto => unreachable!(
                "ExchangeKind::Auto is resolved by the planner before a backend is constructed"
            ),
        }
    }

    /// Plans the open dimensions of one shuffle stage: LISTs the
    /// stage's inputs to size the [`Workload`], runs the [`Planner`]
    /// over the calibrated parameters (or config-derived defaults), and
    /// records the decision as a zero-width [`Category::Planner`] span
    /// plus a tracker note. Dimensions the spec pins (a fixed worker
    /// count, an explicit backend, an explicit `io_concurrency`)
    /// constrain the search instead of being overridden.
    #[allow(clippy::too_many_arguments)]
    async fn plan_stage(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        stage: &str,
        input: &str,
        choice: WorkerChoice,
        exchange: ExchangeKind,
        io_concurrency: Option<usize>,
        downstream_encode: usize,
    ) -> Result<Plan, String> {
        let store = &self.services.store;
        let client = store.connect(ctx, format!("{}/plan", stage)).await;
        let inputs = client
            .list(ctx, bucket, input)
            .await
            .map_err(|e| format!("plan list failed: {}", e))?;
        if inputs.is_empty() {
            return Err(format!("no shuffle inputs under '{}'", input));
        }
        let cfg = store.config();
        let data_bytes: f64 = inputs
            .iter()
            .map(|o| cfg.scaled_len(o.len.as_u64() as usize) as f64)
            .sum();
        let workload = Workload::new(data_bytes, inputs.len(), cfg.size_scale, downstream_encode);
        let params = self.plan_params.clone().unwrap_or_else(|| {
            ModelParams::from_configs(
                cfg,
                self.services.faas.config(),
                &RelayConfig::default(),
                &DirectConfig::default(),
                &self.work,
                &self.pricing,
            )
        });
        let mut space = SearchSpace::default().cap_workers(DEFAULT_MAX_AUTO_WORKERS);
        if let WorkerChoice::Fixed(n) = choice {
            space = space.pin_workers(n);
        }
        if exchange != ExchangeKind::Auto {
            space = space.pin_backend(exchange);
        }
        if let Some(k) = io_concurrency {
            space = space.pin_io(k);
        }
        let plan = Planner::new(params).with_space(space).plan(&workload);
        let trace = store.trace_sink();
        if trace.is_enabled() {
            let parent = trace.current(ctx.pid());
            let span = trace.span_start(
                Category::Planner,
                "plan",
                "driver",
                "driver",
                parent,
                ctx.now(),
            );
            trace.attr(span, "workers", plan.workers);
            trace.attr(span, "io_concurrency", plan.io_concurrency);
            trace.attr(span, "exchange", plan.exchange.to_string());
            trace.attr(span, "predicted_makespan_s", plan.predicted.makespan_s);
            trace.attr(span, "predicted_cost_dollars", plan.predicted.cost_dollars);
            trace.attr(span, "evaluated", plan.evaluated);
            trace.attr(span, "pruned", plan.pruned);
            trace.span_end(span, ctx.now());
        }
        self.tracker.note(
            ctx,
            stage,
            format!(
                "planner picked W={}, K={}, {} (predicted {:.1}s, ${:.4}; {} evaluated, {} pruned)",
                plan.workers,
                plan.io_concurrency,
                plan.exchange,
                plan.predicted.makespan_s,
                plan.predicted.cost_dollars,
                plan.evaluated,
                plan.pruned
            ),
        );
        Ok(plan)
    }

    /// Resolves a shuffle stage's knobs and runs it. A fixed worker
    /// count with an explicit backend runs as specified; `"exchange":
    /// "auto"` or `"workers": "auto"` first plans every open dimension
    /// ([`Executor::plan_stage`]). An explicit backend always runs at
    /// its pinned (or the executor's default) I/O window.
    #[allow(clippy::too_many_arguments)]
    async fn exec_shuffle(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        stage: &str,
        choice: WorkerChoice,
        exchange: ExchangeKind,
        io_concurrency: Option<usize>,
        downstream_encode: usize,
        input: &str,
        output: &str,
    ) -> Result<(usize, u64), String> {
        let (workers, exchange, io_concurrency) = match choice {
            WorkerChoice::Fixed(n) if exchange != ExchangeKind::Auto => {
                (n, exchange, io_concurrency.unwrap_or(self.io_concurrency))
            }
            _ => {
                // An explicit backend keeps its window pinned; `auto`
                // plans the window too unless the spec pins it.
                let io_concurrency = if exchange == ExchangeKind::Auto {
                    io_concurrency
                } else {
                    Some(io_concurrency.unwrap_or(self.io_concurrency))
                };
                let plan = self
                    .plan_stage(
                        ctx,
                        bucket,
                        stage,
                        input,
                        choice,
                        exchange,
                        io_concurrency,
                        downstream_encode,
                    )
                    .await?;
                (plan.workers, plan.exchange, plan.io_concurrency)
            }
        };
        self.run_shuffle(
            ctx,
            bucket,
            stage,
            workers,
            exchange,
            io_concurrency,
            input,
            output,
        )
        .await
    }

    /// Runs the serverless sort with fully resolved knobs (the shared
    /// tail of the explicit and planned shuffle paths).
    #[allow(clippy::too_many_arguments)]
    async fn run_shuffle(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        stage: &str,
        workers: usize,
        exchange: ExchangeKind,
        io_concurrency: usize,
        input: &str,
        output: &str,
    ) -> Result<(usize, u64), String> {
        let cfg = SortConfig {
            workers,
            bucket: bucket.to_string(),
            input_prefix: input.to_string(),
            output_prefix: output.to_string(),
            part_prefix: format!("tmp/{}/", stage),
            tag: stage.to_string(),
            work: self.work.clone(),
            retries: 3,
            orchestration: DRIVER_ORCHESTRATION,
            exchange: exchange.layout(),
            backend: self.exchange_backend(exchange),
            task_attempts: 2,
            io_concurrency: io_concurrency.max(1),
        };
        let stats =
            serverless_sort::<MethRecord>(ctx, &self.services.faas, &self.services.store, &cfg)
                .await
                .map_err(|e| format!("serverless sort failed: {}", e))?;
        self.tracker.note(
            ctx,
            stage,
            format!(
                "shuffle: sample {:.1}s, map {:.1}s, reduce {:.1}s ({} workers)",
                stats.sample_duration.as_secs_f64(),
                stats.map_duration.as_secs_f64(),
                stats.reduce_duration.as_secs_f64(),
                stats.workers
            ),
        );
        Ok((workers, stats.output_bytes))
    }

    #[allow(clippy::too_many_arguments)]
    async fn exec_encode(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        stage: &str,
        codec: EncodeCodec,
        workers: usize,
        input: &str,
        output: &str,
    ) -> Result<(usize, u64), String> {
        self.orchestrate(ctx).await;
        let store = &self.services.store;
        let client = store.connect(ctx, format!("{}/driver", stage)).await;
        let inputs = client
            .list(ctx, bucket, input)
            .await
            .map_err(|e| format!("encode list failed: {}", e))?;
        if inputs.is_empty() {
            return Err(format!("no encode inputs under '{}'", input));
        }
        // One tag for the stage's invocations and their connections.
        let tag: Arc<str> = format!("{}/enc", stage).into();
        let mut bodies = Vec::with_capacity(workers);
        for wi in 0..workers {
            let assigned: Vec<String> = inputs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % workers == wi)
                .map(|(_, o)| o.key.clone())
                .collect();
            if assigned.is_empty() {
                continue;
            }
            let store = Arc::clone(store);
            let work = self.work.clone();
            let bucket = bucket.to_string();
            let output = output.to_string();
            let tag = Arc::clone(&tag);
            bodies.push(async move |fctx: &mut Ctx, env: FunctionEnv| {
                let client = store.connect_via(fctx, Arc::clone(&tag), &[env.nic]).await;
                let mut written = 0;
                for key in &assigned {
                    let data = client
                        .get(fctx, &bucket, key)
                        .await
                        .unwrap_or_else(|e| panic!("encode read failed: {}", e));
                    let records: Vec<MethRecord> = SortRecord::read_all(&data)
                        .unwrap_or_else(|e| panic!("encode decode failed: {}", e));
                    let dataset = Dataset::new(records);
                    // Charge the encode compute, then run the codec inline.
                    let packed = match codec {
                        EncodeCodec::Methcomp => {
                            env.compute(fctx, work.methcomp_encode_time(data.len()))
                                .await;
                            mc_codec::compress(&dataset)
                        }
                        EncodeCodec::Gzipish => {
                            env.compute(fctx, work.gzip_encode_time(data.len())).await;
                            faaspipe_codec::gzipish::compress(dataset.to_text().as_bytes())
                        }
                    };
                    // Free the records before the write yields.
                    drop(dataset);
                    written += packed.len() as u64;
                    let leaf = key.rsplit('/').next().unwrap_or(key);
                    let out_key = format!("{}{}", output, leaf);
                    client
                        .put(fctx, &bucket, &out_key, Bytes::from(packed))
                        .await
                        .unwrap_or_else(|e| panic!("encode write failed: {}", e));
                }
                written
            });
        }
        let written = self
            .services
            .faas
            .invoke_all(ctx, "encode", tag, 1, bodies)
            .await
            .map_err(|e| format!("encode task failed: {}", e))?;
        Ok((workers.min(inputs.len()), written.iter().sum()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_des::SimDuration;
    use faaspipe_faas::FaasConfig;
    use faaspipe_methcomp::synth::Synthesizer;
    use faaspipe_store::StoreConfig;
    use faaspipe_vm::VmProfile;

    fn setup(records: usize, chunks: usize) -> (Sim, Services, Dataset) {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
        let fleet = VmFleet::new();
        store.create_bucket("data").expect("bucket");
        let ds = Synthesizer::new(31).generate_shuffled(records);
        let per = ds.records.len().div_ceil(chunks);
        for (i, chunk) in ds.records.chunks(per).enumerate() {
            let data = SortRecord::write_all(chunk);
            store
                .put_untimed("data", &format!("in/{:04}", i), Bytes::from(data))
                .expect("stage input");
        }
        (sim, Services { store, faas, fleet }, ds)
    }

    fn verify_outputs(services: &Services, ds: &Dataset, runs: usize) {
        // Sorted runs concatenated must equal the sorted input; each
        // archive must decompress back to its run.
        let mut expect = ds.clone();
        expect.sort();
        let mut all = Vec::new();
        for j in 0..runs {
            let run = services
                .store
                .peek("data", &format!("sorted/{:05}", j))
                .expect("run exists");
            let mut records: Vec<MethRecord> = SortRecord::read_all(&run).expect("decode");
            let archive = services
                .store
                .peek("data", &format!("enc/{:05}", j))
                .expect("archive exists");
            let decoded = mc_codec::decompress(&archive).expect("archive decodes");
            assert_eq!(decoded.records, records, "archive {} round trip", j);
            all.append(&mut records);
        }
        assert_eq!(all, expect.records, "global sort order");
    }

    #[test]
    fn linear_methcomp_dag_runs_and_verifies() {
        let (mut sim, services, ds) = setup(6_000, 4);
        let tracker = Tracker::new();
        let exec = Executor::new(services.clone(), WorkModel::default(), tracker.clone());
        let mut dag = Dag::new("methcomp", "data");
        dag.add_stage(
            "sort",
            StageKind::ShuffleSort {
                workers: WorkerChoice::Fixed(4),
                exchange: ExchangeKind::Scatter,
                io_concurrency: None,
                input: "in/".into(),
                output: "sorted/".into(),
            },
            &[],
        )
        .expect("sort");
        dag.add_stage(
            "encode",
            StageKind::Encode {
                codec: EncodeCodec::Methcomp,
                workers: 4,
                input: "sorted/".into(),
                output: "enc/".into(),
            },
            &["sort"],
        )
        .expect("encode");
        let handle = exec.spawn_dag(&mut sim, &dag);
        sim.run().expect("sim ok");
        let results = handle.ok_results().expect("all stages ok");
        assert_eq!(results.len(), 2);
        verify_outputs(&services, &ds, 4);
        let spans = tracker.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].finished <= spans[1].started + SimDuration::from_millis(1));
    }

    #[test]
    fn vm_dag_runs_and_verifies() {
        let (mut sim, services, ds) = setup(4_000, 4);
        let exec = Executor::new(services.clone(), WorkModel::default(), Tracker::new());
        let mut dag = Dag::new("methcomp-vm", "data");
        dag.add_stage(
            "sort",
            StageKind::VmSort {
                profile: VmProfile::bx2_8x32(),
                runs: 4,
                input: "in/".into(),
                output: "sorted/".into(),
            },
            &[],
        )
        .expect("sort");
        dag.add_stage(
            "encode",
            StageKind::Encode {
                codec: EncodeCodec::Methcomp,
                workers: 4,
                input: "sorted/".into(),
                output: "enc/".into(),
            },
            &["sort"],
        )
        .expect("encode");
        let handle = exec.spawn_dag(&mut sim, &dag);
        sim.run().expect("sim ok");
        handle.ok_results().expect("all stages ok");
        verify_outputs(&services, &ds, 4);
        assert_eq!(services.fleet.records().len(), 1);
    }

    #[test]
    fn auto_workers_are_planned_with_backend_and_window_pinned() {
        let (mut sim, services, _) = setup(6_000, 4);
        let tracker = Tracker::new();
        let exec = Executor::new(services.clone(), WorkModel::default(), tracker.clone());
        let mut dag = Dag::new("auto", "data");
        dag.add_stage(
            "sort",
            StageKind::ShuffleSort {
                workers: WorkerChoice::Auto,
                exchange: ExchangeKind::Coalesced,
                io_concurrency: None,
                input: "in/".into(),
                output: "sorted/".into(),
            },
            &[],
        )
        .expect("sort");
        let handle = exec.spawn_dag(&mut sim, &dag);
        sim.run().expect("sim ok");
        let results = handle.ok_results().expect("ok");
        assert!((1..=64).contains(&results[0].workers_used));
        let log = tracker.render();
        assert!(log.contains("planner picked W="), "{}", log);
        assert!(
            log.contains("K=4, coalesced"),
            "backend and K stay pinned: {}",
            log
        );
    }

    #[test]
    fn diamond_dag_branches_run_concurrently() {
        // sort -> (encode-mc, encode-gz) both depend on sort and must
        // overlap in virtual time.
        let (mut sim, services, _) = setup(4_000, 4);
        let tracker = Tracker::new();
        let exec = Executor::new(services.clone(), WorkModel::default(), tracker.clone());
        let mut dag = Dag::new("diamond", "data");
        dag.add_stage(
            "sort",
            StageKind::ShuffleSort {
                workers: WorkerChoice::Fixed(4),
                exchange: ExchangeKind::Coalesced,
                io_concurrency: None,
                input: "in/".into(),
                output: "sorted/".into(),
            },
            &[],
        )
        .expect("sort");
        dag.add_stage(
            "mc",
            StageKind::Encode {
                codec: EncodeCodec::Methcomp,
                workers: 4,
                input: "sorted/".into(),
                output: "enc-mc/".into(),
            },
            &["sort"],
        )
        .expect("mc");
        dag.add_stage(
            "gz",
            StageKind::Encode {
                codec: EncodeCodec::Gzipish,
                workers: 4,
                input: "sorted/".into(),
                output: "enc-gz/".into(),
            },
            &["sort"],
        )
        .expect("gz");
        let handle = exec.spawn_dag(&mut sim, &dag);
        sim.run().expect("sim ok");
        let results = handle.ok_results().expect("all stages ok");
        assert_eq!(results.len(), 3);
        let span = |name: &str| {
            results
                .iter()
                .find(|s| s.stage == name)
                .map(|s| (s.started, s.finished))
                .expect("stage ran")
        };
        let (sort_start, sort_end) = span("sort");
        let (mc_start, mc_end) = span("mc");
        let (gz_start, gz_end) = span("gz");
        assert!(sort_start < sort_end);
        assert!(
            mc_start >= sort_end && gz_start >= sort_end,
            "deps respected"
        );
        // Branches overlap: each starts before the other finishes.
        assert!(
            mc_start < gz_end && gz_start < mc_end,
            "branches must overlap"
        );
        // Both encodes produced archives for all four runs.
        assert_eq!(services.store.keys_untimed("data", "enc-mc/").len(), 4);
        assert_eq!(services.store.keys_untimed("data", "enc-gz/").len(), 4);
    }

    #[test]
    fn spawn_dag_in_launches_from_a_live_process() {
        // A cluster's per-run driver spawns the DAG mid-simulation; the
        // stages start at the driver's current virtual time, not zero.
        let (mut sim, services, ds) = setup(3_000, 2);
        let exec = Executor::new(services.clone(), WorkModel::default(), Tracker::new());
        let mut dag = Dag::new("late", "data");
        dag.add_stage(
            "sort",
            StageKind::ShuffleSort {
                workers: WorkerChoice::Fixed(2),
                exchange: ExchangeKind::Coalesced,
                io_concurrency: None,
                input: "in/".into(),
                output: "sorted/".into(),
            },
            &[],
        )
        .expect("sort");
        let results: Arc<Mutex<Vec<StageResult>>> = Arc::new(Mutex::new(Vec::new()));
        let results2 = Arc::clone(&results);
        sim.spawn("run-driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            ctx.sleep(SimDuration::from_secs(40)).await;
            let handle = exec.spawn_dag_in(ctx, &dag).await;
            ctx.join(handle.root).await.expect("workflow");
            *results2.lock() = handle.ok_results().expect("ok");
        });
        sim.run().expect("sim ok");
        let results = results.lock();
        assert_eq!(results.len(), 1);
        assert!(
            results[0].started >= SimTime::ZERO + SimDuration::from_secs(40),
            "stage must start after the driver launched it"
        );
        verify_outputs_sorted_only(&services, &ds, 2);
    }

    fn verify_outputs_sorted_only(services: &Services, ds: &Dataset, runs: usize) {
        let mut expect = ds.clone();
        expect.sort();
        let mut all = Vec::new();
        for j in 0..runs {
            let run = services
                .store
                .peek("data", &format!("sorted/{:05}", j))
                .expect("run exists");
            let mut records: Vec<MethRecord> = SortRecord::read_all(&run).expect("decode");
            all.append(&mut records);
        }
        assert_eq!(all, expect.records, "global sort order");
    }

    #[test]
    fn failed_stage_skips_dependents() {
        let (mut sim, services, _) = setup(1_000, 2);
        let tracker = Tracker::new();
        let exec = Executor::new(services.clone(), WorkModel::default(), tracker.clone());
        let mut dag = Dag::new("broken", "data");
        dag.add_stage(
            "sort",
            StageKind::ShuffleSort {
                workers: WorkerChoice::Fixed(2),
                exchange: ExchangeKind::Scatter,
                io_concurrency: None,
                input: "missing/".into(), // no such inputs
                output: "sorted/".into(),
            },
            &[],
        )
        .expect("sort");
        dag.add_stage(
            "encode",
            StageKind::Encode {
                codec: EncodeCodec::Methcomp,
                workers: 2,
                input: "sorted/".into(),
                output: "enc/".into(),
            },
            &["sort"],
        )
        .expect("encode");
        let handle = exec.spawn_dag(&mut sim, &dag);
        sim.run().expect("sim ok");
        // The error is the sort's own cause, not the skipped encode's
        // "dependency 'sort' failed".
        let err = handle.ok_results().expect_err("sort fails");
        assert!(err.contains("missing/"), "{}", err);
        // The encode stage never started.
        let started: Vec<String> = tracker.spans().into_iter().map(|s| s.stage).collect();
        assert_eq!(started, ["sort"]);
    }

    #[test]
    fn gzip_encode_stage_works() {
        let (mut sim, services, ds) = setup(3_000, 2);
        let exec = Executor::new(services.clone(), WorkModel::default(), Tracker::new());
        let mut dag = Dag::new("gz", "data");
        dag.add_stage(
            "sort",
            StageKind::ShuffleSort {
                workers: WorkerChoice::Fixed(2),
                exchange: ExchangeKind::Coalesced,
                io_concurrency: None,
                input: "in/".into(),
                output: "sorted/".into(),
            },
            &[],
        )
        .expect("sort");
        dag.add_stage(
            "encode",
            StageKind::Encode {
                codec: EncodeCodec::Gzipish,
                workers: 2,
                input: "sorted/".into(),
                output: "enc/".into(),
            },
            &["sort"],
        )
        .expect("encode");
        let handle = exec.spawn_dag(&mut sim, &dag);
        sim.run().expect("sim ok");
        handle.ok_results().expect("ok");
        // Archives decompress to the text of each sorted run.
        let mut total = 0usize;
        for j in 0..2 {
            let run = services
                .store
                .peek("data", &format!("sorted/{:05}", j))
                .expect("run");
            let records: Vec<MethRecord> = SortRecord::read_all(&run).expect("decode");
            let text = Dataset::new(records).to_text();
            let archive = services
                .store
                .peek("data", &format!("enc/{:05}", j))
                .expect("archive");
            let unpacked = faaspipe_codec::gzipish::decompress(&archive).expect("gz decodes");
            assert_eq!(unpacked, text.as_bytes());
            total += unpacked.len();
        }
        assert_eq!(total, {
            let mut sorted = ds.clone();
            sorted.sort();
            sorted.to_text().len()
        });
    }
}
