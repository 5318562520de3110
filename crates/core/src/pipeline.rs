//! The paper's two METHCOMP pipeline incarnations (Figure 1), the
//! Table-1 measurement harness, and the one run path every caller takes.
//!
//! * **Purely serverless** (paper Figure 1 "B"): Primula-style shuffle
//!   sort between cloud functions through object storage, then parallel
//!   METHCOMP encoding in functions.
//! * **VM-hybrid** (paper Figure 1 "A"): the sort runs inside a
//!   provisioned `bx2-8x32` VM; only the encode stage uses functions.
//!
//! Both run against a synthetic stand-in for the 3.5 GB ENCODE sample: a
//! physically smaller dataset whose wire sizes and compute charges are
//! scaled up to the modelled size (see `StoreConfig::size_scale` and
//! DESIGN.md §2). The data plane is real — outputs are verified to be the
//! sorted input and to decompress losslessly.
//!
//! [`run_methcomp_pipeline`] is [`Figure1::dag`] run by [`run_pipeline`],
//! which runs any workflow DAG (a JSON spec's too); a cluster run shares
//! its pieces.

use std::fmt;

use bytes::Bytes;

use faaspipe_des::{Money, Sim, SimDuration, SimError, SimReport, SimTime};
use faaspipe_exchange::ExchangeKind;
use faaspipe_faas::FaasConfig;
use faaspipe_methcomp::codec as mc_codec;
use faaspipe_methcomp::synth::Synthesizer;
use faaspipe_methcomp::{Dataset, MethRecord};
use faaspipe_shuffle::{SortConfig, SortRecord, WorkModel};
use faaspipe_store::{ObjectStore, StoreConfig, StoreError, StoreMetrics};
use faaspipe_trace::{Category, SpanId, TraceData, TraceSink};
use faaspipe_vm::VmProfile;

use crate::dag::{Dag, DagError, EncodeCodec, StageKind, WorkerChoice};
use crate::executor::{stage_window, Executor, Services, StageResult};
use crate::pricing::{CostReport, PriceBook};
use crate::tracker::Tracker;

/// Which incarnation of the pipeline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Object-storage data exchange end to end (functions only).
    PureServerless,
    /// Sort inside a VM; functions for encoding.
    VmHybrid,
}

impl fmt::Display for PipelineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineMode::PureServerless => write!(f, "\"Purely\" serverless"),
            PipelineMode::VmHybrid => write!(f, "VM-supported"),
        }
    }
}

/// Configuration of one pipeline measurement.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Which incarnation to run.
    pub mode: PipelineMode,
    /// Modelled dataset size in bytes (the paper's 3.5 GB input).
    pub modeled_bytes: u64,
    /// Physical records actually generated and moved (wire sizes and
    /// compute are scaled from these to `modeled_bytes`).
    pub physical_records: usize,
    /// Parallelism degree (paper: 8 workers).
    pub parallelism: usize,
    /// Worker policy for the serverless shuffle stage.
    pub workers: WorkerChoice,
    /// VM type for the hybrid sort.
    pub vm_profile: VmProfile,
    /// Synthetic dataset seed.
    pub seed: u64,
    /// Object-store model (size scale is set automatically).
    pub store: StoreConfig,
    /// Functions-platform model.
    pub faas: FaasConfig,
    /// CPU-work calibration (size scale is set automatically).
    pub work: WorkModel,
    /// Price book for the cost report.
    pub pricing: PriceBook,
    /// Verify outputs against the input (decode every archive).
    pub verify: bool,
    /// Intermediate data-exchange backend for the serverless shuffle
    /// (object-store scatter/coalesced, VM relay, sharded relay fleet —
    /// optionally pre-warmed — or direct streaming).
    pub exchange: ExchangeKind,
    /// Per-function I/O window for the serverless shuffle: how many
    /// store reads / exchange transfers each function keeps in flight.
    /// `1` is one request at a time (one helper per phase, the same
    /// windowed path as every other K).
    pub io_concurrency: usize,
    /// Codec for the encode stage (METHCOMP, or the gzip-class baseline
    /// for the end-to-end codec comparison).
    pub encode_codec: EncodeCodec,
    /// Calibrated model parameters for `exchange = auto` planning.
    /// `None` plans from config-derived defaults.
    pub plan_params: Option<faaspipe_plan::ModelParams>,
    /// Record a full execution trace (spans + counters) into
    /// [`PipelineOutcome::trace`]. Off by default: the disabled sink
    /// keeps instrumentation out of the hot path.
    pub trace: bool,
}

impl PipelineConfig {
    /// The paper's Table-1 setup: 3.5 GB modelled input, parallelism 8,
    /// 2 GB functions, `bx2-8x32` VM.
    pub fn paper_table1() -> PipelineConfig {
        PipelineConfig {
            mode: PipelineMode::PureServerless,
            modeled_bytes: 3_500_000_000,
            physical_records: 150_000,
            parallelism: 8,
            workers: WorkerChoice::Fixed(8),
            vm_profile: VmProfile::bx2_8x32(),
            seed: 0xE0C0_FF88,
            store: StoreConfig::default(),
            faas: FaasConfig::default(),
            work: WorkModel::default(),
            pricing: PriceBook::default(),
            verify: true,
            exchange: ExchangeKind::Scatter,
            io_concurrency: SortConfig::default().io_concurrency,
            encode_codec: EncodeCodec::Methcomp,
            plan_params: None,
            trace: false,
        }
    }

    /// The scale factor mapping physical wire bytes to modelled bytes.
    pub fn size_scale(&self) -> f64 {
        size_scale(self.modeled_bytes, self.physical_records)
    }

    /// This configuration's Figure-1 pipeline shape.
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

/// The scale factor that maps the wire bytes of `physical_records`
/// records to `modeled_bytes`: every wire size and compute charge of a
/// run is multiplied by it.
pub fn size_scale(modeled_bytes: u64, physical_records: usize) -> f64 {
    let physical = (physical_records * MethRecord::WIRE_SIZE) as f64;
    modeled_bytes as f64 / physical
}

/// The shape of the paper's Figure-1 pipeline, as a [`PipelineConfig`]
/// or a cluster tenant declares it: a sort stage (a serverless shuffle,
/// or a sort inside a VM) feeding an encode stage.
#[derive(Debug, Clone, Copy)]
pub struct Figure1<'a> {
    /// Which incarnation: the shuffle in functions, or the sort in a VM.
    pub mode: PipelineMode,
    /// Sorted runs of the VM sort, and encode workers.
    pub parallelism: usize,
    /// Worker policy for the serverless shuffle.
    pub workers: WorkerChoice,
    /// Exchange backend of the serverless shuffle.
    pub exchange: ExchangeKind,
    /// I/O window of the serverless shuffle (unused under `auto`).
    pub io_concurrency: usize,
    /// Codec of the encode stage.
    pub encode_codec: EncodeCodec,
    /// VM type of the hybrid sort.
    pub vm_profile: &'a VmProfile,
}

impl Figure1<'_> {
    /// The two-stage DAG `name` in `bucket`: `{stage_prefix}sort` reads
    /// `in/` and writes `sorted/`, then `{stage_prefix}encode` writes
    /// `enc/`.
    ///
    /// # Errors
    /// [`DagError`] when a stage parameter is invalid (zero workers, say).
    pub fn dag(
        &self,
        name: impl Into<String>,
        bucket: impl Into<String>,
        stage_prefix: &str,
    ) -> Result<Dag, DagError> {
        let sort_kind = match self.mode {
            PipelineMode::PureServerless => StageKind::ShuffleSort {
                workers: self.workers,
                exchange: self.exchange,
                // Under `auto` the planner owns the I/O window; an explicit
                // backend keeps the configured one.
                io_concurrency: (self.exchange != ExchangeKind::Auto)
                    .then_some(self.io_concurrency.max(1)),
                input: "in/".into(),
                output: "sorted/".into(),
            },
            PipelineMode::VmHybrid => StageKind::VmSort {
                profile: self.vm_profile.clone(),
                runs: self.parallelism,
                input: "in/".into(),
                output: "sorted/".into(),
            },
        };
        let encode_kind = StageKind::Encode {
            codec: self.encode_codec,
            workers: self.parallelism,
            input: "sorted/".into(),
            output: "enc/".into(),
        };
        let sort = format!("{stage_prefix}sort");
        let mut dag = Dag::new(name, bucket);
        dag.add_stage(sort.as_str(), sort_kind, &[])?;
        dag.add_stage(
            format!("{stage_prefix}encode"),
            encode_kind,
            &[sort.as_str()],
        )?;
        Ok(dag)
    }
}

/// Creates `bucket` and stages `records` in it untimed, as the objects
/// `{prefix}0000`, `{prefix}0001`, … of `records.len().div_ceil(parts)`
/// records each: the input a pipeline finds in object storage when it
/// starts.
///
/// # Errors
/// [`StoreError`] when the bucket already exists.
///
/// # Panics
/// Panics if `parts` is zero.
pub fn stage_input(
    store: &ObjectStore,
    bucket: &str,
    prefix: &str,
    records: &[MethRecord],
    parts: usize,
) -> Result<(), StoreError> {
    store.create_bucket(bucket)?;
    let per = records.len().div_ceil(parts).max(1);
    for (i, chunk) in records.chunks(per).enumerate() {
        let data = Bytes::from(SortRecord::write_all(chunk));
        store.put_untimed(bucket, &format!("{prefix}{i:04}"), data)?;
    }
    Ok(())
}

/// Errors from a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The simulation itself failed (deadlock or unobserved panic).
    Sim(SimError),
    /// A stage failed.
    Stage {
        /// Failure message from the stage driver.
        message: String,
    },
    /// Output verification failed.
    Verification {
        /// What did not match.
        message: String,
    },
    /// The configuration is unusable.
    BadConfig {
        /// Why.
        reason: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Sim(e) => write!(f, "simulation failed: {}", e),
            PipelineError::Stage { message } => write!(f, "stage failed: {}", message),
            PipelineError::Verification { message } => {
                write!(f, "verification failed: {}", message)
            }
            PipelineError::BadConfig { reason } => write!(f, "bad config: {}", reason),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::Sim(e)
    }
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The mode that ran.
    pub mode: PipelineMode,
    /// End-to-end latency including startup times (the Table-1 metric).
    pub latency: SimDuration,
    /// Itemized cost (the Table-1 metric).
    pub cost: CostReport,
    /// The object store's requests by tag, which the cost's request
    /// line prices.
    pub store_metrics: StoreMetrics,
    /// Per-stage results in DAG order (a stage after its dependencies).
    pub stages: Vec<StageResult>,
    /// Workers used by the shuffle stage.
    pub sort_workers: usize,
    /// Modelled input bytes.
    pub modeled_input_bytes: u64,
    /// Modelled archive bytes written by the encode stage.
    pub modeled_output_bytes: u64,
    /// Compression ratio measured on the *physical* data
    /// (bedMethyl text bytes / archive bytes).
    pub compression_ratio_text: f64,
    /// Whether outputs were verified (sorted order + lossless decode).
    pub verified: bool,
    /// Rendered tracker log.
    pub tracker_log: String,
    /// Full execution trace (empty unless [`PipelineConfig::trace`]).
    pub trace: TraceData,
    /// The simulator's own execution report: events dispatched, peak
    /// live processes — the gauges the wall-clock regression harness
    /// records alongside host timings.
    pub sim: SimReport,
}

/// Runs one METHCOMP pipeline measurement end to end: the Figure-1 DAG
/// of `cfg` through [`run_pipeline`].
///
/// # Errors
/// [`PipelineError`] on invalid configuration, stage failures,
/// simulation errors, or (with `verify`) output mismatches.
pub fn run_methcomp_pipeline(cfg: &PipelineConfig) -> Result<PipelineOutcome, PipelineError> {
    let dag = cfg
        .figure1()
        .dag("methcomp", "data", "")
        .map_err(bad_config)?;
    run_pipeline(cfg, &dag)
}

/// Runs a workflow DAG end to end on freshly installed services, with
/// `cfg.physical_records` synthesized records staged under the first
/// stage's input prefix in `cfg.parallelism` chunks. `cfg.io_concurrency`
/// is the I/O window of every shuffle stage that leaves it open; a
/// `vm_sort` stage makes the run VM-hybrid. `cfg.verify` checks the
/// outputs in Figure 1's layout (`sorted/` runs, `enc/` archives).
///
/// # Errors
/// [`PipelineError`] on invalid configuration (an empty DAG included),
/// stage failures, simulation errors, or (with `verify`) output
/// mismatches.
pub fn run_pipeline(cfg: &PipelineConfig, dag: &Dag) -> Result<PipelineOutcome, PipelineError> {
    if cfg.parallelism == 0 || cfg.physical_records == 0 {
        return Err(bad_config(
            "parallelism and physical_records must be positive",
        ));
    }
    dag.validate().map_err(bad_config)?;
    let hybrid = dag
        .stages()
        .iter()
        .any(|s| matches!(s.kind, StageKind::VmSort { .. }));
    let mode = if hybrid {
        PipelineMode::VmHybrid
    } else {
        PipelineMode::PureServerless
    };
    let scale = cfg.size_scale();
    let mut sim = Sim::new();
    let services = Services::install(
        &mut sim,
        cfg.store.clone().with_size_scale(scale),
        cfg.faas.clone(),
    );

    // Stage the input dataset (already "in COS" when the pipeline
    // starts). Only verification reads it again.
    let dataset = Synthesizer::new(cfg.seed).generate_shuffled(cfg.physical_records);
    let input = dag.stages()[0].kind.input();
    stage_input(
        &services.store,
        &dag.bucket,
        input,
        &dataset.records,
        cfg.parallelism,
    )
    .map_err(bad_config)?;
    let dataset = cfg.verify.then_some(dataset);

    // When tracing, every service records into one shared sink under a
    // root Run span; otherwise the services keep their default disabled
    // sinks and only the tracker's private sink (for the rendered log) is
    // live.
    let (sink, run, tracker) = if cfg.trace {
        let sink = TraceSink::recording();
        let run = sink.span_start(
            Category::Run,
            dag.name.as_str(),
            "driver",
            "driver",
            SpanId::NONE,
            SimTime::ZERO,
        );
        sink.attr(run, "mode", mode.to_string());
        sink.attr(run, "seed", cfg.seed);
        services.set_trace_sink(&sink);
        let tracker = Tracker::with_sink(sink.clone(), run);
        (sink, run, tracker)
    } else {
        (TraceSink::disabled(), SpanId::NONE, Tracker::new())
    };
    let work = cfg.work.clone().with_size_scale(scale);
    let mut executor = Executor::new(services, work, tracker.clone())
        .with_io_concurrency(cfg.io_concurrency)
        .with_pricing(cfg.pricing.clone());
    if let Some(params) = &cfg.plan_params {
        executor = executor.with_plan_params(params.clone());
    }
    let handle = executor.spawn_dag(&mut sim, dag);
    let report = sim.run()?;
    sink.span_end(run, report.end_time);
    let stages = handle
        .ok_results()
        .map_err(|message| PipelineError::Stage { message })?;
    let (started, finished) = stage_window(&stages);

    let Services { store, faas, fleet } = &executor.services;
    let store_metrics = store.metrics();
    let cost = cfg.pricing.assemble(
        &faas.records(),
        &store_metrics,
        &fleet.records(),
        report.end_time,
    );
    // The sort stage's workers, and the encode stage's archives (a DAG
    // without one fails verification on its first missing archive).
    let (mut sort_workers, mut physical_out, mut codec) = (0, 0, cfg.encode_codec);
    for (stage, result) in dag.stages().iter().zip(&stages) {
        match stage.kind {
            StageKind::Encode { codec: c, .. } => {
                physical_out = result.output_bytes;
                codec = c;
            }
            _ => sort_workers = result.workers_used,
        }
    }

    // Verification + compression accounting on the physical data.
    let (text_bytes, archive_bytes) = match dataset {
        Some(dataset) => verify_outputs(store, &dag.bucket, dataset, codec)?,
        None => (0, 0),
    };

    Ok(PipelineOutcome {
        mode,
        latency: finished.saturating_duration_since(started),
        cost,
        store_metrics,
        stages,
        sort_workers,
        modeled_input_bytes: cfg.modeled_bytes,
        modeled_output_bytes: (physical_out as f64 * scale) as u64,
        compression_ratio_text: if archive_bytes > 0 {
            text_bytes as f64 / archive_bytes as f64
        } else {
            0.0
        },
        verified: cfg.verify,
        tracker_log: tracker.render(),
        trace: sink.snapshot(),
        sim: report,
    })
}

fn bad_config(reason: impl fmt::Display) -> PipelineError {
    PipelineError::BadConfig {
        reason: reason.to_string(),
    }
}

/// Checks the outputs in `bucket` against the input `expect`: the
/// sorted runs, in key order, concatenate to `expect` sorted, and each
/// run's archive decodes back to the run. Returns the bedMethyl text
/// bytes and the archive bytes. Makes no copy of the dataset: each run is
/// compared with its slice of the sorted input as it is read.
fn verify_outputs(
    store: &ObjectStore,
    bucket: &str,
    mut expect: Dataset,
    codec: EncodeCodec,
) -> Result<(usize, usize), PipelineError> {
    let fail = |message: String| PipelineError::Verification { message };
    expect.sort();
    let run_keys = store.keys_untimed(bucket, "sorted/");
    if run_keys.is_empty() {
        return Err(fail("no sorted runs produced".to_string()));
    }
    let mut text_bytes = 0usize;
    let mut archive_bytes = 0usize;
    // A mismatch is reported after the loop, so a fault of a later run
    // itself (missing, corrupt, no archive) is named first.
    let mut covered = 0usize;
    let mut concatenation_matches = true;
    for key in &run_keys {
        let j = key.trim_start_matches("sorted/");
        let run = store
            .peek(bucket, key)
            .ok_or_else(|| fail(format!("missing sorted run {}", j)))?;
        let records: Vec<MethRecord> = SortRecord::read_all(&run)
            .map_err(|e| fail(format!("sorted run {} corrupt: {}", j, e)))?;
        let archive = store
            .peek(bucket, &format!("enc/{}", j))
            .ok_or_else(|| fail(format!("missing archive {}", j)))?;
        archive_bytes += archive.len();
        let corrupt = |e: &dyn fmt::Display| fail(format!("archive {} corrupt: {}", j, e));
        let round_trips = match codec {
            EncodeCodec::Methcomp => {
                let decoded = mc_codec::decompress(&archive).map_err(|e| corrupt(&e))?;
                text_bytes += decoded.text_len();
                decoded.records == records
            }
            EncodeCodec::Gzipish => {
                let text =
                    faaspipe_codec::gzipish::decompress(&archive).map_err(|e| corrupt(&e))?;
                text_bytes += text.len();
                text == Dataset::new(records.clone()).to_text().as_bytes()
            }
        };
        if !round_trips {
            return Err(fail(format!("archive {} does not round-trip", j)));
        }
        let end = covered + records.len();
        concatenation_matches &= expect.records.get(covered..end) == Some(&records[..]);
        covered = end;
    }
    if !concatenation_matches || covered != expect.records.len() {
        return Err(fail(
            "concatenated runs are not the sorted input".to_string(),
        ));
    }
    Ok((text_bytes, archive_bytes))
}

impl PipelineOutcome {
    /// The Table-1 row for this run: `(configuration, latency s, cost $)`.
    pub fn table1_row(&self) -> (String, f64, Money) {
        (
            self.mode.to_string(),
            self.latency.as_secs_f64(),
            self.cost.total(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn quick(mode: PipelineMode) -> PipelineConfig {
        let mut cfg = PipelineConfig::paper_table1();
        cfg.mode = mode;
        cfg.physical_records = 20_000;
        cfg
    }

    #[test]
    fn pure_serverless_pipeline_runs_and_verifies() {
        let outcome =
            run_methcomp_pipeline(&quick(PipelineMode::PureServerless)).expect("pipeline ok");
        assert!(outcome.verified);
        assert_eq!(outcome.stages.len(), 2);
        assert_eq!(outcome.sort_workers, 8);
        assert!(outcome.latency > SimDuration::from_secs(10));
        assert!(outcome.cost.total() > Money::ZERO);
        assert!(outcome.cost.vm == Money::ZERO, "no VM in pure mode");
        assert!(outcome.compression_ratio_text > 10.0);
        assert!(outcome.tracker_log.contains("sort"));
    }

    #[test]
    fn vm_hybrid_pipeline_runs_and_verifies() {
        let outcome = run_methcomp_pipeline(&quick(PipelineMode::VmHybrid)).expect("pipeline ok");
        assert!(outcome.verified);
        assert!(outcome.cost.vm > Money::ZERO, "VM must be billed");
        // Provisioning alone is ~52 s.
        assert!(outcome.latency > SimDuration::from_secs(52));
    }

    #[test]
    fn serverless_beats_vm_on_latency_table1_shape() {
        let pure = run_methcomp_pipeline(&quick(PipelineMode::PureServerless)).expect("pure ok");
        let hybrid = run_methcomp_pipeline(&quick(PipelineMode::VmHybrid)).expect("hybrid ok");
        assert!(
            pure.latency < hybrid.latency,
            "paper's headline: {} vs {}",
            pure.latency,
            hybrid.latency
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_methcomp_pipeline(&quick(PipelineMode::PureServerless)).expect("a");
        let b = run_methcomp_pipeline(&quick(PipelineMode::PureServerless)).expect("b");
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.cost.total(), b.cost.total());
        assert_eq!(a.modeled_output_bytes, b.modeled_output_bytes);
    }

    #[test]
    fn traced_run_records_spans_and_critical_path_tiles_makespan() {
        let mut cfg = quick(PipelineMode::VmHybrid);
        cfg.trace = true;
        let outcome = run_methcomp_pipeline(&cfg).expect("pipeline ok");
        let data = &outcome.trace;
        let run = data.run_span().expect("run span");
        assert!(run.end.is_some(), "run span must be closed");
        for cat in [
            Category::Stage,
            Category::VmTask,
            Category::Invocation,
            Category::StoreRequest,
            Category::Compute,
            Category::ColdStart,
            Category::Orchestration,
        ] {
            assert!(
                data.spans.iter().any(|s| s.category == cat),
                "missing {:?} spans",
                cat
            );
        }
        let b = faaspipe_trace::critical_path(data).expect("breakdown");
        assert_eq!(b.total(), b.makespan, "buckets must tile the makespan");
        assert_eq!(
            b.makespan,
            run.duration().expect("run duration"),
            "attribution window is the run span"
        );
        assert!(
            b.cold_start >= SimDuration::from_secs(44),
            "VM provisioning"
        );

        // Untraced runs stay empty (and cheap).
        let untraced = run_methcomp_pipeline(&quick(PipelineMode::VmHybrid)).expect("pipeline ok");
        assert!(untraced.trace.spans.is_empty());
        assert!(untraced.trace.counters.is_empty());
    }

    /// A bucket `data` holding `runs` as the sorted runs `sorted/0000j`,
    /// each with its METHCOMP archive.
    fn outputs(runs: &[&[MethRecord]]) -> Arc<ObjectStore> {
        let store = ObjectStore::install(&mut Sim::new(), StoreConfig::default());
        store.create_bucket("data").expect("bucket");
        for (j, run) in runs.iter().enumerate() {
            let sorted = Bytes::from(SortRecord::write_all(run));
            let archive = Bytes::from(mc_codec::compress(&Dataset::new(run.to_vec())));
            store
                .put_untimed("data", &format!("sorted/{j:05}"), sorted)
                .expect("run");
            store
                .put_untimed("data", &format!("enc/{j:05}"), archive)
                .expect("archive");
        }
        store
    }

    /// What [`verify_outputs`] says of `store`'s outputs for `input`.
    fn verdict(store: &ObjectStore, input: &Dataset) -> String {
        match verify_outputs(store, "data", input.clone(), EncodeCodec::Methcomp) {
            Ok(_) => "ok".to_string(),
            Err(PipelineError::Verification { message }) => message,
            Err(other) => panic!("not a verification error: {other}"),
        }
    }

    #[test]
    fn verification_rejects_outputs_that_are_not_the_sorted_input() {
        let input = Synthesizer::new(7).generate_shuffled(60);
        let mut sorted = input.clone();
        sorted.sort();
        let r = &sorted.records;
        assert_eq!(verdict(&outputs(&[&r[..20], &r[20..]]), &input), "ok");

        let mismatch = "concatenated runs are not the sorted input";
        let swapped = outputs(&[&r[20..], &r[..20]]);
        assert_eq!(verdict(&swapped, &input), mismatch);
        let short = outputs(&[&r[..20], &r[20..59]]);
        assert_eq!(verdict(&short, &input), mismatch);
        let mut longer = r.clone();
        longer.push(r[59]);
        let overrun = outputs(&[&r[..20], &longer[20..]]);
        assert_eq!(verdict(&overrun, &input), mismatch);
        assert_eq!(verdict(&outputs(&[]), &input), "no sorted runs produced");

        // A later run's own fault is named before an earlier mismatch.
        let unarchived = outputs(&[&r[20..]]);
        unarchived
            .put_untimed(
                "data",
                "sorted/00001",
                Bytes::from(SortRecord::write_all(&r[..20])),
            )
            .expect("run");
        assert_eq!(verdict(&unarchived, &input), "missing archive 00001");
    }

    #[test]
    fn bad_config_rejected() {
        let mut cfg = quick(PipelineMode::PureServerless);
        cfg.parallelism = 0;
        assert!(matches!(
            run_methcomp_pipeline(&cfg),
            Err(PipelineError::BadConfig { .. })
        ));
    }

    #[test]
    fn table1_row_shape() {
        let outcome =
            run_methcomp_pipeline(&quick(PipelineMode::PureServerless)).expect("pipeline ok");
        let (config, latency, cost) = outcome.table1_row();
        assert!(config.contains("serverless"));
        assert!(latency > 0.0);
        assert!(cost > Money::ZERO);
    }
}
