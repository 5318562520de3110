//! The paper's two METHCOMP pipeline incarnations (Figure 1) and the
//! Table-1 measurement harness.
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

use std::fmt;

use bytes::Bytes;

use faaspipe_des::{Money, Sim, SimDuration, SimError, SimReport, SimTime};
use faaspipe_exchange::ExchangeKind;
use faaspipe_faas::{FaasConfig, FunctionPlatform};
use faaspipe_methcomp::codec as mc_codec;
use faaspipe_methcomp::synth::Synthesizer;
use faaspipe_methcomp::{Dataset, MethRecord};
use faaspipe_shuffle::{SortConfig, SortRecord, WorkModel};
use faaspipe_store::{ObjectStore, StoreConfig};
use faaspipe_trace::{Category, SpanId, TraceData, TraceSink};
use faaspipe_vm::{VmFleet, VmProfile};

use crate::dag::{Dag, EncodeCodec, StageKind, WorkerChoice};
use crate::executor::{Executor, Services, StageResult};
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
        let physical = (self.physical_records * MethRecord::WIRE_SIZE) as f64;
        self.modeled_bytes as f64 / physical
    }
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
    /// Per-stage results in execution order.
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

/// Runs one METHCOMP pipeline measurement end to end.
///
/// # Errors
/// [`PipelineError`] on invalid configuration, stage failures,
/// simulation errors, or (with `verify`) output mismatches.
pub fn run_methcomp_pipeline(cfg: &PipelineConfig) -> Result<PipelineOutcome, PipelineError> {
    if cfg.parallelism == 0 || cfg.physical_records == 0 {
        return Err(PipelineError::BadConfig {
            reason: "parallelism and physical_records must be positive".to_string(),
        });
    }
    let scale = cfg.size_scale();
    let mut sim = Sim::new();
    let store = ObjectStore::install(&mut sim, cfg.store.clone().with_size_scale(scale));
    let faas = FunctionPlatform::install(&mut sim, cfg.faas.clone());
    let fleet = VmFleet::new();
    store
        .create_bucket("data")
        .map_err(|e| PipelineError::BadConfig {
            reason: e.to_string(),
        })?;

    // Stage the input dataset (already "in COS" when the pipeline starts).
    let dataset = Synthesizer::new(cfg.seed).generate_shuffled(cfg.physical_records);
    let per = dataset.records.len().div_ceil(cfg.parallelism);
    for (i, chunk) in dataset.records.chunks(per).enumerate() {
        let data = SortRecord::write_all(chunk);
        store
            .put_untimed("data", &format!("in/{:04}", i), Bytes::from(data))
            .map_err(|e| PipelineError::BadConfig {
                reason: e.to_string(),
            })?;
    }

    // Build the two-stage DAG of Figure 1. When tracing, every service
    // records into one shared sink under a root Run span; otherwise the
    // services keep their default disabled sinks and only the tracker's
    // private sink (for the rendered log) is live.
    let sink = if cfg.trace {
        TraceSink::recording()
    } else {
        TraceSink::disabled()
    };
    let run = if cfg.trace {
        let run = sink.span_start(
            Category::Run,
            "methcomp",
            "driver",
            "driver",
            SpanId::NONE,
            SimTime::ZERO,
        );
        sink.attr(run, "mode", cfg.mode.to_string());
        sink.attr(run, "seed", cfg.seed);
        store.set_trace_sink(sink.clone());
        faas.set_trace_sink(sink.clone());
        fleet.set_trace_sink(sink.clone());
        run
    } else {
        SpanId::NONE
    };
    let tracker = if cfg.trace {
        Tracker::with_sink(sink.clone(), run)
    } else {
        Tracker::new()
    };
    let services = Services {
        store: store.clone(),
        faas: faas.clone(),
        fleet: fleet.clone(),
    };
    let work = cfg.work.clone().with_size_scale(scale);
    let mut executor = Executor::new(services, work, tracker.clone());
    if let Some(params) = &cfg.plan_params {
        executor = executor.with_plan_params(params.clone());
    }
    let mut dag = Dag::new("methcomp", "data");
    let sort_kind = match cfg.mode {
        PipelineMode::PureServerless => StageKind::ShuffleSort {
            workers: cfg.workers,
            exchange: cfg.exchange,
            // Under `auto` the planner owns the I/O window; an explicit
            // backend keeps the configured one.
            io_concurrency: if cfg.exchange == ExchangeKind::Auto {
                None
            } else {
                Some(cfg.io_concurrency.max(1))
            },
            input: "in/".into(),
            output: "sorted/".into(),
        },
        PipelineMode::VmHybrid => StageKind::VmSort {
            profile: cfg.vm_profile.clone(),
            runs: cfg.parallelism,
            input: "in/".into(),
            output: "sorted/".into(),
        },
    };
    dag.add_stage("sort", sort_kind, &[])
        .map_err(|e| PipelineError::BadConfig {
            reason: e.to_string(),
        })?;
    dag.add_stage(
        "encode",
        StageKind::Encode {
            codec: cfg.encode_codec,
            workers: cfg.parallelism,
            input: "sorted/".into(),
            output: "enc/".into(),
        },
        &["sort"],
    )
    .map_err(|e| PipelineError::BadConfig {
        reason: e.to_string(),
    })?;

    let handle = executor.spawn_dag(&mut sim, &dag);
    let report = sim.run()?;
    sink.span_end(run, report.end_time);
    let mut stages = handle
        .ok_results()
        .map_err(|message| PipelineError::Stage { message })?;
    stages.sort_by_key(|s| s.started);

    // Latency: first stage start to last stage end (includes startups).
    let started = stages
        .iter()
        .map(|s| s.started)
        .min()
        .expect("stages exist");
    let finished = stages
        .iter()
        .map(|s| s.finished)
        .max()
        .expect("stages exist");
    let latency = finished.saturating_duration_since(started);

    let cost = cfg.pricing.assemble(
        &faas.records(),
        &store.metrics(),
        &fleet.records(),
        report.end_time,
    );
    let sort_workers = stages
        .iter()
        .find(|s| s.stage == "sort")
        .map_or(0, |s| s.workers_used);
    let physical_out: u64 = stages
        .iter()
        .find(|s| s.stage == "encode")
        .map_or(0, |s| s.output_bytes);

    // Verification + compression accounting on the physical data.
    let (verified, text_bytes, archive_bytes) = if cfg.verify {
        let (text_bytes, archive_bytes) = verify_outputs(&store, dataset, cfg.encode_codec)?;
        (true, text_bytes, archive_bytes)
    } else {
        (false, 0, 0)
    };

    Ok(PipelineOutcome {
        mode: cfg.mode,
        latency,
        cost,
        stages,
        sort_workers,
        modeled_input_bytes: cfg.modeled_bytes,
        modeled_output_bytes: (physical_out as f64 * scale) as u64,
        compression_ratio_text: if archive_bytes > 0 {
            text_bytes as f64 / archive_bytes as f64
        } else {
            0.0
        },
        verified,
        tracker_log: tracker.render(),
        trace: sink.snapshot(),
        sim: report,
    })
}

/// Checks the outputs in bucket `data` against the input `expect`: the
/// sorted runs, in key order, concatenate to `expect` sorted, and each
/// run's archive decodes back to the run. Returns the bedMethyl text
/// bytes and the archive bytes. Makes no copy of the dataset: each run is
/// compared with its slice of the sorted input as it is read.
fn verify_outputs(
    store: &ObjectStore,
    mut expect: Dataset,
    codec: EncodeCodec,
) -> Result<(usize, usize), PipelineError> {
    let fail = |message: String| PipelineError::Verification { message };
    expect.sort();
    let run_keys = store.keys_untimed("data", "sorted/");
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
            .peek("data", key)
            .ok_or_else(|| fail(format!("missing sorted run {}", j)))?;
        let records: Vec<MethRecord> = SortRecord::read_all(&run)
            .map_err(|e| fail(format!("sorted run {} corrupt: {}", j, e)))?;
        let archive = store
            .peek("data", &format!("enc/{}", j))
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
        match verify_outputs(store, input.clone(), EncodeCodec::Methcomp) {
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
