//! The per-layer split, measured from outside the program:
//!
//! * a *composed* pipeline run that makes the same public calls as
//!   `run_methcomp_pipeline` (synthesis, service install, staging, DAG
//!   spawn, `Sim::run`) with a host-time span around each, and must
//!   reproduce the library run's latency, bill and event count;
//! * *kernel replays*: the shuffle and METHCOMP kernels on the
//!   workload's own records at its worker count, with round-trip checks;
//! * counts read from a run's virtual-time trace.

use std::collections::BTreeMap;

use bytes::Bytes;

use faaspipe::core::executor::DagHandle;
use faaspipe::core::{
    Dag, Executor, PipelineConfig, PipelineMode, PipelineOutcome, Services, StageKind, Tracker,
};
use faaspipe::des::{Money, Sim, SimDuration, SimReport};
use faaspipe::exchange::ExchangeKind;
use faaspipe::faas::{FunctionPlatform, InvocationRecord};
use faaspipe::methcomp::codec as mc_codec;
use faaspipe::methcomp::synth::Synthesizer;
use faaspipe::methcomp::{Dataset, MethRecord};
use faaspipe::shuffle::kernel::{partition_sorted_run, scan_keys, sort_concat};
use faaspipe::shuffle::{streaming_merge, RangePartitioner, SortRecord};
use faaspipe::store::{ObjectStore, TagMetrics};
use faaspipe::trace::{critical_path, Category, Span, TraceData};
use faaspipe::vm::{VmFleet, VmRecord};

use crate::host::{HostSpans, SpanId};

/// A pipeline whose inputs are built and whose DAG is spawned, ready for
/// `Sim::run`.
pub struct Staged {
    sim: Sim,
    store: std::sync::Arc<ObjectStore>,
    faas: std::sync::Arc<FunctionPlatform>,
    fleet: VmFleet,
    handle: DagHandle,
    /// The staged input objects, in key order.
    chunks: Vec<Bytes>,
    /// CPU seconds in `Synthesizer::generate_shuffled`.
    synth_s: f64,
    /// CPU seconds installing the services and staging the input.
    stage_s: f64,
    /// CPU seconds from the first call to the spawned DAG.
    pub setup_s: f64,
}

/// What a composed run measured and produced.
#[derive(Debug, Clone)]
pub struct Composed {
    /// CPU seconds of synthesis.
    pub synth_s: f64,
    /// CPU seconds of service install plus staging.
    pub stage_s: f64,
    /// CPU seconds of everything before `Sim::run`.
    pub setup_s: f64,
    /// CPU seconds inside `Sim::run`, every thread.
    pub loop_s: f64,
    /// Wall seconds inside `Sim::run`.
    pub loop_wall_s: f64,
    /// Virtual latency, first stage start to last stage end.
    pub latency: SimDuration,
    /// The run's bill.
    pub bill: Money,
    /// The simulator's own report.
    pub sim: SimReport,
    /// Store-wide request and byte counts.
    pub store: TagMetrics,
    /// Every function invocation.
    pub invocations: Vec<InvocationRecord>,
    /// Every VM provisioned.
    pub vms: Vec<VmRecord>,
    /// The staged input objects, for kernel replays.
    pub chunks: Vec<Bytes>,
}

/// Builds a pipeline's inputs and spawns its DAG, exactly as
/// `run_methcomp_pipeline` does with tracing off.
///
/// # Errors
/// A message when the store rejects the staging or the DAG is invalid.
pub fn stage(
    cfg: &PipelineConfig,
    spans: &mut HostSpans,
    parent: Option<SpanId>,
    run: u64,
) -> Result<Staged, String> {
    let setup = spans.begin("setup", parent, run);
    let install = spans.begin("store.install", Some(setup), run);
    let scale = cfg.size_scale();
    let mut sim = Sim::new();
    let store = ObjectStore::install(&mut sim, cfg.store.clone().with_size_scale(scale));
    let faas = FunctionPlatform::install(&mut sim, cfg.faas.clone());
    let fleet = VmFleet::new();
    store.create_bucket("data").map_err(|e| e.to_string())?;
    let mut stage_s = spans.end(install).cpu_s;

    let (dataset, synth) = spans.time("methcomp.synth", Some(setup), run, || {
        Synthesizer::new(cfg.seed).generate_shuffled(cfg.physical_records)
    });

    let put = spans.begin("store.stage", Some(setup), run);
    let per = dataset.records.len().div_ceil(cfg.parallelism);
    let mut chunks = Vec::new();
    for (i, records) in dataset.records.chunks(per).enumerate() {
        let data = Bytes::from(SortRecord::write_all(records));
        store
            .put_untimed("data", &format!("in/{:04}", i), data.clone())
            .map_err(|e| e.to_string())?;
        chunks.push(data);
    }
    stage_s += spans.end(put).cpu_s;

    let spawn = spans.begin("core.spawn_dag", Some(setup), run);
    let services = Services {
        store: store.clone(),
        faas: faas.clone(),
        fleet: fleet.clone(),
    };
    let mut executor = Executor::new(
        services,
        cfg.work.clone().with_size_scale(scale),
        Tracker::new(),
    );
    if let Some(params) = &cfg.plan_params {
        executor = executor.with_plan_params(params.clone());
    }
    let dag = pipeline_dag(cfg)?;
    let handle = executor.spawn_dag(&mut sim, &dag);
    spans.end(spawn);
    let setup_s = spans.end(setup).cpu_s;

    Ok(Staged {
        sim,
        store,
        faas,
        fleet,
        handle,
        chunks,
        synth_s: synth.cpu_s,
        stage_s,
        setup_s,
    })
}

/// The two-stage DAG of the paper's Figure 1, as the library builds it.
fn pipeline_dag(cfg: &PipelineConfig) -> Result<Dag, String> {
    let mut dag = Dag::new("methcomp", "data");
    let sort_kind = match cfg.mode {
        PipelineMode::PureServerless => StageKind::ShuffleSort {
            workers: cfg.workers,
            exchange: cfg.exchange,
            io_concurrency: (cfg.exchange != ExchangeKind::Auto)
                .then_some(cfg.io_concurrency.max(1)),
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
        .map_err(|e| e.to_string())?;
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
    .map_err(|e| e.to_string())?;
    Ok(dag)
}

impl Staged {
    /// Runs the simulation and assembles latency and bill as the library
    /// does.
    ///
    /// # Errors
    /// A message when the simulation or a stage fails.
    pub fn run(
        self,
        cfg: &PipelineConfig,
        spans: &mut HostSpans,
        parent: Option<SpanId>,
        run: u64,
    ) -> Result<Composed, String> {
        let Staged {
            sim,
            store,
            faas,
            fleet,
            handle,
            chunks,
            synth_s,
            stage_s,
            setup_s,
        } = self;
        let (report, looped) = spans.time("des.loop", parent, run, || sim.run());
        let report = report.map_err(|e| format!("simulation failed: {e}"))?;
        let stages = handle.ok_results()?;
        let started = stages.iter().map(|s| s.started).min();
        let finished = stages.iter().map(|s| s.finished).max();
        let latency = match (started, finished) {
            (Some(s), Some(f)) => f.saturating_duration_since(s),
            _ => return Err("the DAG produced no stages".into()),
        };
        let invocations = faas.records();
        let vms = fleet.records();
        let metrics = store.metrics();
        let bill = cfg
            .pricing
            .assemble(&invocations, &metrics, &vms, report.end_time)
            .total();
        Ok(Composed {
            synth_s,
            stage_s,
            setup_s,
            loop_s: looped.cpu_s,
            loop_wall_s: looped.wall_s,
            latency,
            bill,
            sim: report,
            store: metrics.total(),
            invocations,
            vms,
            chunks,
        })
    }
}

impl Composed {
    /// Checks that this run reproduced the library run.
    ///
    /// # Errors
    /// Names the first of latency, bill and event count that differs.
    pub fn matches(&self, lib: &PipelineOutcome) -> Result<(), String> {
        if self.latency != lib.latency {
            return Err(format!(
                "composed latency {} != library {}",
                self.latency, lib.latency
            ));
        }
        if self.bill != lib.cost.total() {
            return Err(format!(
                "composed bill {} != library {}",
                self.bill,
                lib.cost.total()
            ));
        }
        if self.sim.events != lib.sim.events {
            return Err(format!(
                "composed events {} != library {}",
                self.sim.events, lib.sim.events
            ));
        }
        Ok(())
    }
}

/// CPU seconds and bytes of one kernel replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTimes {
    /// Record wire bytes each kernel processed.
    pub bytes: u64,
    /// `sort_concat` over all chunks.
    pub sort_s: f64,
    /// `partition_sorted_run` over every mapper's slice.
    pub partition_s: f64,
    /// `streaming_merge` for every reducer.
    pub merge_s: f64,
    /// `methcomp::codec::compress` of every reducer output.
    pub compress_s: f64,
    /// `methcomp::codec::decompress` of every archive.
    pub decompress_s: f64,
    /// bedMethyl text bytes of the archived records.
    pub text_bytes: u64,
    /// Archive bytes.
    pub archive_bytes: u64,
}

impl std::ops::AddAssign for KernelTimes {
    fn add_assign(&mut self, k: KernelTimes) {
        self.bytes += k.bytes;
        self.sort_s += k.sort_s;
        self.partition_s += k.partition_s;
        self.merge_s += k.merge_s;
        self.compress_s += k.compress_s;
        self.decompress_s += k.decompress_s;
        self.text_bytes += k.text_bytes;
        self.archive_bytes += k.archive_bytes;
    }
}

/// Replays the shuffle and codec kernels on `chunks` at `width` mappers
/// and reducers: sort everything, range-partition each mapper's slice,
/// merge each reducer's runs, and encode and decode each reducer's
/// output.
///
/// # Errors
/// A message when a kernel fails, the merged output is not the sorted
/// input, or an archive does not decode to its records.
pub fn replay_kernels(
    chunks: &[Bytes],
    width: usize,
    spans: &mut HostSpans,
    parent: Option<SpanId>,
    run: u64,
) -> Result<KernelTimes, String> {
    let rec = MethRecord::WIRE_SIZE;
    let width = width.max(1);
    let input: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
    let mut times = KernelTimes {
        bytes: input.len() as u64,
        ..KernelTimes::default()
    };

    let (sorted, took) = spans.time("shuffle.sort", parent, run, || {
        sort_concat::<MethRecord>(chunks)
    });
    times.sort_s = took.cpu_s;
    let sorted = sorted.map_err(|e| format!("sort_concat: {e}"))?;
    check_sorted(&sorted, input.len())?;

    let mut keys = Vec::with_capacity(input.len() / rec);
    scan_keys::<MethRecord>(&input, |k| keys.push(k)).map_err(|e| e.to_string())?;
    let partitioner = RangePartitioner::from_sample(keys, width);
    let input = Bytes::from(input);
    let per = (input.len() / rec).div_ceil(width).max(1) * rec;
    let slices: Vec<Bytes> = (0..input.len())
        .step_by(per)
        .map(|at| input.slice(at..(at + per).min(input.len())))
        .collect();

    let (runs, took) = spans.time("shuffle.partition", parent, run, || {
        slices
            .iter()
            .map(|s| {
                partition_sorted_run::<MethRecord>(std::slice::from_ref(s), width, |k| {
                    partitioner.part(k)
                })
            })
            .collect::<Result<Vec<_>, _>>()
    });
    times.partition_s = took.cpu_s;
    let runs = runs.map_err(|e| format!("partition_sorted_run: {e}"))?;

    let mut inbox: Vec<Vec<Bytes>> = vec![Vec::new(); width];
    for (data, cuts) in runs {
        let data = Bytes::from(data);
        for (part, off, len) in cuts {
            inbox[part as usize].push(data.slice(off as usize..(off + len) as usize));
        }
    }
    let (merged, took) = spans.time("shuffle.merge", parent, run, || {
        inbox
            .iter()
            .map(|runs| streaming_merge::<MethRecord>(runs))
            .collect::<Result<Vec<_>, _>>()
    });
    times.merge_s = took.cpu_s;
    let merged = merged.map_err(|e| format!("streaming_merge: {e}"))?;
    if merged.concat() != sorted {
        return Err("merged reducer outputs are not the sorted input".into());
    }

    let outputs: Vec<Dataset> = merged
        .iter()
        .filter(|m| !m.is_empty())
        .map(|m| MethRecord::read_all(m).map(Dataset::new))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let (archives, took) = spans.time("methcomp.compress", parent, run, || {
        outputs.iter().map(mc_codec::compress).collect::<Vec<_>>()
    });
    times.compress_s = took.cpu_s;
    let (decoded, took) = spans.time("methcomp.decompress", parent, run, || {
        archives
            .iter()
            .map(|a| mc_codec::decompress(a))
            .collect::<Result<Vec<_>, _>>()
    });
    times.decompress_s = took.cpu_s;
    let decoded = decoded.map_err(|e| format!("decompress: {e}"))?;
    for (i, (out, back)) in outputs.iter().zip(&decoded).enumerate() {
        if out.records != back.records {
            return Err(format!("archive {i} does not round-trip"));
        }
        times.text_bytes += out.to_text().len() as u64;
    }
    times.archive_bytes = archives.iter().map(|a| a.len() as u64).sum();
    Ok(times)
}

fn check_sorted(data: &[u8], expect_len: usize) -> Result<(), String> {
    if data.len() != expect_len {
        return Err(format!(
            "sorted output has {} bytes, input {}",
            data.len(),
            expect_len
        ));
    }
    let mut prev = None;
    let mut ordered = true;
    scan_keys::<MethRecord>(data, |k| {
        ordered &= prev.as_ref().is_none_or(|p| *p <= k);
        prev = Some(k);
    })
    .map_err(|e| e.to_string())?;
    if ordered {
        Ok(())
    } else {
        Err("sorted output is out of order".into())
    }
}

/// Counts read from a virtual-time trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCounts {
    /// Spans recorded.
    pub spans: u64,
    /// `Flow` spans: modelled transfers.
    pub flows: u64,
    /// Peak of the `store.inflight_flows` gauge.
    pub peak_inflight_flows: f64,
    /// Peak of the `faas.queued_invocations` gauge.
    pub peak_queued: f64,
    /// `Planner` spans: planner decisions.
    pub planner: u64,
    /// `Invocation` spans.
    pub invocations: u64,
    /// Function cold starts: `ColdStart` spans on the `faas` track (VM
    /// and relay provisioning excluded).
    pub cold_starts: u64,
    /// Function warm starts: `WarmStart` spans on the `faas` track.
    pub warm_starts: u64,
    /// `VmTask` spans: VMs provisioned.
    pub vm_instances: u64,
    /// Sum of `VmTask` durations (request to release), seconds.
    pub vm_billed_s: f64,
    /// Critical-path buckets summed over the trace's runs, seconds:
    /// compute, store I/O, cold start, queueing, other.
    pub critical_path_s: [f64; 5],
}

/// Counts of several runs' traces: sums, and the highest peaks.
impl std::ops::AddAssign for TraceCounts {
    fn add_assign(&mut self, o: TraceCounts) {
        self.spans += o.spans;
        self.flows += o.flows;
        self.peak_inflight_flows = self.peak_inflight_flows.max(o.peak_inflight_flows);
        self.peak_queued = self.peak_queued.max(o.peak_queued);
        self.planner += o.planner;
        self.invocations += o.invocations;
        self.cold_starts += o.cold_starts;
        self.warm_starts += o.warm_starts;
        self.vm_instances += o.vm_instances;
        self.vm_billed_s += o.vm_billed_s;
        for (slot, v) in self.critical_path_s.iter_mut().zip(o.critical_path_s) {
            *slot += v;
        }
    }
}

/// Reads [`TraceCounts`] from `data`. Critical paths are computed per
/// run: spans are grouped under their run by ancestry (a cluster parents
/// a run's stage spans to nothing, so a stage root named
/// `{tenant}/r{seq}/{stage}` joins the run `{tenant}/r{seq}`).
pub fn trace_counts(data: &TraceData) -> TraceCounts {
    let mut c = TraceCounts {
        spans: data.spans.len() as u64,
        ..TraceCounts::default()
    };
    let gauge_peak = |name| data.counter(name).map_or(0.0, |s| s.max_value());
    c.peak_inflight_flows = gauge_peak("store.inflight_flows");
    c.peak_queued = gauge_peak("faas.queued_invocations");

    // Span ids count from 1 in creation order and a parent is created
    // before its children, so one forward pass finds every root.
    let mut root = Vec::with_capacity(data.spans.len());
    for (i, s) in data.spans.iter().enumerate() {
        let r = s
            .parent
            .and_then(|p| usize::try_from(p.as_u64()).ok())
            .filter(|&p| p >= 1 && p <= i)
            .map_or(i, |p| root[p - 1]);
        root.push(r);
        match s.category {
            Category::Flow => c.flows += 1,
            Category::Planner => c.planner += 1,
            Category::Invocation => c.invocations += 1,
            Category::WarmStart if s.track == "faas" => c.warm_starts += 1,
            Category::ColdStart if s.track == "faas" => c.cold_starts += 1,
            Category::VmTask => {
                c.vm_instances += 1;
                c.vm_billed_s += s.duration().map_or(0.0, |d| d.as_secs_f64());
            }
            _ => {}
        }
    }

    // A run span keys its group by name; a root stage span joins the
    // run its name is prefixed with.
    let mut groups: BTreeMap<&str, Vec<Span>> = BTreeMap::new();
    for s in data.spans.iter().filter(|s| s.category == Category::Run) {
        groups.entry(s.name.as_str()).or_default();
    }
    for (i, s) in data.spans.iter().enumerate() {
        let top = &data.spans[root[i]];
        let key = match top.category {
            Category::Run => Some(top.name.as_str()),
            Category::Stage => top.name.rsplit_once('/').map(|(run, _)| run),
            _ => None,
        };
        if let Some(group) = key.and_then(|k| groups.get_mut(k)) {
            group.push(s.clone());
        }
    }
    for spans in groups.into_values() {
        let one = TraceData {
            spans,
            counters: Vec::new(),
        };
        if let Some(b) = critical_path(&one) {
            for (slot, (_, d)) in c.critical_path_s.iter_mut().zip(b.buckets()) {
                *slot += d.as_secs_f64();
            }
        }
    }
    c
}
