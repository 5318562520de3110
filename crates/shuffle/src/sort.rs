//! The serverless shuffle/sort operator (Primula's data path).
//!
//! ```text
//!   inputs (unsorted chunks)          intermediates              outputs
//!   in/0 in/1 ... in/N-1      part/{mapper}/{reducer}      out/0 ... out/W-1
//!        │   sample                  (W × W objects)            (sorted runs)
//!        ▼                                                        ▲
//!   W mapper functions ── local sort ── range partition ── W reducer functions
//!                     (partitions move through a DataExchange backend)
//! ```
//!
//! The all-to-all hand-off between mappers and reducers goes through a
//! pluggable [`DataExchange`] backend (see [`faaspipe_exchange`]). The
//! default is the paper's object-storage pattern: every byte of
//! intermediate data really moves through the simulated store, contending
//! for its per-connection bandwidth, aggregate backbone, and
//! operations/s budget. Alternative backends relay through a provisioned
//! VM or stream function-to-function.

use std::sync::Arc;

use bytes::Bytes;

use faaspipe_des::{Ctx, JoinError, SimDuration, SimTime};
use faaspipe_exchange::{
    windowed, with_retry, DataExchange, ExchangeEnv, ExchangeStrategy, ObjectStoreExchange,
};
use faaspipe_faas::{FunctionEnv, FunctionPlatform};
use faaspipe_store::ObjectStore;
use faaspipe_trace::{Category, SpanId, TraceSink};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::error::ShuffleError;
use crate::kernel;
use crate::partitioner::RangePartitioner;
use crate::record::SortRecord;
use crate::sampler::Reservoir;
use crate::work::WorkModel;

/// SplitMix64 finalizer — spreads small integers (mapper indices) into
/// well-mixed rng seeds.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The Lithops-style driver's orchestration overhead per execution
/// phase: job serialization and upload, invocation fan-out, and the
/// COS-polling result detection. The executor charges it at the start of
/// every phase of every stage, and the planner's config-derived model
/// assumes it. Unbilled (the driver is not a function), but on the
/// critical path.
pub const DRIVER_ORCHESTRATION: SimDuration = SimDuration::from_secs(8);

/// Bytes each sampler range-reads from the start of every input chunk.
pub const SAMPLE_BYTES: u64 = 64 * 1024;

/// Reservoir capacity of each sampler.
const SAMPLE_CAPACITY: usize = 512;

/// Seed of the samplers' reservoir draws. Each mapper derives its rng
/// from this seed and its *logical* index — never from its process id —
/// so the partition boundaries are a pure function of the input data and
/// the worker count. That keeps sorted output byte-identical across
/// exchange backends even when a backend runs helper processes (relay
/// provisioners) that perturb process-id allocation, and makes
/// re-invoked sample tasks idempotent.
const SAMPLE_SEED: u64 = 0x5A3D_5EED;

/// Configuration of one serverless sort run.
#[derive(Debug, Clone)]
pub struct SortConfig {
    /// Number of mapper functions (equal to the number of reducers) — the
    /// "number of functions in the shuffle stage" the paper tunes.
    pub workers: usize,
    /// Bucket holding inputs, intermediates, and outputs.
    pub bucket: String,
    /// Prefix of the input chunk objects (binary records).
    pub input_prefix: String,
    /// Prefix written with the sorted run objects (`{prefix}{j:05}`).
    pub output_prefix: String,
    /// Prefix for intermediate partition objects.
    pub part_prefix: String,
    /// Metrics/billing tag.
    pub tag: String,
    /// CPU-work calibration.
    pub work: WorkModel,
    /// Attempts per store request (fault-injection resilience).
    pub retries: u32,
    /// Driver-side orchestration overhead charged at the start of each
    /// phase (the executor passes [`DRIVER_ORCHESTRATION`]; zero by
    /// default).
    pub orchestration: SimDuration,
    /// Object-store layout used when `backend` is `None` (the default
    /// [`ObjectStoreExchange`] path).
    pub exchange: ExchangeStrategy,
    /// The intermediate data-exchange backend. `None` (the default)
    /// exchanges through the object store under `part_prefix` with the
    /// `exchange` layout; pass a
    /// [`ShardedRelayExchange`](faaspipe_exchange::ShardedRelayExchange)
    /// or [`DirectExchange`](faaspipe_exchange::DirectExchange) to move
    /// the shuffle off the store.
    pub backend: Option<Arc<dyn DataExchange>>,
    /// Invocation attempts per task: crashed functions are re-invoked up
    /// to this many times (Lithops-style task retry), on top of the
    /// per-request `retries`.
    pub task_attempts: u32,
    /// Concurrent transfers per function (the intra-function parallel
    /// I/O window, K). Every phase runs its requests on K helper
    /// processes: sample range-reads, mapper chunk downloads (~2·K
    /// chunks, overlapped with the sort compute), exchange writes and
    /// reducer gathers. `1` (or `0`) is one helper issuing one request
    /// at a time; wider windows give each connection its own store
    /// link, so per-function throughput climbs toward the NIC cap (or
    /// the store's aggregate cap).
    pub io_concurrency: usize,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            workers: 8,
            bucket: "data".to_string(),
            input_prefix: "in/".to_string(),
            output_prefix: "out/".to_string(),
            part_prefix: "part/".to_string(),
            tag: "sort".to_string(),
            work: WorkModel::default(),
            retries: 3,
            orchestration: SimDuration::ZERO,
            exchange: ExchangeStrategy::default(),
            backend: None,
            task_attempts: 2,
            io_concurrency: 4,
        }
    }
}

/// Outcome of a serverless sort.
#[derive(Debug, Clone)]
pub struct SortStats {
    /// Workers used.
    pub workers: usize,
    /// Total input bytes (real, unscaled).
    pub input_bytes: u64,
    /// Total output bytes (real, unscaled).
    pub output_bytes: u64,
    /// Keys of the sorted run objects, in global order.
    pub runs: Vec<String>,
    /// Virtual duration of the sampling phase.
    pub sample_duration: SimDuration,
    /// Virtual duration of the map (sort + scatter) phase.
    pub map_duration: SimDuration,
    /// Virtual duration of the reduce (gather + merge) phase.
    pub reduce_duration: SimDuration,
    /// When the operator started.
    pub started: SimTime,
    /// When the operator finished.
    pub finished: SimTime,
}

impl SortStats {
    /// Total wall-clock of the operator.
    pub fn total_duration(&self) -> SimDuration {
        self.finished.saturating_duration_since(self.started)
    }
}

/// Naive k-way merge of individually sorted runs into one sorted
/// vector. Kept as the reference implementation the streaming merge's
/// property test compares against.
#[cfg(test)]
pub(crate) fn kway_merge<R: SortRecord>(runs: Vec<Vec<R>>) -> Vec<R> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(PartialEq, Eq)]
    struct Head<K: Ord>(K, usize);
    impl<K: Ord> PartialOrd for Head<K> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<K: Ord> Ord for Head<K> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (&self.0, self.1).cmp(&(&other.0, other.1))
        }
    }

    let total: usize = runs.iter().map(Vec::len).sum();
    let mut cursors = vec![0usize; runs.len()];
    let mut heap = BinaryHeap::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        if let Some(r) = run.first() {
            heap.push(Reverse(Head(r.key(), i)));
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse(Head(_, i))) = heap.pop() {
        let rec = runs[i][cursors[i]].clone();
        cursors[i] += 1;
        out.push(rec);
        if cursors[i] < runs[i].len() {
            heap.push(Reverse(Head(runs[i][cursors[i]].key(), i)));
        }
    }
    out
}

/// Streaming k-way merge straight over the runs' wire bytes: a cursor
/// per run and a binary heap of run heads, copying each record's wire
/// form directly into the output buffer. Never materializes the decoded
/// record vectors, so peak memory is one key per run plus the output —
/// the difference between O(total records) and O(runs) scratch on
/// W=128 sweeps. Ties break on run index, making the output identical
/// to a stable `kway_merge` over the decoded runs.
///
/// # Errors
/// [`ShuffleError::Corrupt`] if any run is not a whole number of valid
/// records.
pub fn streaming_merge<R: SortRecord>(runs: &[Bytes]) -> Result<Vec<u8>, ShuffleError> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let rec = R::WIRE_SIZE;
    let mut total = 0usize;
    for run in runs {
        if !run.len().is_multiple_of(rec) {
            return Err(ShuffleError::Corrupt {
                what: "record buffer length",
            });
        }
        total += run.len();
    }

    #[derive(PartialEq, Eq)]
    struct Head<K: Ord>(K, usize);
    impl<K: Ord> PartialOrd for Head<K> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<K: Ord> Ord for Head<K> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (&self.0, self.1).cmp(&(&other.0, other.1))
        }
    }

    let key_at = |run: &Bytes, cursor: usize| -> Result<R::Key, ShuffleError> {
        R::key_from_wire(&run[cursor..cursor + rec])
    };

    let mut cursors = vec![0usize; runs.len()];
    let mut heap = BinaryHeap::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        if !run.is_empty() {
            heap.push(Reverse(Head(key_at(run, 0)?, i)));
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse(Head(_, i))) = heap.pop() {
        let cursor = cursors[i];
        out.extend_from_slice(&runs[i][cursor..cursor + rec]);
        cursors[i] = cursor + rec;
        if cursors[i] < runs[i].len() {
            heap.push(Reverse(Head(key_at(&runs[i], cursors[i])?, i)));
        }
    }
    Ok(out)
}

/// Splits a mapper's assigned `(key, offset, len)` spans into
/// record-aligned download chunks sized so a window of `k` transfers
/// (`0` counts as `1`) yields roughly two chunks per slot
/// (`total / 2k`, never below one record) — small enough to keep the
/// pipeline full, large enough to amortize per-request latency. Spans are split in order, so
/// concatenating the chunk payloads reproduces the assignment byte for
/// byte.
fn split_chunks(
    assigned: &[(Arc<str>, u64, u64)],
    k: usize,
    rec: u64,
) -> Vec<(Arc<str>, u64, u64)> {
    let total: u64 = assigned.iter().map(|(_, _, len)| len).sum();
    let target = total
        .div_ceil(k.max(1).saturating_mul(2) as u64)
        .max(rec)
        .div_ceil(rec)
        .saturating_mul(rec);
    let mut chunks = Vec::new();
    for (key, off, len) in assigned {
        let mut cursor = 0u64;
        while cursor < *len {
            let take = target.min(len - cursor);
            chunks.push((Arc::clone(key), off + cursor, take));
            cursor += take;
        }
    }
    chunks
}

/// Reads `chunks`, each a `(key, offset, len)` range GET, for the
/// calling function through one request window of `cfg.io_concurrency`
/// helpers named `{tag}-io`, each request on its own store connection
/// over the function's NIC. As a chunk lands, its helper charges
/// `charge` of its length on the function's single vCPU behind a
/// one-permit semaphore, so downloads overlap compute and compute never
/// overlaps itself. Returns the payloads in chunk order; a read that
/// fails every attempt panics with `"{what} read failed"`.
#[allow(clippy::too_many_arguments)]
async fn read_chunks(
    fctx: &mut Ctx,
    env: &FunctionEnv,
    store: &Arc<ObjectStore>,
    cfg: &Arc<SortConfig>,
    tag: &Arc<str>,
    what: &'static str,
    charge: fn(&WorkModel, usize) -> SimDuration,
    chunks: &[(Arc<str>, u64, u64)],
) -> Vec<Bytes> {
    let cpu = fctx.sem_create(1).await;
    let jobs = chunks.iter().map(|(key, off, len)| {
        let (key, off, len) = (Arc::clone(key), *off, *len);
        let store = Arc::clone(store);
        let cfg = Arc::clone(cfg);
        let env = env.clone();
        let tag = Arc::clone(tag);
        async move |cctx: &mut Ctx| {
            let client = store.connect_via(cctx, tag, &[env.nic]).await;
            let data = with_retry(cctx, cfg.retries, async |c: &mut Ctx| {
                client.get_range(c, &cfg.bucket, &key, off, len).await
            })
            .await
            .unwrap_or_else(|e| panic!("{} read failed: {}", what, e));
            cctx.sem_acquire(cpu, 1).await;
            env.compute(cctx, charge(&cfg.work, data.len())).await;
            cctx.sem_release(cpu, 1).await;
            data
        }
    });
    let name = format!("{}-io", tag);
    let trace = store.trace_sink();
    windowed(fctx, &trace, &name, cfg.io_concurrency, chunks.len(), jobs).await
}

/// Runs the full serverless sort from the calling (driver) process.
///
/// Inputs under `cfg.input_prefix` must be objects of concatenated
/// [`SortRecord`] wire forms. On success the bucket holds
/// `cfg.workers` sorted run objects whose concatenation in key order of
/// `runs` is the globally sorted dataset.
///
/// # Errors
/// [`ShuffleError`] on configuration problems, store failures that
/// survive retries, or corrupt intermediate data.
pub async fn serverless_sort<R: SortRecord>(
    ctx: &mut Ctx,
    faas: &Arc<FunctionPlatform>,
    store: &Arc<ObjectStore>,
    cfg: &SortConfig,
) -> Result<SortStats, ShuffleError> {
    if cfg.workers == 0 {
        return Err(ShuffleError::BadConfig {
            reason: "workers must be positive".to_string(),
        });
    }
    let started = ctx.now();
    let driver = store.connect(ctx, format!("{}/driver", cfg.tag)).await;
    let inputs = driver.list(ctx, &cfg.bucket, &cfg.input_prefix).await?;
    if inputs.is_empty() {
        return Err(ShuffleError::BadConfig {
            reason: format!("no inputs under '{}'", cfg.input_prefix),
        });
    }
    let input_bytes: u64 = inputs.iter().map(|o| o.len.as_u64()).sum();
    let w = cfg.workers;
    // Phase spans nest under whatever span the driver is inside (the
    // stage span when run from the executor).
    let trace = store.trace_sink();
    let cfg = Arc::new(cfg.clone());
    // The exchange backend carries all mapper→reducer intermediates.
    // Backing resources (the relay VM's provisioning delay, for one) are
    // paid here, before any function is invoked — unless the backend
    // pre-warms, in which case `prepare` returns immediately and the
    // boot overlaps the sample phase below; the first map-phase request
    // then blocks for whatever boot time the sampling didn't hide.
    let backend: Arc<dyn DataExchange> = match &cfg.backend {
        Some(b) => Arc::clone(b),
        None => Arc::new(ObjectStoreExchange::new(
            Arc::clone(store),
            cfg.bucket.as_str(),
            cfg.part_prefix.as_str(),
            cfg.exchange,
        )),
    };
    backend.prepare(ctx, w, w).await?;

    // ---- Phase 0: sample keys with range reads (one fn per mapper). ----
    let p_sample = phase_begin(ctx, &trace, "sample", cfg.orchestration).await;
    // One tag per phase, shared by every invocation and connection.
    let sample_tag: Arc<str> = format!("{}/sample", cfg.tag).into();
    let mut bodies = Vec::new();
    // Sampler `m` reads inputs `m`, `m + w`, …, so with fewer inputs
    // than workers the last samplers have nothing to read and are not
    // invoked.
    for m in 0..w.min(inputs.len()) {
        // The first `SAMPLE_BYTES` of each assigned input, whole records
        // only.
        let reads: Vec<(Arc<str>, u64, u64)> = inputs
            .iter()
            .skip(m)
            .step_by(w)
            .filter_map(|o| {
                let span = SAMPLE_BYTES.min(o.len.as_u64());
                let span = span - span % R::WIRE_SIZE as u64;
                (span > 0).then(|| (Arc::from(o.key.as_str()), 0, span))
            })
            .collect();
        let store = Arc::clone(store);
        let cfg = Arc::clone(&cfg);
        let tag = Arc::clone(&sample_tag);
        bodies.push(async move |fctx: &mut Ctx, env: FunctionEnv| {
            let mut reservoir = Reservoir::new(SAMPLE_CAPACITY);
            // Seeded from the logical mapper index, and offered to in
            // assignment order below, so the partition boundaries are
            // invariant to `io_concurrency`.
            let mut rng = SmallRng::seed_from_u64(SAMPLE_SEED ^ splitmix(m as u64));
            // Fan the per-input range reads out; parsing serializes on
            // the single vCPU while other reads stream in. The reservoir
            // draws stay on this process, in assignment order.
            let chunks = read_chunks(
                fctx,
                &env,
                &store,
                &cfg,
                &tag,
                "sample",
                WorkModel::parse_time,
                &reads,
            )
            .await;
            // Keys stream off the wire in assignment order, so the
            // reservoir sees the same sequence at every K.
            for data in &chunks {
                kernel::scan_keys::<R>(data, |k| reservoir.offer(k, &mut rng))
                    .unwrap_or_else(|e| panic!("sample decode failed: {}", e));
            }
            reservoir.into_items()
        });
    }
    let samples = faas
        .invoke_all(ctx, "sample", sample_tag, cfg.task_attempts, bodies)
        .await;
    phase_end(ctx, &trace, p_sample);
    let samples = samples.map_err(task_failed("sample"))?;
    let sample_done = ctx.now();
    let sample = samples.into_iter().flatten().collect();
    let partitioner = Arc::new(RangePartitioner::from_sample(sample, w));

    // ---- Phase 1: map — local sort, range partition, exchange write. ----
    let p_map = phase_begin(ctx, &trace, "map", cfg.orchestration).await;
    // Byte-range input assignment: every mapper reads an equal,
    // record-aligned slice of the input space regardless of how the data
    // is chunked into objects — the map phase parallelises with W, not
    // with the object count (Primula reads partitions with range GETs).
    let spans = assign_spans(&inputs, w, R::WIRE_SIZE as u64);
    let assigned_bytes: u64 = spans.iter().flatten().map(|&(_, _, len)| len).sum();
    let map_tag: Arc<str> = format!("{}/map", cfg.tag).into();
    let bodies: Vec<_> = spans
        .into_iter()
        .enumerate()
        .map(|(m, assigned)| {
            let store = Arc::clone(store);
            let partitioner = Arc::clone(&partitioner);
            let cfg = Arc::clone(&cfg);
            let backend = Arc::clone(&backend);
            let tag = Arc::clone(&map_tag);
            async move |fctx: &mut Ctx, env: FunctionEnv| {
                // Double-buffered pipeline: split the assignment into ~2·K
                // record-aligned chunks, keep K downloads in flight on
                // separate store connections, and charge each chunk's
                // share of the sort compute on the single vCPU as it lands
                // — downloads overlap compute, compute never overlaps
                // itself (with K = 1 one helper downloads and sorts the
                // chunks in turn). The chunks concatenate in assignment
                // order, so the record sequence — and after the kernel's
                // order-preserving sort below, the output bytes — is the
                // same at every K. Downloaded chunks stay in wire form: the
                // kernel sorts and partitions views into these buffers, so
                // record payloads are copied once (chunk → partition
                // bucket) instead of decoded, sorted, and re-encoded.
                let splits = split_chunks(&assigned, cfg.io_concurrency, R::WIRE_SIZE as u64);
                let chunks = read_chunks(
                    fctx,
                    &env,
                    &store,
                    &cfg,
                    &tag,
                    "map",
                    WorkModel::sort_time,
                    &splits,
                )
                .await;
                let read_bytes: usize = chunks.iter().map(Bytes::len).sum();
                // Sort + range-partition straight over the wire bytes:
                // charge the partition compute in virtual time, then run
                // the kernel inline. The kernel's (chunk, offset)
                // tie-break keeps equal keys in global input order. The
                // range partitioner is monotone over the sort order, so
                // the sorted run IS the partitions concatenated in part
                // order — the kernel hands back that one buffer plus the
                // sparse cut list, and the write side never materialises
                // W per-partition buffers (the mapper-side O(W) term of
                // the old W² host cost).
                env.compute(fctx, cfg.work.partition_time(read_bytes)).await;
                let (run, cuts) =
                    kernel::partition_sorted_run::<R>(&chunks, w, |k| partitioner.part(k))
                        .unwrap_or_else(|e| panic!("map decode failed: {}", e));
                // Free the kernel's input before the exchange write yields
                // to the other functions.
                drop(chunks);
                let xenv = ExchangeEnv {
                    host_links: [env.nic].as_slice().into(),
                    tag: Arc::clone(&tag),
                    retries: cfg.retries,
                    io_window: cfg.io_concurrency,
                };
                backend
                    .write_run(fctx, &xenv, m, Bytes::from(run), cuts, w)
                    .await
                    .unwrap_or_else(|e| panic!("map exchange write failed: {}", e))
            }
        })
        .collect();
    let mapped = faas
        .invoke_all(ctx, "map", map_tag, cfg.task_attempts, bodies)
        .await;
    phase_end(ctx, &trace, p_map);
    let mapped = mapped.map_err(task_failed("map"))?;
    let map_done = ctx.now();

    // ---- Phase 2: reduce — gather, k-way merge, write runs. ----
    let p_reduce = phase_begin(ctx, &trace, "reduce", cfg.orchestration).await;
    let reduce_tag: Arc<str> = format!("{}/reduce", cfg.tag).into();
    let bodies: Vec<_> = (0..w)
        .map(|j| {
            let store = Arc::clone(store);
            let cfg = Arc::clone(&cfg);
            let backend = Arc::clone(&backend);
            let tag = Arc::clone(&reduce_tag);
            async move |fctx: &mut Ctx, env: FunctionEnv| {
                let client = store.connect_via(fctx, Arc::clone(&tag), &[env.nic]).await;
                let xenv = ExchangeEnv {
                    host_links: [env.nic].as_slice().into(),
                    tag: Arc::clone(&tag),
                    retries: cfg.retries,
                    io_window: cfg.io_concurrency,
                };
                // Gather this partition's non-empty map outputs through
                // the backend's column read (at most K requests in
                // flight), keeping the raw wire bytes so the merge can
                // stream without decoding whole runs up front. Dropping
                // empty runs is merge-neutral: the (key, run) tie-break
                // preserves the non-empty runs' relative order.
                let runs = backend
                    .read_gather(fctx, &xenv, w, j)
                    .await
                    .unwrap_or_else(|e| panic!("reduce gather failed: {}", e));
                let gathered: usize = runs.iter().map(Bytes::len).sum();
                // Charge the merge compute, then merge inline.
                env.compute(fctx, cfg.work.merge_time(gathered)).await;
                let merged = streaming_merge::<R>(&runs)
                    .unwrap_or_else(|e| panic!("reduce decode failed: {}", e));
                // Free the gathered runs before the write yields.
                drop(runs);
                // One shared buffer: `Bytes::clone` inside the retry loop
                // is a refcount bump, not a copy of the run.
                let data = Bytes::from(merged);
                let written = data.len() as u64;
                let key = format!("{}{:05}", cfg.output_prefix, j);
                with_retry(fctx, cfg.retries, async |c: &mut Ctx| {
                    client.put(c, &cfg.bucket, &key, data.clone()).await
                })
                .await
                .unwrap_or_else(|e| panic!("reduce write failed: {}", e));
                (gathered as u64, written)
            }
        })
        .collect();
    let reduced = faas
        .invoke_all(ctx, "reduce", reduce_tag, cfg.task_attempts, bodies)
        .await;
    phase_end(ctx, &trace, p_reduce);
    let reduced = reduced.map_err(task_failed("reduce"))?;
    // Release exchange resources (the relay VM stops billing here; the
    // object-store backend keeps its intermediates for inspection).
    let xenv = ExchangeEnv::driver(format!("{}/driver", cfg.tag), cfg.retries);
    backend.cleanup(ctx, &xenv).await?;
    let finished = ctx.now();

    // Byte conservation: every assigned input byte is written by a
    // mapper, gathered by a reducer and written to a sorted run.
    let written: u64 = mapped.iter().sum();
    let gathered: u64 = reduced.iter().map(|&(gathered, _)| gathered).sum();
    let output_bytes: u64 = reduced.iter().map(|&(_, written)| written).sum();
    for (phase, input, output) in [
        ("map", assigned_bytes, written),
        ("exchange", written, gathered),
        ("reduce", gathered, output_bytes),
    ] {
        if input != output {
            return Err(ShuffleError::Conservation {
                phase,
                input,
                output,
            });
        }
    }

    Ok(SortStats {
        workers: w,
        input_bytes,
        output_bytes,
        runs: (0..w)
            .map(|j| format!("{}{:05}", cfg.output_prefix, j))
            .collect(),
        sample_duration: sample_done.saturating_duration_since(started),
        map_duration: map_done.saturating_duration_since(sample_done),
        reduce_duration: finished.saturating_duration_since(map_done),
        started,
        finished,
    })
}

/// Maps a phase's failed invocation to [`ShuffleError::TaskFailed`].
fn task_failed(phase: &'static str) -> impl FnOnce(JoinError) -> ShuffleError {
    move |e| ShuffleError::TaskFailed {
        phase,
        message: e.to_string(),
    }
}

/// Splits the input objects into `w` equal, record-aligned byte spans:
/// mapper `m` receives a list of `(key, offset, len)` range reads. Spans
/// never split a record (all lengths are multiples of `record_size`).
fn assign_spans(
    inputs: &[faaspipe_store::ObjectSummary],
    w: usize,
    record_size: u64,
) -> Vec<Vec<(Arc<str>, u64, u64)>> {
    let total: u64 = inputs.iter().map(|o| o.len.as_u64()).sum();
    let total_records = total / record_size;
    let per = total_records.div_ceil(w as u64).max(1) * record_size;
    let mut spans: Vec<Vec<(Arc<str>, u64, u64)>> = vec![Vec::new(); w];
    let mut global = 0u64;
    for obj in inputs {
        // One copy of the key, shared by every span of the object.
        let key: Arc<str> = obj.key.as_str().into();
        let len = obj.len.as_u64() - obj.len.as_u64() % record_size;
        let mut off = 0u64;
        while off < len {
            let m = ((global / per) as usize).min(w - 1);
            let room = per - global % per;
            let take = room.min(len - off);
            spans[m].push((Arc::clone(&key), off, take));
            off += take;
            global += take;
        }
    }
    spans
}

/// Opens a [`Category::Phase`] span on the calling (driver) process and
/// charges the phase's orchestration overhead inside it as an
/// [`Category::Orchestration`] leaf. The phase is pushed onto the
/// driver's open-span stack so invocations spawned during it nest under
/// it. Pair with [`phase_end`] on every exit path, failed ones too: an
/// unclosed phase stays on the driver's stack, and the caller's next
/// `exit` would pop it instead of the caller's own span.
pub(crate) async fn phase_begin(
    ctx: &Ctx,
    trace: &TraceSink,
    name: &str,
    orchestration: SimDuration,
) -> SpanId {
    if !trace.is_enabled() {
        ctx.sleep(orchestration).await;
        return SpanId::NONE;
    }
    let parent = trace.current(ctx.pid());
    let span = trace.span_start(Category::Phase, name, "driver", "driver", parent, ctx.now());
    trace.enter(ctx.pid(), span);
    let sleep = if orchestration > SimDuration::ZERO {
        trace.span_start(
            Category::Orchestration,
            "orchestration",
            "driver",
            "driver",
            span,
            ctx.now(),
        )
    } else {
        SpanId::NONE
    };
    ctx.sleep(orchestration).await;
    trace.span_end(sleep, ctx.now());
    span
}

/// Closes a phase span opened by [`phase_begin`].
pub(crate) fn phase_end(ctx: &Ctx, trace: &TraceSink, span: SpanId) {
    if span.is_none() {
        return;
    }
    trace.exit(ctx.pid());
    trace.span_end(span, ctx.now());
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;
    use faaspipe_des::Sim;
    use faaspipe_faas::FaasConfig;
    use faaspipe_store::StoreConfig;
    use parking_lot::Mutex;

    fn upload_chunks(sim: &mut Sim, store: &Arc<ObjectStore>, values: &[u64], chunks: usize) {
        store.create_bucket("data").expect("bucket");
        let per = values.len().div_ceil(chunks);
        let store = Arc::clone(store);
        let values = values.to_vec();
        sim.spawn("uploader", move |mut ctx| async move {
            let ctx = &mut ctx;
            let client = store.connect(ctx, "upload").await;
            for (i, chunk) in values.chunks(per).enumerate() {
                let data = SortRecord::write_all(chunk);
                client
                    .put(ctx, "data", &format!("in/{:04}", i), Bytes::from(data))
                    .await
                    .expect("upload");
            }
        });
    }

    fn run_sort(
        values: Vec<u64>,
        chunks: usize,
        workers: usize,
    ) -> (Vec<u64>, SortStats, Arc<ObjectStore>) {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
        upload_chunks(&mut sim, &store, &values, chunks);
        let result: Arc<Mutex<Option<(Vec<u64>, SortStats)>>> = Arc::new(Mutex::new(None));
        let store2 = Arc::clone(&store);
        let result2 = Arc::clone(&result);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            // Let the uploader finish first.
            ctx.sleep(SimDuration::from_secs(120)).await;
            let cfg = SortConfig {
                workers,
                ..SortConfig::default()
            };
            let stats = serverless_sort::<u64>(ctx, &faas, &store2, &cfg)
                .await
                .expect("sort succeeds");
            // Gather all runs in order and check global order.
            let client = store2.connect(ctx, "verify").await;
            let mut all = Vec::new();
            for run in &stats.runs {
                let data = client.get(ctx, "data", run).await.expect("run exists");
                let mut records: Vec<u64> = SortRecord::read_all(&data).expect("decode");
                all.append(&mut records);
            }
            *result2.lock() = Some((all, stats));
        });
        sim.run().expect("sim ok");
        let (all, stats) = result.lock().take().expect("driver ran");
        (all, stats, store)
    }

    #[test]
    fn sorts_small_dataset_globally() {
        let mut values: Vec<u64> = (0..4_000u64)
            .map(|i| (i * 2_654_435_761) % 1_000_000)
            .collect();
        let (sorted, stats, _) = run_sort(values.clone(), 4, 4);
        values.sort_unstable();
        assert_eq!(sorted, values, "output must be the sorted input");
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.output_bytes, 4_000 * 8);
    }

    #[test]
    fn single_worker_degenerate_case() {
        let values: Vec<u64> = (0..500u64).rev().collect();
        let (sorted, stats, _) = run_sort(values, 2, 1);
        assert_eq!(sorted, (0..500u64).collect::<Vec<_>>());
        assert_eq!(stats.runs.len(), 1);
    }

    #[test]
    fn more_workers_than_chunks() {
        let values: Vec<u64> = (0..2_000u64).map(|i| 2_000 - i).collect();
        let (sorted, _, _) = run_sort(values, 2, 8);
        assert_eq!(sorted, (1..=2_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_keys_preserved() {
        let values: Vec<u64> = (0..3_000u64).map(|i| i % 7).collect();
        let (sorted, _, _) = run_sort(values.clone(), 3, 4);
        let mut expect = values;
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn phase_durations_are_positive_and_ordered() {
        let values: Vec<u64> = (0..5_000u64).rev().collect();
        let (_, stats, _) = run_sort(values, 4, 4);
        assert!(stats.sample_duration > SimDuration::ZERO);
        assert!(stats.map_duration > SimDuration::ZERO);
        assert!(stats.reduce_duration > SimDuration::ZERO);
        assert_eq!(
            stats.total_duration(),
            stats.sample_duration + stats.map_duration + stats.reduce_duration
        );
    }

    #[test]
    fn intermediate_objects_are_w_squared() {
        let values: Vec<u64> = (0..2_000u64).rev().collect();
        let (_, _, store) = run_sort(values, 4, 4);
        // part/{m}/{j}: 16 objects.
        let count = (0..4)
            .flat_map(|m| (0..4).map(move |j| (m, j)))
            .filter(|(m, j)| {
                store
                    .peek("data", &format!("part/{:05}/{:05}", m, j))
                    .is_some()
            })
            .count();
        assert_eq!(count, 16);
    }

    #[test]
    fn zero_workers_rejected() {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
        store.create_bucket("data").expect("bucket");
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let cfg = SortConfig {
                workers: 0,
                ..SortConfig::default()
            };
            let err = serverless_sort::<u64>(ctx, &faas, &store, &cfg)
                .await
                .expect_err("bad cfg");
            assert!(matches!(err, ShuffleError::BadConfig { .. }));
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn missing_inputs_rejected() {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
        store.create_bucket("data").expect("bucket");
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let err = serverless_sort::<u64>(ctx, &faas, &store, &SortConfig::default())
                .await
                .expect_err("no inputs");
            assert!(matches!(err, ShuffleError::BadConfig { .. }));
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn survives_injected_store_faults_with_retries() {
        use faaspipe_store::FailurePolicy;
        let mut sim = Sim::new();
        let cfg = StoreConfig::default().with_failure(FailurePolicy::with_error_rate(0.05));
        let store = ObjectStore::install(&mut sim, cfg);
        let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
        let values: Vec<u64> = (0..3_000u64).rev().collect();
        upload_chunks(&mut sim, &store, &values, 4);
        let ok = Arc::new(Mutex::new(false));
        let ok2 = Arc::clone(&ok);
        let store2 = Arc::clone(&store);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            ctx.sleep(SimDuration::from_secs(300)).await;
            let cfg = SortConfig {
                workers: 4,
                retries: 12,
                ..SortConfig::default()
            };
            let stats = serverless_sort::<u64>(ctx, &faas, &store2, &cfg)
                .await
                .expect("sort survives 5% faults with retries");
            assert_eq!(stats.output_bytes, 3_000 * 8);
            *ok2.lock() = true;
        });
        sim.run().expect("sim ok");
        assert!(*ok.lock());
    }

    #[test]
    fn spans_cover_everything_exactly_once_and_balance() {
        use faaspipe_des::ByteSize;
        use faaspipe_store::ObjectSummary;
        let inputs: Vec<ObjectSummary> = [800u64, 160, 2_400, 8]
            .iter()
            .enumerate()
            .map(|(i, &len)| ObjectSummary {
                key: format!("in/{}", i),
                len: ByteSize::new(len),
            })
            .collect();
        let w = 7;
        let spans = assign_spans(&inputs, w, 8);
        // Coverage: per key, spans are contiguous from 0 and record-aligned.
        let mut covered = std::collections::HashMap::new();
        for mapper in &spans {
            for (key, off, len) in mapper {
                assert_eq!(off % 8, 0);
                assert_eq!(len % 8, 0);
                assert!(*len > 0);
                covered
                    .entry(key.clone())
                    .or_insert_with(Vec::new)
                    .push((*off, *len));
            }
        }
        for obj in &inputs {
            let mut ranges = covered.remove(obj.key.as_str()).unwrap_or_default();
            ranges.sort_unstable();
            let mut cursor = 0u64;
            for (off, len) in ranges {
                assert_eq!(off, cursor, "no gaps/overlaps in {}", obj.key);
                cursor += len;
            }
            assert_eq!(cursor, obj.len.as_u64(), "full coverage of {}", obj.key);
        }
        // Balance: no mapper holds more than ceil(total/w) + one record.
        let total: u64 = inputs.iter().map(|o| o.len.as_u64()).sum();
        let per = (total / 8).div_ceil(w as u64) * 8;
        for mapper in &spans {
            let bytes: u64 = mapper.iter().map(|(_, _, l)| l).sum();
            assert!(bytes <= per, "mapper holds {} > {}", bytes, per);
        }
    }

    #[test]
    fn map_parallelism_exceeds_chunk_count() {
        // 16 workers over 2 chunks: byte-range assignment must give every
        // mapper work (the old chunk-granular assignment gave 2).
        let values: Vec<u64> = (0..4_000u64).rev().collect();
        let (sorted, stats, store) = run_sort(values, 2, 16);
        assert_eq!(sorted, (0..4_000u64).collect::<Vec<_>>());
        assert_eq!(stats.workers, 16);
        // Every mapper wrote a partition row (scatter mode).
        for m in 0..16 {
            assert!(
                store
                    .peek("data", &format!("part/{:05}/{:05}", m, 0))
                    .is_some(),
                "mapper {} must have participated",
                m
            );
        }
    }

    /// The crash-and-re-invoke schedule of
    /// [`survives_injected_function_crashes_with_task_retries`]: its end
    /// time (ns), event count and billed invocations. Every crash is
    /// drawn from a pid-seeded random stream, so a change to the order
    /// in which a phase's functions are spawned, joined or re-invoked
    /// moves all three. Re-capture (after an *intentional* change only)
    /// with `FAASPIPE_PRINT_GOLDEN=1 cargo test -p faaspipe-shuffle
    /// survives_injected_function_crashes -- --nocapture`.
    const GOLDEN_TASK_RETRIES: (u64, u64, usize) = (302_613_096_818, 389, 12);

    #[test]
    fn survives_injected_function_crashes_with_task_retries() {
        // 40% of invocations crash before user code; task-level
        // re-invocation must still complete the sort correctly.
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        let faas =
            FunctionPlatform::install(&mut sim, FaasConfig::default().with_failure_rate(0.4));
        let values: Vec<u64> = (0..3_000u64).rev().collect();
        upload_chunks(&mut sim, &store, &values, 4);
        let ok = Arc::new(Mutex::new(false));
        let ok2 = Arc::clone(&ok);
        let store2 = Arc::clone(&store);
        let faas2 = Arc::clone(&faas);
        sim.spawn("driver", move |mut ctx| async move {
            let faas = faas2;
            let ctx = &mut ctx;
            ctx.sleep(SimDuration::from_secs(300)).await;
            let cfg = SortConfig {
                workers: 4,
                task_attempts: 12,
                ..SortConfig::default()
            };
            let stats = serverless_sort::<u64>(ctx, &faas, &store2, &cfg)
                .await
                .expect("sort survives crashing functions");
            let client = store2.connect(ctx, "verify").await;
            let mut all = Vec::new();
            for run in &stats.runs {
                let data = client.get(ctx, "data", run).await.expect("run exists");
                let mut records: Vec<u64> = SortRecord::read_all(&data).expect("decode");
                all.append(&mut records);
            }
            assert_eq!(all, (0..3_000u64).collect::<Vec<_>>());
            *ok2.lock() = true;
        });
        let report = sim.run().expect("sim ok");
        assert!(*ok.lock());
        let digest = (
            report.end_time.as_nanos(),
            report.events,
            faas.records().len(),
        );
        if std::env::var("FAASPIPE_PRINT_GOLDEN").is_ok() {
            println!(
                "GOLDEN task retries: end_ns={} events={} invocations={}",
                digest.0, digest.1, digest.2
            );
            return;
        }
        assert_eq!(
            digest, GOLDEN_TASK_RETRIES,
            "re-invocation schedule drifted"
        );
    }

    #[test]
    fn exhausted_task_attempts_surface_as_task_failed() {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        let faas = FunctionPlatform::install(
            &mut sim,
            FaasConfig::default().with_failure_rate(1.0), // always crash
        );
        let sink = TraceSink::recording();
        store.set_trace_sink(sink.clone());
        faas.set_trace_sink(sink.clone());
        let values: Vec<u64> = (0..500u64).collect();
        upload_chunks(&mut sim, &store, &values, 2);
        let saw = Arc::new(Mutex::new(false));
        let saw2 = Arc::clone(&saw);
        let store2 = Arc::clone(&store);
        let sink2 = sink.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            ctx.sleep(SimDuration::from_secs(60)).await;
            let cfg = SortConfig {
                workers: 2,
                task_attempts: 3,
                ..SortConfig::default()
            };
            let err = serverless_sort::<u64>(ctx, &faas, &store2, &cfg)
                .await
                .expect_err("certain crashes must exhaust retries");
            assert!(matches!(
                err,
                ShuffleError::TaskFailed {
                    phase: "sample",
                    ..
                }
            ));
            // The failed phase left the driver's span stack.
            assert_eq!(sink2.current(ctx.pid()), SpanId::NONE);
            *saw2.lock() = true;
        });
        sim.run().expect("sim ok");
        assert!(*saw.lock());
        let trace = sink.snapshot();
        let sample = trace
            .spans
            .iter()
            .find(|s| s.category == Category::Phase && s.name == "sample")
            .expect("traced sample phase");
        assert!(sample.end.is_some(), "the failed sample phase must end");
    }

    #[test]
    fn kway_merge_correctness() {
        let runs: Vec<Vec<u64>> = vec![vec![1, 4, 7], vec![2, 5, 8], vec![0, 3, 6, 9, 10]];
        assert_eq!(kway_merge(runs), (0..=10).collect::<Vec<_>>());
        assert_eq!(kway_merge::<u64>(vec![]), Vec::<u64>::new());
        assert_eq!(kway_merge(vec![vec![], vec![5u64], vec![]]), vec![5]);
    }

    #[test]
    fn streaming_merge_matches_naive_on_edge_cases() {
        // No runs, all-empty runs, single run, duplicate keys.
        assert_eq!(
            streaming_merge::<u64>(&[]).expect("empty"),
            Vec::<u8>::new()
        );
        let empty = [Bytes::new(), Bytes::new()];
        assert_eq!(
            streaming_merge::<u64>(&empty).expect("empties"),
            Vec::<u8>::new()
        );
        let runs = vec![vec![1u64, 1, 3], vec![1u64, 2, 2], vec![]];
        let encoded: Vec<Bytes> = runs
            .iter()
            .map(|r| Bytes::from(SortRecord::write_all(r)))
            .collect();
        let merged = streaming_merge::<u64>(&encoded).expect("merge");
        let expect = SortRecord::write_all(&kway_merge(runs));
        assert_eq!(merged, expect);
    }

    #[test]
    fn split_chunks_cuts_two_record_aligned_chunks_per_window_slot() {
        let key: Arc<str> = Arc::from("in/0");
        let assigned = vec![(Arc::clone(&key), 0u64, 800u64)];
        let chunks = |k: usize| -> Vec<(u64, u64)> {
            split_chunks(&assigned, k, 8)
                .into_iter()
                .map(|(_, off, len)| (off, len))
                .collect()
        };
        // A window of one (or zero) still reads two chunks.
        assert_eq!(chunks(1), vec![(0, 400), (400, 400)]);
        assert_eq!(chunks(0), chunks(1));
        assert_eq!(chunks(4).len(), 8);
        // A window too wide to double cuts one record per chunk instead
        // of dividing by a wrapped zero.
        for k in [1usize << 63, usize::MAX] {
            let one_per_record = chunks(k);
            assert_eq!(one_per_record.len(), 100);
            assert!(one_per_record.iter().all(|&(_, len)| len == 8));
        }
    }

    #[test]
    fn streaming_merge_rejects_torn_records() {
        let torn = [Bytes::from_static(&[0u8; 7])];
        assert!(matches!(
            streaming_merge::<u64>(&torn),
            Err(ShuffleError::Corrupt { .. })
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The byte-streaming merge must agree with the naive
        /// decode-everything merge on arbitrary pre-sorted runs,
        /// including the tie-break order between runs.
        #[test]
        fn streaming_merge_equals_naive_merge(
            runs in proptest::collection::vec(
                proptest::collection::vec(0u64..50, 0..40),
                0..6,
            )
        ) {
            let runs: Vec<Vec<u64>> = runs
                .into_iter()
                .map(|mut r| { r.sort_unstable(); r })
                .collect();
            let encoded: Vec<Bytes> = runs
                .iter()
                .map(|r| Bytes::from(SortRecord::write_all(r)))
                .collect();
            let merged = streaming_merge::<u64>(&encoded).expect("merge");
            let expect = SortRecord::write_all(&kway_merge(runs));
            proptest::prop_assert_eq!(merged, expect);
        }
    }

    #[test]
    fn coalesced_exchange_sorts_identically() {
        let values: Vec<u64> = (0..4_000u64)
            .map(|i| (i * 2_654_435_761) % 1_000_000)
            .collect();
        let mut expect = values.clone();
        expect.sort_unstable();
        // Run with the coalesced strategy through the same harness.
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
        upload_chunks(&mut sim, &store, &values, 4);
        let result: Arc<Mutex<Option<(Vec<u64>, SortStats)>>> = Arc::new(Mutex::new(None));
        let store2 = Arc::clone(&store);
        let result2 = Arc::clone(&result);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            ctx.sleep(SimDuration::from_secs(120)).await;
            let cfg = SortConfig {
                workers: 4,
                exchange: ExchangeStrategy::Coalesced,
                ..SortConfig::default()
            };
            let stats = serverless_sort::<u64>(ctx, &faas, &store2, &cfg)
                .await
                .expect("sort");
            let client = store2.connect(ctx, "verify").await;
            let mut all = Vec::new();
            for run in &stats.runs {
                let data = client.get(ctx, "data", run).await.expect("run exists");
                let mut records: Vec<u64> = SortRecord::read_all(&data).expect("decode");
                all.append(&mut records);
            }
            *result2.lock() = Some((all, stats));
        });
        sim.run().expect("sim ok");
        let (sorted, _) = result.lock().take().expect("driver ran");
        assert_eq!(sorted, expect);
        // One coalesced object per mapper, not W^2 scatter objects.
        assert!(store.peek("data", "part/00000").is_some());
        assert!(store.peek("data", "part/00000/00000").is_none());
    }

    #[test]
    fn coalesced_exchange_issues_fewer_class_a_requests() {
        fn class_a(exchange: ExchangeStrategy) -> u64 {
            let values: Vec<u64> = (0..2_000u64).rev().collect();
            let mut sim = Sim::new();
            let store = ObjectStore::install(&mut sim, StoreConfig::default());
            let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
            upload_chunks(&mut sim, &store, &values, 4);
            let store2 = Arc::clone(&store);
            sim.spawn("driver", move |mut ctx| async move {
                let ctx = &mut ctx;
                ctx.sleep(SimDuration::from_secs(120)).await;
                let cfg = SortConfig {
                    workers: 8,
                    exchange,
                    ..SortConfig::default()
                };
                serverless_sort::<u64>(ctx, &faas, &store2, &cfg)
                    .await
                    .expect("sort");
            });
            sim.run().expect("sim ok");
            store.metrics().total().class_a
        }
        let scatter = class_a(ExchangeStrategy::Scatter);
        let coalesced = class_a(ExchangeStrategy::Coalesced);
        // Scatter: 64 partition PUTs; coalesced: 8. The other class-A
        // requests (runs, lists) are identical.
        assert_eq!(scatter - coalesced, 8 * 8 - 8);
    }
}
