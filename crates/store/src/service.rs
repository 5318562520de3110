//! The object-store service and its per-connection client.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use faaspipe_des::{ByteSize, Ctx, FlowLinks, LimiterId, LinkId, Sim, SimTime};
use faaspipe_trace::{Category, SpanId, TraceSink};

use crate::config::StoreConfig;
use crate::error::StoreError;
use crate::failure::Fate;
use crate::metrics::{RequestClass, StoreMetrics};
use crate::object::{Bucket, Object, ObjectSummary, PartialUpload, PutResult};

use std::collections::BTreeMap;

/// The simulated object-storage service.
///
/// Install one per simulation with [`ObjectStore::install`], then create
/// per-task [`StoreClient`]s inside processes with
/// [`ObjectStore::connect`]. Administrative helpers (bucket creation,
/// content inspection, metrics) do not consume virtual time and may be
/// called from outside the simulation.
pub struct ObjectStore {
    cfg: StoreConfig,
    buckets: Mutex<BTreeMap<String, Bucket>>,
    metrics: Mutex<StoreMetrics>,
    aggregate: LinkId,
    ops: LimiterId,
    /// Per-tenant ops/s token buckets (admission control), keyed by the
    /// client tag's first `/`-segment. Empty unless a cluster installs
    /// scope limits; requests then pay the scope's bucket *after* the
    /// global one.
    scope_ops: Mutex<BTreeMap<String, LimiterId>>,
    next_upload: AtomicU64,
    /// The etag the next committed write gets: a store-wide version
    /// number, so compare-and-swap needs no content hash.
    next_version: AtomicU64,
    trace: Mutex<TraceSink>,
    inflight: AtomicU64,
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStore")
            .field("buckets", &self.buckets.lock().len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl ObjectStore {
    /// Creates the service and registers its shared resources (aggregate
    /// backbone link, operations/s limiter) with the simulation.
    pub fn install(sim: &mut Sim, cfg: StoreConfig) -> Arc<ObjectStore> {
        let aggregate = sim.create_link(cfg.aggregate_bw);
        let ops = sim.create_limiter(cfg.ops_per_sec, cfg.ops_burst);
        Arc::new(ObjectStore {
            cfg,
            buckets: Mutex::new(BTreeMap::new()),
            metrics: Mutex::new(StoreMetrics::new()),
            aggregate,
            ops,
            scope_ops: Mutex::new(BTreeMap::new()),
            next_upload: AtomicU64::new(1),
            next_version: AtomicU64::new(1),
            trace: Mutex::new(TraceSink::disabled()),
            inflight: AtomicU64::new(0),
        })
    }

    /// Routes per-request spans and counters to `sink`. Clients created
    /// after this call record; the default sink is disabled.
    pub fn set_trace_sink(&self, sink: TraceSink) {
        *self.trace.lock() = sink;
    }

    /// A clone of the store's current trace sink (disabled by default).
    pub fn trace_sink(&self) -> TraceSink {
        self.trace.lock().clone()
    }

    /// The service configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Creates a bucket.
    ///
    /// # Errors
    /// Returns [`StoreError::BucketAlreadyExists`] on name collision.
    pub fn create_bucket(&self, name: impl Into<String>) -> Result<(), StoreError> {
        let name = name.into();
        let mut buckets = self.buckets.lock();
        if buckets.contains_key(&name) {
            return Err(StoreError::BucketAlreadyExists { bucket: name });
        }
        buckets.insert(name, Bucket::default());
        Ok(())
    }

    /// Opens a connection from the calling process, tagged for metrics
    /// attribution. The connection gets its own per-connection bandwidth
    /// link.
    ///
    /// Many connections share one tag: pass a clone of one `Arc<str>`
    /// to share it, or any string to copy it once.
    pub async fn connect(self: &Arc<Self>, ctx: &Ctx, tag: impl Into<Arc<str>>) -> StoreClient {
        self.connect_via(ctx, tag, &[]).await
    }

    /// Like [`ObjectStore::connect`], but transfers additionally traverse
    /// `host_links` (e.g. the NIC of the function container or VM issuing
    /// the requests).
    pub async fn connect_via(
        self: &Arc<Self>,
        ctx: &Ctx,
        tag: impl Into<Arc<str>>,
        host_links: &[LinkId],
    ) -> StoreClient {
        let conn = ctx.link_create(self.cfg.per_connection_bw).await;
        let mut links = FlowLinks::from([conn, self.aggregate].as_slice());
        links.extend(host_links.iter().copied());
        let tag = tag.into();
        let scope_ops = {
            let scopes = self.scope_ops.lock();
            if scopes.is_empty() {
                None
            } else {
                tag.split('/')
                    .next()
                    .and_then(|scope| scopes.get(scope).copied())
            }
        };
        StoreClient {
            store: Arc::clone(self),
            links,
            tag,
            scope_ops,
            trace: self.trace.lock().clone(),
        }
    }

    /// Installs a per-tenant ops/s token bucket: every request from a
    /// client whose tag's first `/`-segment equals `scope` additionally
    /// acquires from this bucket (on top of the store-wide limiter).
    /// Call before spawning the tenant's processes — existing clients
    /// are not re-resolved.
    pub fn set_scope_ops_limit(
        &self,
        sim: &mut Sim,
        scope: impl Into<String>,
        ops_per_sec: f64,
        burst: f64,
    ) {
        let limiter = sim.create_limiter(ops_per_sec, burst);
        self.scope_ops.lock().insert(scope.into(), limiter);
    }

    /// Snapshot of the request metrics.
    pub fn metrics(&self) -> StoreMetrics {
        self.metrics.lock().clone()
    }

    /// Writes an object **outside virtual time and billing** — an
    /// administrative backdoor for staging input datasets that, in the
    /// paper's setup, already live in COS before the pipeline starts.
    /// Never call this from code whose performance is being measured.
    ///
    /// # Errors
    /// [`StoreError::NoSuchBucket`] if the bucket is unknown.
    pub fn put_untimed(
        &self,
        bucket: &str,
        key: &str,
        data: Bytes,
    ) -> Result<PutResult, StoreError> {
        let mut buckets = self.buckets.lock();
        let b = buckets
            .get_mut(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket {
                bucket: bucket.to_string(),
            })?;
        Ok(self.commit(b, key, data, SimTime::ZERO))
    }

    /// Stores `data` at `key` as a new version and returns its etag.
    fn commit(&self, b: &mut Bucket, key: &str, data: Bytes, created: SimTime) -> PutResult {
        let etag = self.next_version.fetch_add(1, Ordering::SeqCst);
        let len = ByteSize::new(data.len() as u64);
        b.objects.insert(
            key.to_string(),
            Object {
                data,
                etag,
                created,
            },
        );
        PutResult { etag, len }
    }

    /// Lists keys under a prefix **outside virtual time** (verification
    /// and test use).
    pub fn keys_untimed(&self, bucket: &str, prefix: &str) -> Vec<String> {
        self.buckets
            .lock()
            .get(bucket)
            .map(|b| {
                b.objects
                    .range(prefix.to_string()..)
                    .take_while(|(k, _)| k.starts_with(prefix))
                    .map(|(k, _)| k.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Peeks at an object's bytes without timing (test/verification use).
    pub fn peek(&self, bucket: &str, key: &str) -> Option<Bytes> {
        self.buckets
            .lock()
            .get(bucket)
            .and_then(|b| b.objects.get(key))
            .map(|o| o.data.clone())
    }

    /// Number of objects in a bucket (0 for unknown buckets).
    pub fn object_count(&self, bucket: &str) -> usize {
        self.buckets
            .lock()
            .get(bucket)
            .map_or(0, |b| b.objects.len())
    }

    /// Total real bytes stored across all buckets.
    pub fn stored_bytes(&self) -> ByteSize {
        let buckets = self.buckets.lock();
        ByteSize::new(
            buckets
                .values()
                .flat_map(|b| b.objects.values())
                .map(|o| o.data.len() as u64)
                .sum(),
        )
    }

    fn record(&self, tag: &str, class: RequestClass, bin: u64, bout: u64, failed: bool) {
        self.metrics.lock().record(tag, class, bin, bout, failed);
    }
}

/// A per-connection handle used by simulation processes to issue requests.
///
/// Every operation blocks the calling process in virtual time for the
/// request's modelled duration: an operations/s slot, the first-byte
/// latency, and a fair-share payload transfer.
pub struct StoreClient {
    store: Arc<ObjectStore>,
    /// Connection link, store backbone, then the host links.
    links: FlowLinks,
    tag: Arc<str>,
    /// The tenant's ops bucket, resolved from the tag at connect time.
    scope_ops: Option<LimiterId>,
    trace: TraceSink,
}

impl std::fmt::Debug for StoreClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreClient")
            .field("tag", &self.tag)
            .finish()
    }
}

/// Identifier of a multipart upload in progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MultipartUpload {
    /// Opaque upload id.
    pub id: u64,
}

impl StoreClient {
    /// The metrics tag this client reports under.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// A reference to the owning store.
    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.store
    }

    /// Charges the fixed request overhead: an ops/s slot plus first-byte
    /// latency (possibly inflated by fault injection). Returns an injected
    /// error without touching state when the failure policy says so.
    async fn request_overhead(&self, ctx: &mut Ctx, op: &'static str) -> Result<(), StoreError> {
        let cfg = &self.store.cfg;
        ctx.limiter_acquire(self.store.ops, 1.0).await;
        if let Some(scope_ops) = self.scope_ops {
            ctx.limiter_acquire(scope_ops, 1.0).await;
        }
        let fate = cfg.failure.draw(ctx.rng());
        let latency = match fate {
            Fate::Slow(factor) => cfg.first_byte_latency.mul_f64(factor),
            _ => cfg.first_byte_latency,
        };
        ctx.sleep(latency).await;
        if matches!(fate, Fate::Fail) {
            return Err(StoreError::Injected { op });
        }
        Ok(())
    }

    /// Opens a [`Category::StoreRequest`] span for one operation,
    /// parented to the calling process's innermost open span (the
    /// invocation or stage issuing the request). Free when disabled.
    fn trace_begin(&self, ctx: &Ctx, op: &'static str, key: &str) -> SpanId {
        if !self.trace.is_enabled() {
            return SpanId::NONE;
        }
        let parent = self.trace.current(ctx.pid());
        let span = self.trace.span_start(
            Category::StoreRequest,
            op,
            "store",
            &self.tag,
            parent,
            ctx.now(),
        );
        if !key.is_empty() {
            self.trace.attr(span, "key", key);
        }
        span
    }

    /// Books the operation in the metrics AND closes its span with the
    /// billing class and wire byte counts.
    fn finish(
        &self,
        ctx: &Ctx,
        span: SpanId,
        class: RequestClass,
        bytes_in: u64,
        bytes_out: u64,
        failed: bool,
    ) {
        self.store
            .record(&self.tag, class, bytes_in, bytes_out, failed);
        if span.is_none() {
            return;
        }
        let class_name = match class {
            RequestClass::ClassA => "class-a",
            RequestClass::ClassB => "class-b",
            RequestClass::Delete => "delete",
        };
        self.trace.attr(span, "class", class_name);
        if bytes_in > 0 {
            self.trace.attr(span, "bytes_in", bytes_in);
        }
        if bytes_out > 0 {
            self.trace.attr(span, "bytes_out", bytes_out);
        }
        if failed {
            self.trace.attr(span, "failed", true);
        }
        self.trace.span_end(span, ctx.now());
    }

    /// Estimated aggregate bandwidth in use with `flows` concurrent
    /// transfers: each flow is capped by its connection, the total by
    /// the backbone.
    fn bandwidth_estimate(&self, flows: u64) -> f64 {
        let per_conn = self.store.cfg.per_connection_bw.as_bytes_per_sec();
        (flows as f64 * per_conn).min(self.store.cfg.aggregate_bw.as_bytes_per_sec())
    }

    async fn transfer_scaled(&self, ctx: &Ctx, real_len: usize, parent: SpanId) {
        let wire = self.store.cfg.scaled_len(real_len);
        let flow = if self.trace.is_enabled() {
            let flows = self.store.inflight.fetch_add(1, Ordering::SeqCst) + 1;
            let now = ctx.now();
            self.trace.gauge("store.inflight_flows", now, flows as f64);
            self.trace.gauge(
                "store.bandwidth_in_use",
                now,
                self.bandwidth_estimate(flows),
            );
            let flow =
                self.trace
                    .span_start(Category::Flow, "xfer", "store", &self.tag, parent, now);
            self.trace.attr(flow, "wire_bytes", wire);
            flow
        } else {
            SpanId::NONE
        };
        ctx.transfer(ByteSize::new(wire), &self.links).await;
        if !flow.is_none() {
            let flows = self.store.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
            let now = ctx.now();
            self.trace.gauge("store.inflight_flows", now, flows as f64);
            self.trace.gauge(
                "store.bandwidth_in_use",
                now,
                self.bandwidth_estimate(flows),
            );
            self.trace.span_end(flow, now);
        }
    }

    /// Uploads an object, replacing any existing value at the key.
    ///
    /// # Errors
    /// [`StoreError::NoSuchBucket`] if the bucket is unknown;
    /// [`StoreError::Injected`] under fault injection.
    pub async fn put(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        key: &str,
        data: Bytes,
    ) -> Result<PutResult, StoreError> {
        let wire = self.store.cfg.scaled_len(data.len());
        let span = self.trace_begin(ctx, "PUT", key);
        if let Err(e) = self.request_overhead(ctx, "PUT").await {
            self.finish(ctx, span, RequestClass::ClassA, 0, 0, true);
            return Err(e);
        }
        self.transfer_scaled(ctx, data.len(), span).await;
        let result = self.commit_put(ctx, bucket, key, data);
        self.finish(ctx, span, RequestClass::ClassA, wire, 0, result.is_err());
        result
    }

    fn commit_put(
        &self,
        ctx: &Ctx,
        bucket: &str,
        key: &str,
        data: Bytes,
    ) -> Result<PutResult, StoreError> {
        let mut buckets = self.store.buckets.lock();
        let b = buckets
            .get_mut(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket {
                bucket: bucket.to_string(),
            })?;
        Ok(self.store.commit(b, key, data, ctx.now()))
    }

    /// Uploads an object only if the key does not exist yet (atomic
    /// create, the moral equivalent of `If-None-Match: *`).
    ///
    /// # Errors
    /// [`StoreError::PreconditionFailed`] if the key already exists.
    pub async fn put_if_absent(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        key: &str,
        data: Bytes,
    ) -> Result<PutResult, StoreError> {
        let span = self.trace_begin(ctx, "PUT", key);
        if let Err(e) = self.request_overhead(ctx, "PUT").await {
            self.finish(ctx, span, RequestClass::ClassA, 0, 0, true);
            return Err(e);
        }
        let wire = self.store.cfg.scaled_len(data.len());
        self.transfer_scaled(ctx, data.len(), span).await;
        // Validated atomically at commit (see put_if_match): checking
        // before the blocking transfer would let two creators race.
        let result = {
            let mut buckets = self.store.buckets.lock();
            match buckets.get_mut(bucket) {
                None => Err(StoreError::NoSuchBucket {
                    bucket: bucket.to_string(),
                }),
                Some(b) => {
                    if b.objects.contains_key(key) {
                        Err(StoreError::PreconditionFailed {
                            key: key.to_string(),
                        })
                    } else {
                        Ok(self.store.commit(b, key, data, ctx.now()))
                    }
                }
            }
        };
        self.finish(ctx, span, RequestClass::ClassA, wire, 0, result.is_err());
        result
    }

    /// Replaces an object only if its current etag (the version number
    /// its last write got) equals `expected_etag` (compare-and-swap, the
    /// moral equivalent of `If-Match`). The building block for optimistic
    /// coordination between functions.
    ///
    /// # Errors
    /// [`StoreError::PreconditionFailed`] when the stored ETag differs or
    /// the key is missing; the usual lookup and injection errors
    /// otherwise.
    pub async fn put_if_match(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        key: &str,
        expected_etag: u64,
        data: Bytes,
    ) -> Result<PutResult, StoreError> {
        let span = self.trace_begin(ctx, "PUT", key);
        if let Err(e) = self.request_overhead(ctx, "PUT").await {
            self.finish(ctx, span, RequestClass::ClassA, 0, 0, true);
            return Err(e);
        }
        let wire = self.store.cfg.scaled_len(data.len());
        self.transfer_scaled(ctx, data.len(), span).await;
        // The condition is validated atomically at commit time — checking
        // before the (blocking, virtual-time) transfer would be a TOCTOU
        // hole letting two writers race past each other.
        let result = {
            let mut buckets = self.store.buckets.lock();
            match buckets.get_mut(bucket) {
                None => Err(StoreError::NoSuchBucket {
                    bucket: bucket.to_string(),
                }),
                Some(b) => match b.objects.get(key) {
                    Some(o) if o.etag == expected_etag => {
                        Ok(self.store.commit(b, key, data, ctx.now()))
                    }
                    _ => Err(StoreError::PreconditionFailed {
                        key: key.to_string(),
                    }),
                },
            }
        };
        self.finish(ctx, span, RequestClass::ClassA, wire, 0, result.is_err());
        result
    }

    /// Downloads a whole object.
    ///
    /// # Errors
    /// [`StoreError::NoSuchBucket`] / [`StoreError::NoSuchKey`] when
    /// missing; [`StoreError::Injected`] under fault injection.
    pub async fn get(&self, ctx: &mut Ctx, bucket: &str, key: &str) -> Result<Bytes, StoreError> {
        let span = self.trace_begin(ctx, "GET", key);
        if let Err(e) = self.request_overhead(ctx, "GET").await {
            self.finish(ctx, span, RequestClass::ClassB, 0, 0, true);
            return Err(e);
        }
        let data = self.lookup(bucket, key);
        match data {
            Err(e) => {
                self.finish(ctx, span, RequestClass::ClassB, 0, 0, true);
                Err(e)
            }
            Ok(data) => {
                let wire = self.store.cfg.scaled_len(data.len());
                self.transfer_scaled(ctx, data.len(), span).await;
                self.finish(ctx, span, RequestClass::ClassB, 0, wire, false);
                Ok(data)
            }
        }
    }

    /// Downloads `len` bytes starting at `offset`.
    ///
    /// # Errors
    /// [`StoreError::InvalidRange`] if the range exceeds the object.
    pub async fn get_range(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        key: &str,
        offset: u64,
        len: u64,
    ) -> Result<Bytes, StoreError> {
        let span = self.trace_begin(ctx, "GET", key);
        if let Err(e) = self.request_overhead(ctx, "GET").await {
            self.finish(ctx, span, RequestClass::ClassB, 0, 0, true);
            return Err(e);
        }
        let result = self.lookup(bucket, key).and_then(|data| {
            let end = offset.checked_add(len);
            match end {
                Some(end) if end <= data.len() as u64 => {
                    Ok(data.slice(offset as usize..end as usize))
                }
                _ => Err(StoreError::InvalidRange {
                    offset,
                    len,
                    object_len: data.len() as u64,
                }),
            }
        });
        match result {
            Err(e) => {
                self.finish(ctx, span, RequestClass::ClassB, 0, 0, true);
                Err(e)
            }
            Ok(slice) => {
                let wire = self.store.cfg.scaled_len(slice.len());
                self.transfer_scaled(ctx, slice.len(), span).await;
                self.finish(ctx, span, RequestClass::ClassB, 0, wire, false);
                Ok(slice)
            }
        }
    }

    fn lookup(&self, bucket: &str, key: &str) -> Result<Bytes, StoreError> {
        let buckets = self.store.buckets.lock();
        let b = buckets
            .get(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket {
                bucket: bucket.to_string(),
            })?;
        b.objects
            .get(key)
            .map(|o| o.data.clone())
            .ok_or_else(|| StoreError::NoSuchKey {
                bucket: bucket.to_string(),
                key: key.to_string(),
            })
    }

    /// Fetches object metadata without the payload.
    ///
    /// # Errors
    /// [`StoreError::NoSuchBucket`] / [`StoreError::NoSuchKey`] when missing.
    pub async fn head(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        key: &str,
    ) -> Result<ObjectSummary, StoreError> {
        let span = self.trace_begin(ctx, "HEAD", key);
        if let Err(e) = self.request_overhead(ctx, "HEAD").await {
            self.finish(ctx, span, RequestClass::ClassB, 0, 0, true);
            return Err(e);
        }
        let result = {
            let buckets = self.store.buckets.lock();
            buckets
                .get(bucket)
                .ok_or_else(|| StoreError::NoSuchBucket {
                    bucket: bucket.to_string(),
                })
                .and_then(|b| {
                    b.objects
                        .get(key)
                        .map(|o| ObjectSummary {
                            key: key.to_string(),
                            len: ByteSize::new(o.data.len() as u64),
                            etag: o.etag,
                            created: o.created,
                        })
                        .ok_or_else(|| StoreError::NoSuchKey {
                            bucket: bucket.to_string(),
                            key: key.to_string(),
                        })
                })
        };
        self.finish(ctx, span, RequestClass::ClassB, 0, 0, result.is_err());
        result
    }

    /// Whether an object exists (a HEAD that maps "missing" to `false`).
    ///
    /// # Errors
    /// Only infrastructure errors ([`StoreError::Injected`],
    /// [`StoreError::NoSuchBucket`]) are returned.
    pub async fn exists(&self, ctx: &mut Ctx, bucket: &str, key: &str) -> Result<bool, StoreError> {
        match self.head(ctx, bucket, key).await {
            Ok(_) => Ok(true),
            Err(StoreError::NoSuchKey { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Lists objects whose key starts with `prefix`, in key order.
    ///
    /// # Errors
    /// [`StoreError::NoSuchBucket`] if the bucket is unknown.
    pub async fn list(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        prefix: &str,
    ) -> Result<Vec<ObjectSummary>, StoreError> {
        let span = self.trace_begin(ctx, "LIST", prefix);
        if let Err(e) = self.request_overhead(ctx, "LIST").await {
            self.finish(ctx, span, RequestClass::ClassA, 0, 0, true);
            return Err(e);
        }
        let result = {
            let buckets = self.store.buckets.lock();
            buckets
                .get(bucket)
                .ok_or_else(|| StoreError::NoSuchBucket {
                    bucket: bucket.to_string(),
                })
                .map(|b| {
                    b.objects
                        .range(prefix.to_string()..)
                        .take_while(|(k, _)| k.starts_with(prefix))
                        .map(|(k, o)| ObjectSummary {
                            key: k.clone(),
                            len: ByteSize::new(o.data.len() as u64),
                            etag: o.etag,
                            created: o.created,
                        })
                        .collect::<Vec<_>>()
                })
        };
        self.finish(ctx, span, RequestClass::ClassA, 0, 0, result.is_err());
        result
    }

    /// Paginated listing: returns up to `max_keys` objects with keys
    /// strictly greater than `start_after` (pass `""` for the first
    /// page), plus the last key to continue from when more remain.
    ///
    /// Each page is one class-A request, like S3's `ListObjectsV2`
    /// continuation protocol.
    ///
    /// # Errors
    /// [`StoreError::NoSuchBucket`] if the bucket is unknown.
    pub async fn list_page(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        prefix: &str,
        start_after: &str,
        max_keys: usize,
    ) -> Result<(Vec<ObjectSummary>, Option<String>), StoreError> {
        let span = self.trace_begin(ctx, "LIST", prefix);
        if let Err(e) = self.request_overhead(ctx, "LIST").await {
            self.finish(ctx, span, RequestClass::ClassA, 0, 0, true);
            return Err(e);
        }
        let result = {
            let buckets = self.store.buckets.lock();
            buckets
                .get(bucket)
                .ok_or_else(|| StoreError::NoSuchBucket {
                    bucket: bucket.to_string(),
                })
                .map(|b| {
                    let lower = if start_after.is_empty() {
                        prefix.to_string()
                    } else {
                        start_after.to_string()
                    };
                    let mut page: Vec<ObjectSummary> = b
                        .objects
                        .range(lower..)
                        .filter(|(k, _)| k.as_str() > start_after)
                        .take_while(|(k, _)| k.starts_with(prefix))
                        .take(max_keys + 1)
                        .map(|(k, o)| ObjectSummary {
                            key: k.clone(),
                            len: ByteSize::new(o.data.len() as u64),
                            etag: o.etag,
                            created: o.created,
                        })
                        .collect();
                    let more = page.len() > max_keys;
                    page.truncate(max_keys);
                    let token = if more {
                        page.last().map(|o| o.key.clone())
                    } else {
                        None
                    };
                    (page, token)
                })
        };
        self.finish(ctx, span, RequestClass::ClassA, 0, 0, result.is_err());
        result
    }

    /// Deletes an object. Deleting a missing key succeeds (like S3).
    ///
    /// # Errors
    /// [`StoreError::NoSuchBucket`] if the bucket is unknown.
    pub async fn delete(&self, ctx: &mut Ctx, bucket: &str, key: &str) -> Result<(), StoreError> {
        let span = self.trace_begin(ctx, "DELETE", key);
        if let Err(e) = self.request_overhead(ctx, "DELETE").await {
            self.finish(ctx, span, RequestClass::Delete, 0, 0, true);
            return Err(e);
        }
        let result = {
            let mut buckets = self.store.buckets.lock();
            match buckets.get_mut(bucket) {
                None => Err(StoreError::NoSuchBucket {
                    bucket: bucket.to_string(),
                }),
                Some(b) => {
                    b.objects.remove(key);
                    Ok(())
                }
            }
        };
        self.finish(ctx, span, RequestClass::Delete, 0, 0, result.is_err());
        result
    }

    /// Server-side copy. The payload moves over the store backbone only,
    /// not over this client's connection.
    ///
    /// # Errors
    /// Standard lookup errors for the source; [`StoreError::NoSuchBucket`]
    /// for the destination.
    pub async fn copy(
        &self,
        ctx: &mut Ctx,
        src_bucket: &str,
        src_key: &str,
        dst_bucket: &str,
        dst_key: &str,
    ) -> Result<PutResult, StoreError> {
        let span = self.trace_begin(ctx, "COPY", src_key);
        if let Err(e) = self.request_overhead(ctx, "COPY").await {
            self.finish(ctx, span, RequestClass::ClassA, 0, 0, true);
            return Err(e);
        }
        let data = match self.lookup(src_bucket, src_key) {
            Ok(d) => d,
            Err(e) => {
                self.finish(ctx, span, RequestClass::ClassA, 0, 0, true);
                return Err(e);
            }
        };
        // Internal move: backbone only.
        let wire = self.store.cfg.scaled_len(data.len());
        let flow = if self.trace.is_enabled() {
            let flow =
                self.trace
                    .span_start(Category::Flow, "copy", "store", &self.tag, span, ctx.now());
            self.trace.attr(flow, "wire_bytes", wire);
            flow
        } else {
            SpanId::NONE
        };
        ctx.transfer(ByteSize::new(wire), &self.links[1..2]).await;
        self.trace.span_end(flow, ctx.now());
        let result = self.commit_put(ctx, dst_bucket, dst_key, data);
        self.finish(ctx, span, RequestClass::ClassA, 0, 0, result.is_err());
        result
    }

    /// Starts a multipart upload for `key`.
    ///
    /// # Errors
    /// [`StoreError::NoSuchBucket`] if the bucket is unknown.
    pub async fn create_multipart(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        key: &str,
    ) -> Result<MultipartUpload, StoreError> {
        let span = self.trace_begin(ctx, "POST", key);
        if let Err(e) = self.request_overhead(ctx, "POST").await {
            self.finish(ctx, span, RequestClass::ClassA, 0, 0, true);
            return Err(e);
        }
        let result = {
            let mut buckets = self.store.buckets.lock();
            match buckets.get_mut(bucket) {
                None => Err(StoreError::NoSuchBucket {
                    bucket: bucket.to_string(),
                }),
                Some(b) => {
                    let id = self.store.next_upload.fetch_add(1, Ordering::SeqCst);
                    b.uploads.insert(
                        id,
                        PartialUpload {
                            key: key.to_string(),
                            parts: BTreeMap::new(),
                        },
                    );
                    Ok(MultipartUpload { id })
                }
            }
        };
        self.finish(ctx, span, RequestClass::ClassA, 0, 0, result.is_err());
        result
    }

    /// Uploads one part (parts are keyed by number; re-uploading a number
    /// replaces it).
    ///
    /// # Errors
    /// [`StoreError::NoSuchUpload`] if the upload id is unknown.
    pub async fn upload_part(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        upload: MultipartUpload,
        part_number: u32,
        data: Bytes,
    ) -> Result<(), StoreError> {
        let wire = self.store.cfg.scaled_len(data.len());
        let span = self.trace_begin(ctx, "PUT", "");
        self.trace.attr(span, "upload_id", upload.id);
        self.trace.attr(span, "part", part_number);
        if let Err(e) = self.request_overhead(ctx, "PUT").await {
            self.finish(ctx, span, RequestClass::ClassA, 0, 0, true);
            return Err(e);
        }
        self.transfer_scaled(ctx, data.len(), span).await;
        let result = {
            let mut buckets = self.store.buckets.lock();
            match buckets.get_mut(bucket) {
                None => Err(StoreError::NoSuchBucket {
                    bucket: bucket.to_string(),
                }),
                Some(b) => match b.uploads.get_mut(&upload.id) {
                    None => Err(StoreError::NoSuchUpload {
                        upload_id: upload.id,
                    }),
                    Some(u) => {
                        u.parts.insert(part_number, data);
                        Ok(())
                    }
                },
            }
        };
        self.finish(ctx, span, RequestClass::ClassA, wire, 0, result.is_err());
        result
    }

    /// Completes a multipart upload, concatenating parts in part-number
    /// order into the final object.
    ///
    /// # Errors
    /// [`StoreError::NoSuchUpload`] if the upload id is unknown.
    pub async fn complete_multipart(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        upload: MultipartUpload,
    ) -> Result<PutResult, StoreError> {
        let span = self.trace_begin(ctx, "POST", "");
        self.trace.attr(span, "upload_id", upload.id);
        if let Err(e) = self.request_overhead(ctx, "POST").await {
            self.finish(ctx, span, RequestClass::ClassA, 0, 0, true);
            return Err(e);
        }
        let assembled = {
            let mut buckets = self.store.buckets.lock();
            match buckets.get_mut(bucket) {
                None => Err(StoreError::NoSuchBucket {
                    bucket: bucket.to_string(),
                }),
                Some(b) => match b.uploads.remove(&upload.id) {
                    None => Err(StoreError::NoSuchUpload {
                        upload_id: upload.id,
                    }),
                    Some(u) => {
                        let total: usize = u.parts.values().map(|p| p.len()).sum();
                        let mut buf = Vec::with_capacity(total);
                        for part in u.parts.values() {
                            buf.extend_from_slice(part);
                        }
                        Ok((u.key, Bytes::from(buf)))
                    }
                },
            }
        };
        let result = match assembled {
            Err(e) => Err(e),
            Ok((key, data)) => self.commit_put(ctx, bucket, &key, data),
        };
        self.finish(ctx, span, RequestClass::ClassA, 0, 0, result.is_err());
        result
    }

    /// Abandons a multipart upload, discarding its parts. Unknown ids are
    /// ignored (idempotent, like S3 abort).
    ///
    /// # Errors
    /// [`StoreError::NoSuchBucket`] if the bucket is unknown.
    pub async fn abort_multipart(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        upload: MultipartUpload,
    ) -> Result<(), StoreError> {
        let span = self.trace_begin(ctx, "DELETE", "");
        self.trace.attr(span, "upload_id", upload.id);
        if let Err(e) = self.request_overhead(ctx, "DELETE").await {
            self.finish(ctx, span, RequestClass::Delete, 0, 0, true);
            return Err(e);
        }
        let result = {
            let mut buckets = self.store.buckets.lock();
            match buckets.get_mut(bucket) {
                None => Err(StoreError::NoSuchBucket {
                    bucket: bucket.to_string(),
                }),
                Some(b) => {
                    b.uploads.remove(&upload.id);
                    Ok(())
                }
            }
        };
        self.finish(ctx, span, RequestClass::Delete, 0, 0, result.is_err());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailurePolicy;
    use faaspipe_des::{Bandwidth, SimDuration, SimTime};
    use std::sync::Mutex as StdMutex;

    fn quiet_config() -> StoreConfig {
        // Zero latency / unlimited bandwidth for pure data-plane tests.
        StoreConfig {
            first_byte_latency: SimDuration::ZERO,
            per_connection_bw: Bandwidth::UNLIMITED,
            aggregate_bw: Bandwidth::UNLIMITED,
            ops_per_sec: 1e9,
            ops_burst: 1e9,
            size_scale: 1.0,
            failure: FailurePolicy::none(),
        }
    }

    /// Runs `f` inside a fresh sim with a store using `cfg`, returning the
    /// store and the end time.
    fn run_with<F>(cfg: StoreConfig, f: F) -> (Arc<ObjectStore>, SimTime)
    where
        F: AsyncFnOnce(&mut Ctx, &StoreClient) + 'static,
    {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, cfg);
        store.create_bucket("b").expect("fresh bucket");
        let handle = Arc::clone(&store);
        sim.spawn("test", move |mut ctx| async move {
            let ctx = &mut ctx;
            let client = handle.connect(ctx, "test").await;
            f(ctx, &client).await;
        });
        let report = sim.run().expect("sim ok");
        (store, report.end_time)
    }

    #[test]
    fn put_get_round_trip() {
        let (store, _) = run_with(quiet_config(), async |ctx, c| {
            let put = c
                .put(ctx, "b", "k", Bytes::from("payload"))
                .await
                .expect("put");
            assert_eq!(put.len.as_u64(), 7);
            let got = c.get(ctx, "b", "k").await.expect("get");
            assert_eq!(&got[..], b"payload");
        });
        assert_eq!(store.object_count("b"), 1);
    }

    #[test]
    fn get_missing_key_fails() {
        run_with(quiet_config(), async |ctx, c| {
            let err = c.get(ctx, "b", "nope").await.expect_err("missing");
            assert!(matches!(err, StoreError::NoSuchKey { .. }));
            let err = c
                .get(ctx, "nobucket", "k")
                .await
                .expect_err("missing bucket");
            assert!(matches!(err, StoreError::NoSuchBucket { .. }));
        });
    }

    #[test]
    fn put_overwrites() {
        let (store, _) = run_with(quiet_config(), async |ctx, c| {
            c.put(ctx, "b", "k", Bytes::from("one")).await.expect("put");
            c.put(ctx, "b", "k", Bytes::from("two")).await.expect("put");
            assert_eq!(&c.get(ctx, "b", "k").await.expect("get")[..], b"two");
        });
        assert_eq!(store.object_count("b"), 1);
    }

    #[test]
    fn put_if_absent_enforces_precondition() {
        run_with(quiet_config(), async |ctx, c| {
            c.put_if_absent(ctx, "b", "k", Bytes::from("x"))
                .await
                .expect("first");
            let err = c
                .put_if_absent(ctx, "b", "k", Bytes::from("y"))
                .await
                .expect_err("second");
            assert!(matches!(err, StoreError::PreconditionFailed { .. }));
            assert_eq!(&c.get(ctx, "b", "k").await.expect("get")[..], b"x");
        });
    }

    #[test]
    fn concurrent_put_if_absent_has_exactly_one_winner() {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        store.create_bucket("b").expect("bucket");
        let wins = Arc::new(StdMutex::new(0usize));
        for i in 0..4 {
            let store = Arc::clone(&store);
            let wins = Arc::clone(&wins);
            sim.spawn(format!("creator{}", i), move |mut ctx| async move {
                let ctx = &mut ctx;
                let c = store.connect(ctx, "race").await;
                match c
                    .put_if_absent(ctx, "b", "lock", Bytes::from(format!("{}", i)))
                    .await
                {
                    Ok(_) => *wins.lock().unwrap() += 1,
                    Err(StoreError::PreconditionFailed { .. }) => {}
                    Err(e) => panic!("unexpected: {}", e),
                }
            });
        }
        sim.run().expect("sim ok");
        assert_eq!(*wins.lock().unwrap(), 1, "exactly one creator wins");
        assert_eq!(store.object_count("b"), 1);
    }

    #[test]
    fn put_if_match_is_a_cas() {
        run_with(quiet_config(), async |ctx, c| {
            let v1 = c.put(ctx, "b", "k", Bytes::from("one")).await.expect("put");
            // Matching etag swaps.
            let v2 = c
                .put_if_match(ctx, "b", "k", v1.etag, Bytes::from("two"))
                .await
                .expect("cas");
            assert_ne!(v1.etag, v2.etag);
            // Stale etag fails and leaves the value intact.
            let err = c
                .put_if_match(ctx, "b", "k", v1.etag, Bytes::from("three"))
                .await
                .expect_err("stale");
            assert!(matches!(err, StoreError::PreconditionFailed { .. }));
            assert_eq!(&c.get(ctx, "b", "k").await.expect("get")[..], b"two");
            // Missing key fails too.
            let err = c
                .put_if_match(ctx, "b", "nope", 0, Bytes::from("x"))
                .await
                .expect_err("missing");
            assert!(matches!(err, StoreError::PreconditionFailed { .. }));
        });
    }

    #[test]
    fn cas_serializes_concurrent_incrementers() {
        // Two processes CAS-increment a counter; retries resolve the race
        // and no update is lost.
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        store.create_bucket("b").expect("bucket");
        store
            .put_untimed("b", "counter", Bytes::from("0"))
            .expect("init");
        for i in 0..2 {
            let store = Arc::clone(&store);
            sim.spawn(format!("inc{}", i), move |mut ctx| async move {
                let ctx = &mut ctx;
                let c = store.connect(ctx, "cas").await;
                for _ in 0..5 {
                    loop {
                        let meta = c.head(ctx, "b", "counter").await.expect("head");
                        let cur: u64 = String::from_utf8_lossy(
                            &c.get(ctx, "b", "counter").await.expect("get"),
                        )
                        .parse()
                        .expect("number");
                        let next = Bytes::from((cur + 1).to_string());
                        match c.put_if_match(ctx, "b", "counter", meta.etag, next).await {
                            Ok(_) => break,
                            Err(StoreError::PreconditionFailed { .. }) => continue,
                            Err(e) => panic!("unexpected: {}", e),
                        }
                    }
                }
            });
        }
        sim.run().expect("sim ok");
        let final_value = store.peek("b", "counter").expect("counter");
        assert_eq!(&final_value[..], b"10", "no lost updates");
    }

    #[test]
    fn range_get_slices_and_validates() {
        run_with(quiet_config(), async |ctx, c| {
            c.put(ctx, "b", "k", Bytes::from("0123456789"))
                .await
                .expect("put");
            let part = c.get_range(ctx, "b", "k", 2, 3).await.expect("range");
            assert_eq!(&part[..], b"234");
            let whole = c.get_range(ctx, "b", "k", 0, 10).await.expect("full range");
            assert_eq!(whole.len(), 10);
            let err = c.get_range(ctx, "b", "k", 8, 5).await.expect_err("overrun");
            assert!(matches!(
                err,
                StoreError::InvalidRange { object_len: 10, .. }
            ));
        });
    }

    #[test]
    fn list_filters_by_prefix_in_order() {
        run_with(quiet_config(), async |ctx, c| {
            for key in ["a/1", "a/2", "b/1", "a10"] {
                c.put(ctx, "b", key, Bytes::from("x")).await.expect("put");
            }
            let got = c.list(ctx, "b", "a/").await.expect("list");
            let keys: Vec<&str> = got.iter().map(|o| o.key.as_str()).collect();
            assert_eq!(keys, vec!["a/1", "a/2"]);
            let all = c.list(ctx, "b", "").await.expect("list all");
            assert_eq!(all.len(), 4);
        });
    }

    #[test]
    fn paginated_listing_walks_all_keys() {
        run_with(quiet_config(), async |ctx, c| {
            for i in 0..23 {
                c.put(ctx, "b", &format!("p/{:03}", i), Bytes::from("x"))
                    .await
                    .expect("put");
            }
            c.put(ctx, "b", "q/other", Bytes::from("x"))
                .await
                .expect("put");
            let mut seen = Vec::new();
            let mut after = String::new();
            let mut pages = 0;
            loop {
                let (page, token) = c.list_page(ctx, "b", "p/", &after, 10).await.expect("page");
                assert!(page.len() <= 10);
                seen.extend(page.iter().map(|o| o.key.clone()));
                pages += 1;
                match token {
                    Some(t) => after = t,
                    None => break,
                }
            }
            assert_eq!(pages, 3, "23 keys at 10/page");
            assert_eq!(seen.len(), 23);
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "sorted, no dupes");
            assert!(seen.iter().all(|k| k.starts_with("p/")));
        });
    }

    #[test]
    fn pagination_exact_page_boundary_has_no_extra_page() {
        run_with(quiet_config(), async |ctx, c| {
            for i in 0..10 {
                c.put(ctx, "b", &format!("p/{:03}", i), Bytes::from("x"))
                    .await
                    .expect("put");
            }
            let (page, token) = c.list_page(ctx, "b", "p/", "", 10).await.expect("page");
            assert_eq!(page.len(), 10);
            assert!(token.is_none(), "exactly one page");
        });
    }

    #[test]
    fn pagination_counts_class_a_per_page() {
        let (store, _) = run_with(quiet_config(), async |ctx, c| {
            for i in 0..5 {
                c.put(ctx, "b", &format!("p/{}", i), Bytes::from("x"))
                    .await
                    .expect("put");
            }
            let (_, t) = c.list_page(ctx, "b", "p/", "", 2).await.expect("p1");
            let (_, t) = c
                .list_page(ctx, "b", "p/", &t.expect("more"), 2)
                .await
                .expect("p2");
            let (_, t) = c
                .list_page(ctx, "b", "p/", &t.expect("more"), 2)
                .await
                .expect("p3");
            assert!(t.is_none());
        });
        // 5 puts + 3 list pages.
        assert_eq!(store.metrics().total().class_a, 8);
    }

    #[test]
    fn delete_is_idempotent() {
        let (store, _) = run_with(quiet_config(), async |ctx, c| {
            c.put(ctx, "b", "k", Bytes::from("x")).await.expect("put");
            c.delete(ctx, "b", "k").await.expect("delete");
            c.delete(ctx, "b", "k").await.expect("delete again");
            assert!(!c.exists(ctx, "b", "k").await.expect("exists"));
        });
        assert_eq!(store.object_count("b"), 0);
    }

    #[test]
    fn head_reports_metadata() {
        run_with(quiet_config(), async |ctx, c| {
            c.put(ctx, "b", "k", Bytes::from("abcd"))
                .await
                .expect("put");
            let meta = c.head(ctx, "b", "k").await.expect("head");
            assert_eq!(meta.len.as_u64(), 4);
            assert_eq!(meta.key, "k");
        });
    }

    #[test]
    fn copy_duplicates_server_side() {
        run_with(quiet_config(), async |ctx, c| {
            c.put(ctx, "b", "src", Bytes::from("data"))
                .await
                .expect("put");
            c.copy(ctx, "b", "src", "b", "dst").await.expect("copy");
            assert_eq!(&c.get(ctx, "b", "dst").await.expect("get")[..], b"data");
        });
    }

    #[test]
    fn multipart_concatenates_in_part_order() {
        run_with(quiet_config(), async |ctx, c| {
            let up = c.create_multipart(ctx, "b", "big").await.expect("create");
            // Upload out of order.
            c.upload_part(ctx, "b", up, 2, Bytes::from("world"))
                .await
                .expect("p2");
            c.upload_part(ctx, "b", up, 1, Bytes::from("hello "))
                .await
                .expect("p1");
            let done = c.complete_multipart(ctx, "b", up).await.expect("complete");
            assert_eq!(done.len.as_u64(), 11);
            assert_eq!(
                &c.get(ctx, "b", "big").await.expect("get")[..],
                b"hello world"
            );
        });
    }

    #[test]
    fn multipart_abort_discards() {
        let (store, _) = run_with(quiet_config(), async |ctx, c| {
            let up = c.create_multipart(ctx, "b", "gone").await.expect("create");
            c.upload_part(ctx, "b", up, 1, Bytes::from("x"))
                .await
                .expect("p1");
            c.abort_multipart(ctx, "b", up).await.expect("abort");
            let err = c
                .complete_multipart(ctx, "b", up)
                .await
                .expect_err("aborted");
            assert!(matches!(err, StoreError::NoSuchUpload { .. }));
        });
        assert_eq!(store.object_count("b"), 0);
    }

    #[test]
    fn request_latency_is_charged() {
        let cfg = StoreConfig {
            first_byte_latency: SimDuration::from_millis(30),
            ..quiet_config()
        };
        let (_, end) = run_with(cfg, async |ctx, c| {
            c.put(ctx, "b", "k", Bytes::from("x")).await.expect("put");
            c.get(ctx, "b", "k").await.expect("get");
        });
        assert_eq!(end, SimTime::from_nanos(60_000_000));
    }

    #[test]
    fn transfer_time_follows_connection_bandwidth() {
        let cfg = StoreConfig {
            per_connection_bw: Bandwidth::bytes_per_sec(1000.0),
            ..quiet_config()
        };
        let (_, end) = run_with(cfg, async |ctx, c| {
            c.put(ctx, "b", "k", Bytes::from(vec![0u8; 2000]))
                .await
                .expect("put");
        });
        assert!((end.as_secs_f64() - 2.0).abs() < 1e-7);
    }

    #[test]
    fn ops_limiter_throttles_small_requests() {
        let cfg = StoreConfig {
            ops_per_sec: 10.0,
            ops_burst: 1.0,
            ..quiet_config()
        };
        let (_, end) = run_with(cfg, async |ctx, c| {
            for i in 0..11 {
                c.put(ctx, "b", &format!("k{}", i), Bytes::new())
                    .await
                    .expect("put");
            }
        });
        // First request rides the burst; the next 10 wait 0.1 s each.
        assert!((end.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn size_scale_inflates_wire_size_not_content() {
        let cfg = StoreConfig {
            per_connection_bw: Bandwidth::bytes_per_sec(1000.0),
            ..quiet_config()
        }
        .with_size_scale(10.0);
        let (store, end) = run_with(cfg, async |ctx, c| {
            c.put(ctx, "b", "k", Bytes::from(vec![7u8; 100]))
                .await
                .expect("put");
            let data = c.get(ctx, "b", "k").await.expect("get");
            assert_eq!(data.len(), 100, "real content is unscaled");
        });
        // 100 real bytes modelled as 1000 wire bytes, twice (put+get) at
        // 1000 B/s => 2 s.
        assert!((end.as_secs_f64() - 2.0).abs() < 1e-7);
        assert_eq!(store.stored_bytes().as_u64(), 100);
        let total = store.metrics().total();
        assert_eq!(total.bytes_in.as_u64(), 1000);
        assert_eq!(total.bytes_out.as_u64(), 1000);
    }

    #[test]
    fn metrics_attribute_by_tag_and_class() {
        let (store, _) = run_with(quiet_config(), async |ctx, c| {
            c.put(ctx, "b", "k", Bytes::from("x")).await.expect("put");
            c.get(ctx, "b", "k").await.expect("get");
            c.list(ctx, "b", "").await.expect("list");
            c.delete(ctx, "b", "k").await.expect("delete");
        });
        let m = store.metrics();
        let t = m.tag("test").expect("tag recorded");
        assert_eq!(t.class_a, 2); // put + list
        assert_eq!(t.class_b, 1); // get
        assert_eq!(t.deletes, 1);
        assert_eq!(t.errors, 0);
    }

    #[test]
    fn injected_failures_surface_and_count() {
        let cfg = quiet_config().with_failure(FailurePolicy::with_error_rate(1.0));
        let (store, _) = run_with(cfg, async |ctx, c| {
            let err = c
                .put(ctx, "b", "k", Bytes::from("x"))
                .await
                .expect_err("injected");
            assert!(matches!(err, StoreError::Injected { op: "PUT" }));
        });
        assert_eq!(store.object_count("b"), 0, "failed put must not commit");
        assert_eq!(store.metrics().total().errors, 1);
    }

    #[test]
    fn slowdown_injection_inflates_latency() {
        let cfg = StoreConfig {
            first_byte_latency: SimDuration::from_millis(10),
            ..quiet_config()
        }
        .with_failure(FailurePolicy::with_slowdown(1.0, 5.0));
        let (_, end) = run_with(cfg, async |ctx, c| {
            c.put(ctx, "b", "k", Bytes::from("x")).await.expect("put");
        });
        assert_eq!(end, SimTime::from_nanos(50_000_000));
    }

    #[test]
    fn concurrent_writers_share_aggregate_bandwidth() {
        let mut sim = Sim::new();
        let cfg = StoreConfig {
            first_byte_latency: SimDuration::ZERO,
            per_connection_bw: Bandwidth::bytes_per_sec(1000.0),
            aggregate_bw: Bandwidth::bytes_per_sec(1000.0),
            ops_per_sec: 1e9,
            ops_burst: 1e9,
            size_scale: 1.0,
            failure: FailurePolicy::none(),
        };
        let store = ObjectStore::install(&mut sim, cfg);
        store.create_bucket("b").expect("bucket");
        let finish = Arc::new(StdMutex::new(Vec::new()));
        for i in 0..2 {
            let handle = Arc::clone(&store);
            let finish = Arc::clone(&finish);
            sim.spawn(format!("w{}", i), move |mut ctx| async move {
                let ctx = &mut ctx;
                let c = handle.connect(ctx, format!("w{}", i)).await;
                c.put(ctx, "b", &format!("k{}", i), Bytes::from(vec![0u8; 1000]))
                    .await
                    .expect("put");
                finish.lock().unwrap().push(ctx.now().as_secs_f64());
            });
        }
        sim.run().expect("run");
        // Two 1000-byte puts share a 1000 B/s backbone: both take 2 s.
        for t in finish.lock().unwrap().iter() {
            assert!((t - 2.0).abs() < 1e-6, "got {}", t);
        }
    }

    #[test]
    fn bucket_create_conflict() {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, quiet_config());
        store.create_bucket("b").expect("first");
        let err = store.create_bucket("b").expect_err("duplicate");
        assert!(matches!(err, StoreError::BucketAlreadyExists { .. }));
    }

    #[test]
    fn scope_ops_limit_throttles_only_that_tenant() {
        let mut sim = Sim::new();
        let cfg = StoreConfig {
            first_byte_latency: SimDuration::ZERO,
            ..quiet_config()
        };
        let store = ObjectStore::install(&mut sim, cfg);
        store.create_bucket("b").expect("bucket");
        // t0 gets 1 op/s with a single-token burst; t1 is unlimited.
        store.set_scope_ops_limit(&mut sim, "t0", 1.0, 1.0);
        let finish = Arc::new(StdMutex::new(BTreeMap::new()));
        for tenant in ["t0", "t1"] {
            let handle = Arc::clone(&store);
            let finish = Arc::clone(&finish);
            sim.spawn(format!("{}-driver", tenant), move |mut ctx| async move {
                let ctx = &mut ctx;
                let c = handle.connect(ctx, format!("{}/r0/sort", tenant)).await;
                for i in 0..3 {
                    c.put(ctx, "b", &format!("{}/{}", tenant, i), Bytes::from("x"))
                        .await
                        .expect("put");
                }
                finish
                    .lock()
                    .unwrap()
                    .insert(tenant, ctx.now().as_secs_f64());
            });
        }
        sim.run().expect("run");
        let finish = finish.lock().unwrap();
        // Three ops at 1 op/s, first from the burst: t0 finishes at 2 s.
        assert!((finish["t0"] - 2.0).abs() < 1e-6, "got {}", finish["t0"]);
        assert!(finish["t1"] < 1e-6, "got {}", finish["t1"]);
    }

    #[test]
    fn scoped_metrics_aggregate_by_tag_prefix() {
        let mut m = StoreMetrics::new();
        m.record("t0/r0/sort", RequestClass::ClassA, 10, 0, false);
        m.record("t0/r1/sort", RequestClass::ClassB, 0, 5, false);
        m.record("t1/r0/sort", RequestClass::ClassA, 7, 0, false);
        m.record("t10/r0/sort", RequestClass::ClassA, 9, 0, false);
        let t0 = m.total_for_scope("t0");
        assert_eq!(t0.total_requests(), 2);
        assert_eq!(t0.bytes_in.as_u64(), 10);
        assert_eq!(t0.bytes_out.as_u64(), 5);
        // "t10/..." must not leak into scope "t1".
        assert_eq!(m.total_for_scope("t1").bytes_in.as_u64(), 7);
    }
}
