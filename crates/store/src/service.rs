//! The object-store service and its per-connection client.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use faaspipe_des::{ByteSize, Ctx, FlowLinks, LimiterId, LinkId, OwnedLink, Sim};
use faaspipe_trace::{Category, SpanId, TraceSink};

use crate::config::StoreConfig;
use crate::error::StoreError;
use crate::failure::Fate;
use crate::metrics::{RequestClass, StoreMetrics};
use crate::object::{Bucket, ObjectSummary};

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
    /// link, released when the client drops.
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
        let conn = ctx.link_create_owned(self.cfg.per_connection_bw).await;
        let mut links = FlowLinks::from([conn.id(), self.aggregate].as_slice());
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
            _conn: conn,
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
    pub fn put_untimed(&self, bucket: &str, key: &str, data: Bytes) -> Result<(), StoreError> {
        self.commit(bucket, key, data)
    }

    /// Removes a bucket and every object in it **outside virtual time and
    /// billing**: no request, no metrics. The host memory holding its
    /// objects is freed once no reader still shares their bytes. A later
    /// request to the bucket fails with [`StoreError::NoSuchBucket`].
    pub fn drop_bucket_untimed(&self, bucket: &str) {
        self.buckets.lock().remove(bucket);
    }

    /// Stores `data` at `key`, replacing any object there.
    fn commit(&self, bucket: &str, key: &str, data: Bytes) -> Result<(), StoreError> {
        self.buckets
            .lock()
            .get_mut(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket {
                bucket: bucket.to_string(),
            })?
            .insert(key.to_string(), data);
        Ok(())
    }

    /// Lists keys under a prefix **outside virtual time** (verification
    /// and test use).
    pub fn keys_untimed(&self, bucket: &str, prefix: &str) -> Vec<String> {
        self.buckets
            .lock()
            .get(bucket)
            .map(|b| {
                b.range(prefix.to_string()..)
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
            .and_then(|b| b.get(key))
            .cloned()
    }

    /// Number of objects in a bucket (0 for unknown buckets).
    pub fn object_count(&self, bucket: &str) -> usize {
        self.buckets.lock().get(bucket).map_or(0, |b| b.len())
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
    /// The connection's link, released when the client drops.
    _conn: OwnedLink,
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

impl StoreClient {
    /// Charges the fixed request overhead: an ops/s slot plus first-byte
    /// latency. Returns an injected error without touching state when the
    /// failure policy says so.
    async fn request_overhead(&self, ctx: &mut Ctx, op: &'static str) -> Result<(), StoreError> {
        let cfg = &self.store.cfg;
        ctx.limiter_acquire(self.store.ops, 1.0).await;
        if let Some(scope_ops) = self.scope_ops {
            ctx.limiter_acquire(scope_ops, 1.0).await;
        }
        let fate = cfg.failure.draw(ctx.rng());
        ctx.sleep(cfg.first_byte_latency).await;
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
    ) -> Result<(), StoreError> {
        let wire = self.store.cfg.scaled_len(data.len());
        let span = self.trace_begin(ctx, "PUT", key);
        if let Err(e) = self.request_overhead(ctx, "PUT").await {
            self.finish(ctx, span, RequestClass::ClassA, 0, 0, true);
            return Err(e);
        }
        self.transfer_scaled(ctx, data.len(), span).await;
        // The write lands once its payload has arrived.
        let result = self.store.commit(bucket, key, data);
        self.finish(ctx, span, RequestClass::ClassA, wire, 0, result.is_err());
        result
    }

    /// Downloads a whole object.
    ///
    /// # Errors
    /// [`StoreError::NoSuchBucket`] / [`StoreError::NoSuchKey`] when
    /// missing; [`StoreError::Injected`] under fault injection.
    pub async fn get(&self, ctx: &mut Ctx, bucket: &str, key: &str) -> Result<Bytes, StoreError> {
        self.read(ctx, bucket, key, None).await
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
        self.read(ctx, bucket, key, Some((offset, len))).await
    }

    /// One GET: the whole object, or the `(offset, len)` slice of it.
    async fn read(
        &self,
        ctx: &mut Ctx,
        bucket: &str,
        key: &str,
        range: Option<(u64, u64)>,
    ) -> Result<Bytes, StoreError> {
        let span = self.trace_begin(ctx, "GET", key);
        if let Err(e) = self.request_overhead(ctx, "GET").await {
            self.finish(ctx, span, RequestClass::ClassB, 0, 0, true);
            return Err(e);
        }
        let result = self.lookup(bucket, key).and_then(|data| {
            let Some((offset, len)) = range else {
                return Ok(data);
            };
            match offset.checked_add(len) {
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
            Ok(data) => {
                let wire = self.store.cfg.scaled_len(data.len());
                self.transfer_scaled(ctx, data.len(), span).await;
                self.finish(ctx, span, RequestClass::ClassB, 0, wire, false);
                Ok(data)
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
        b.get(key).cloned().ok_or_else(|| StoreError::NoSuchKey {
            bucket: bucket.to_string(),
            key: key.to_string(),
        })
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
                    b.range(prefix.to_string()..)
                        .take_while(|(k, _)| k.starts_with(prefix))
                        .map(|(k, data)| ObjectSummary {
                            key: k.clone(),
                            len: ByteSize::new(data.len() as u64),
                        })
                        .collect::<Vec<_>>()
                })
        };
        self.finish(ctx, span, RequestClass::ClassA, 0, 0, result.is_err());
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
            c.put(ctx, "b", "k", Bytes::from("payload"))
                .await
                .expect("put");
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
            for (key, len) in [("a/2", 2), ("a/1", 1), ("b/1", 3), ("a10", 4)] {
                c.put(ctx, "b", key, Bytes::from(vec![0u8; len]))
                    .await
                    .expect("put");
            }
            let got = c.list(ctx, "b", "a/").await.expect("list");
            let entries: Vec<(&str, u64)> = got
                .iter()
                .map(|o| (o.key.as_str(), o.len.as_u64()))
                .collect();
            assert_eq!(entries, vec![("a/1", 1), ("a/2", 2)]);
            let all = c.list(ctx, "b", "").await.expect("list all");
            assert_eq!(all.len(), 4);
        });
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
        assert_eq!(store.peek("b", "k").map(|d| d.len()), Some(100));
        let total = store.metrics().total();
        assert_eq!(total.bytes_in.as_u64(), 1000);
        assert_eq!(total.bytes_out.as_u64(), 1000);
    }

    #[test]
    fn metrics_attribute_by_tag_and_class() {
        let (store, _) = run_with(quiet_config(), async |ctx, c| {
            c.put(ctx, "b", "k", Bytes::from("x")).await.expect("put");
            c.get(ctx, "b", "k").await.expect("get");
            c.get_range(ctx, "b", "k", 0, 1).await.expect("range");
            c.list(ctx, "b", "").await.expect("list");
        });
        let m = store.metrics();
        let t = m.tag("test").expect("tag recorded");
        assert_eq!(t.class_a, 2); // put + list
        assert_eq!(t.class_b, 2); // get + ranged get
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
    fn dropping_a_bucket_is_untimed_and_frees_its_objects() {
        let (store, _) = run_with(quiet_config(), async |ctx, c| {
            c.put(ctx, "b", "k", Bytes::from("x")).await.expect("put");
        });
        let before = store.metrics().total();
        store.drop_bucket_untimed("b");
        assert_eq!(store.metrics().total(), before, "no request is booked");
        let err = store
            .put_untimed("b", "k", Bytes::from("y"))
            .expect_err("bucket dropped");
        assert!(matches!(err, StoreError::NoSuchBucket { .. }));
        store.create_bucket("b").expect("the name is free again");
        assert_eq!(store.object_count("b"), 0);
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
