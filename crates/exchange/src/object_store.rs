//! The paper's serverless exchange: every byte through object storage.

use std::sync::Arc;

use bytes::Bytes;
use faaspipe_des::{Ctx, FlowLinks, LocalBoxFuture};
use faaspipe_store::ObjectStore;
use faaspipe_trace::{SpanId, TraceSink};
use parking_lot::Mutex;

use crate::api::{DataExchange, ExchangeEnv, ExchangeStrategy};
use crate::error::ExchangeError;
use crate::retry::with_retry;

/// Exchange through the simulated COS, in either the `Scatter` (W²
/// objects) or `Coalesced` (W objects + byte-range reads) layout.
///
/// Coalesced offset tables travel through the backend itself, modelling
/// the Lithops result objects that carry them back to the orchestrator.
/// [`cleanup`](DataExchange::cleanup) intentionally leaves the
/// intermediate objects in place — the paper's pipelines rely on bucket
/// lifecycle expiry, and keeping them lets experiments inspect the
/// layout after a run.
pub struct ObjectStoreExchange {
    store: Arc<ObjectStore>,
    /// Shared with every fetch fan-out's jobs.
    bucket: Arc<str>,
    prefix: String,
    layout: ExchangeStrategy,
    /// Sparse per-mapper offset tables for the coalesced layout.
    index: Mutex<CoalescedIndex>,
}

/// Sparse per-mapper offset index for the coalesced layout: only
/// non-empty partitions get `(part, offset, len)` entries, with a
/// per-mapper part count to tell "written but empty" apart from "never
/// written". The dense W×W table this replaces held 268M entries at
/// W=16384 — nearly all zero-length once records spread thin.
#[derive(Default)]
struct CoalescedIndex {
    /// Per mapper: how many partitions its write produced (0 = never
    /// written).
    parts_len: Vec<u32>,
    /// Per mapper: `(part, offset, len)` for non-empty partitions only,
    /// part-ascending (so lookups binary-search).
    tables: Vec<Vec<(u32, u64, u64)>>,
    /// Per mapper: the key of its coalesced object, once written. Every
    /// read of the object shares this one copy.
    keys: Vec<Option<Arc<str>>>,
    /// Per *part*: `(map, offset, len)` for non-empty partitions only,
    /// map-ascending — the reducer-side view of `tables`, rebuilt lazily
    /// after writes so a whole-column gather is O(non-empty).
    by_part: Vec<Vec<(u32, u64, u64)>>,
    by_part_valid: bool,
    /// Mappers recorded so far (each counted once).
    recorded: usize,
    /// Minimum `parts_len` among recorded mappers (`u32::MAX` if none):
    /// the O(1) availability fast path for gathers.
    min_parts_len: u32,
}

impl CoalescedIndex {
    fn reset(&mut self, maps: usize) {
        self.parts_len.clear();
        self.parts_len.resize(maps, 0);
        self.tables.clear();
        self.tables.resize_with(maps, Vec::new);
        self.keys.clear();
        self.keys.resize(maps, None);
        self.by_part.clear();
        self.by_part_valid = false;
        self.recorded = 0;
        self.min_parts_len = u32::MAX;
    }

    fn record(&mut self, map: usize, key: Arc<str>, parts_len: usize, table: Vec<(u32, u64, u64)>) {
        if self.parts_len.len() <= map {
            self.parts_len.resize(map + 1, 0);
            self.tables.resize_with(map + 1, Vec::new);
            self.keys.resize(map + 1, None);
        }
        self.keys[map] = Some(key);
        if self.parts_len[map] == 0 {
            self.recorded += 1;
        }
        self.parts_len[map] = parts_len as u32;
        self.min_parts_len = self.min_parts_len.min(parts_len as u32);
        self.tables[map] = table;
        self.by_part_valid = false;
    }

    /// The range reads of the non-empty entries of column `part` over
    /// mappers `0..maps`, map-ascending, after verifying every one of
    /// those mappers wrote the column (same first-failure the dense
    /// per-request lookups produced).
    fn gather(&mut self, maps: usize, part: usize) -> Result<Vec<Fetch>, ExchangeError> {
        let complete = self.recorded == self.parts_len.len()
            && maps <= self.parts_len.len()
            && (part as u32) < self.min_parts_len;
        if !complete {
            for map in 0..maps {
                let written = self.parts_len.get(map).copied().unwrap_or(0);
                if part >= written as usize {
                    return Err(ExchangeError::MissingPartition { map, part });
                }
            }
        }
        if !self.by_part_valid {
            let parts = self.parts_len.iter().copied().max().unwrap_or(0) as usize;
            self.by_part.clear();
            self.by_part.resize_with(parts, Vec::new);
            for (m, table) in self.tables.iter().enumerate() {
                for &(p, off, len) in table {
                    self.by_part[p as usize].push((m as u32, off, len));
                }
            }
            self.by_part_valid = true;
        }
        Ok(self
            .by_part
            .get(part)
            .map(|column| {
                column
                    .iter()
                    .filter(|&&(m, _, _)| (m as usize) < maps)
                    .map(|&(m, off, len)| Fetch::Range(self.key(m as usize), off, len))
                    .collect()
            })
            .unwrap_or_default())
    }

    /// The key of mapper `map`'s object; it has been recorded.
    fn key(&self, map: usize) -> Arc<str> {
        Arc::clone(
            self.keys[map]
                .as_ref()
                .expect("a recorded mapper has a key"),
        )
    }

    /// The read of partition `(map, part)`: a range read for a non-empty
    /// partition, [`Fetch::Empty`] for a written-but-empty one,
    /// `Err(MissingPartition)` otherwise — exactly the semantics the dense
    /// table's `get(map).get(part)` had.
    fn fetch(&self, map: usize, part: usize) -> Result<Fetch, ExchangeError> {
        Ok(match self.lookup(map, part)? {
            Some((off, len)) => Fetch::Range(self.key(map), off, len),
            None => Fetch::Empty,
        })
    }

    /// `Ok(Some((off, len)))` for a non-empty partition, `Ok(None)` for
    /// a written-but-empty one, `Err(MissingPartition)` otherwise.
    fn lookup(&self, map: usize, part: usize) -> Result<Option<(u64, u64)>, ExchangeError> {
        let parts_len = *self
            .parts_len
            .get(map)
            .ok_or(ExchangeError::MissingPartition { map, part })?;
        if part >= parts_len as usize {
            return Err(ExchangeError::MissingPartition { map, part });
        }
        let table = &self.tables[map];
        match table.binary_search_by_key(&(part as u32), |&(p, _, _)| p) {
            Ok(i) => {
                let (_, off, len) = table[i];
                Ok(Some((off, len)))
            }
            Err(_) => Ok(None),
        }
    }
}

impl std::fmt::Debug for ObjectStoreExchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStoreExchange")
            .field("bucket", &self.bucket)
            .field("prefix", &self.prefix)
            .field("layout", &self.layout)
            .finish()
    }
}

impl ObjectStoreExchange {
    /// Creates a backend writing intermediates under
    /// `{prefix}{map:05}[/{part:05}]` in `bucket`.
    pub fn new(
        store: Arc<ObjectStore>,
        bucket: impl Into<String>,
        prefix: impl Into<String>,
        layout: ExchangeStrategy,
    ) -> ObjectStoreExchange {
        ObjectStoreExchange {
            store,
            bucket: bucket.into().into(),
            prefix: prefix.into(),
            layout,
            index: Mutex::new(CoalescedIndex::default()),
        }
    }

    fn scatter_key(&self, map: usize, part: usize) -> String {
        format!("{}{:05}/{:05}", self.prefix, map, part)
    }

    fn coalesced_key(&self, map: usize) -> Arc<str> {
        format!("{}{:05}", self.prefix, map).into()
    }

    /// Runs one store request per fetch plan in child processes, at most
    /// `env.io_window` in flight, each on its own store connection (so
    /// aggregate throughput scales with the window until the caller's
    /// NIC or the store's aggregate cap saturates). Results come back in
    /// plan order.
    ///
    /// [`Fetch::Empty`] plans never leave the host: they issue no store
    /// request, touch no simulated resource, and draw no randomness, so
    /// their jobs are elided outright and their result slots pre-filled.
    /// The worker count is pinned to the *full* plan count
    /// ([`Ctx::fan_out_sparse`]), which keeps pid assignment and
    /// the virtual-time schedule byte-identical to a fan-out that ran
    /// the empty jobs — without materialising W² closures per stage at
    /// large W.
    async fn fetch_windowed(
        &self,
        ctx: &mut Ctx,
        env: &ExchangeEnv,
        plans: Vec<Fetch>,
    ) -> Result<Vec<Bytes>, ExchangeError> {
        let shared = self.fetch_shared(ctx, env);
        let total = plans.len();
        let jobs: Vec<_> = plans
            .into_iter()
            .enumerate()
            .filter(|(_, plan)| !matches!(plan, Fetch::Empty))
            .map(|(i, plan)| (i, shared.job(plan)))
            .collect();
        let name = format!("{}-get", env.tag);
        let results = ctx
            .fan_out_sparse(&name, env.io_window, total, jobs, || Ok(Bytes::new()))
            .await
            .unwrap_or_else(|e| panic!("windowed store read crashed: {}", e));
        results.into_iter().collect()
    }

    /// [`ObjectStoreExchange::fetch_windowed`] for a pre-filtered plan
    /// list: every plan is a real request, and the worker count is
    /// pinned to what a `logical_total`-plan fan-out would spawn, so a
    /// gather that elided its empty column entries keeps the exact
    /// virtual-time schedule of the dense one. Returns one payload per
    /// plan, in plan order.
    async fn fetch_pinned(
        &self,
        ctx: &mut Ctx,
        env: &ExchangeEnv,
        logical_total: usize,
        plans: Vec<Fetch>,
    ) -> Result<Vec<Bytes>, ExchangeError> {
        let shared = self.fetch_shared(ctx, env);
        let jobs: Vec<_> = plans.into_iter().map(|plan| shared.job(plan)).collect();
        let name = format!("{}-get", env.tag);
        let results = ctx
            .fan_out_pinned(&name, env.io_window, logical_total, jobs)
            .await
            .unwrap_or_else(|e| panic!("windowed store read crashed: {}", e));
        results.into_iter().collect()
    }

    /// What every job of one fetch fan-out by the calling process shares.
    fn fetch_shared(&self, ctx: &Ctx, env: &ExchangeEnv) -> Arc<FetchShared> {
        let trace = self.store.trace_sink();
        Arc::new(FetchShared {
            store: Arc::clone(&self.store),
            bucket: Arc::clone(&self.bucket),
            tag: Arc::clone(&env.tag),
            links: env.host_links.clone(),
            retries: env.retries,
            parent: trace.current(ctx.pid()),
            trace,
        })
    }
}

/// The state the jobs of one fetch fan-out share: each job holds this
/// and its own plan, instead of its own copies of bucket, tag and links.
struct FetchShared {
    store: Arc<ObjectStore>,
    bucket: Arc<str>,
    tag: Arc<str>,
    links: FlowLinks,
    retries: u32,
    trace: TraceSink,
    /// The span the fan-out's requests parent to.
    parent: SpanId,
}

impl FetchShared {
    /// The fan-out job running `plan` on its own store connection.
    fn job(
        self: &Arc<Self>,
        plan: Fetch,
    ) -> impl AsyncFnOnce(&mut Ctx) -> Result<Bytes, ExchangeError> + 'static {
        let shared = Arc::clone(self);
        async move |cctx: &mut Ctx| {
            let s = &*shared;
            s.trace.enter(cctx.pid(), s.parent);
            let client = s
                .store
                .connect_via(cctx, Arc::clone(&s.tag), &s.links)
                .await;
            let res = match plan {
                Fetch::Empty => Ok(Bytes::new()),
                Fetch::Get(key) => with_retry(cctx, s.retries, async |c: &mut Ctx| {
                    client.get(c, &s.bucket, &key).await
                })
                .await
                .map_err(ExchangeError::from),
                Fetch::Range(key, off, len) => with_retry(cctx, s.retries, async |c: &mut Ctx| {
                    client.get_range(c, &s.bucket, &key, off, len).await
                })
                .await
                .map_err(ExchangeError::from),
            };
            s.trace.exit(cctx.pid());
            res
        }
    }
}

/// A resolved read plan for one `(map, part)` request.
enum Fetch {
    /// Whole-object GET (scatter layout).
    Get(String),
    /// Byte-range GET (coalesced layout) of the mapper's shared key.
    Range(Arc<str>, u64, u64),
    /// Zero-length coalesced partition: no request at all.
    Empty,
}

impl DataExchange for ObjectStoreExchange {
    fn name(&self) -> &'static str {
        match self.layout {
            ExchangeStrategy::Scatter => "cos-scatter",
            ExchangeStrategy::Coalesced => "cos-coalesced",
        }
    }

    fn prepare<'a>(
        &'a self,
        _ctx: &'a mut Ctx,
        maps: usize,
        _parts: usize,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>> {
        self.index.lock().reset(maps);
        Box::pin(async { Ok(()) })
    }

    fn write_partitions<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
        map: usize,
        parts: Vec<Bytes>,
    ) -> LocalBoxFuture<'a, Result<u64, ExchangeError>> {
        Box::pin(async move {
            let mut written = 0u64;
            match self.layout {
                ExchangeStrategy::Scatter if env.io_window > 1 && parts.len() > 1 => {
                    written = parts.iter().map(|d| d.len() as u64).sum();
                    let trace = self.store.trace_sink();
                    let parent = trace.current(ctx.pid());
                    let jobs: Vec<_> = parts
                        .into_iter()
                        .enumerate()
                        .map(|(j, data)| {
                            let store = Arc::clone(&self.store);
                            let bucket = Arc::clone(&self.bucket);
                            let key = self.scatter_key(map, j);
                            let tag = Arc::clone(&env.tag);
                            let links = env.host_links.clone();
                            let retries = env.retries;
                            let trace = trace.clone();
                            async move |cctx: &mut Ctx| {
                                trace.enter(cctx.pid(), parent);
                                let client = store.connect_via(cctx, tag, &links).await;
                                let res: Result<(), ExchangeError> =
                                    with_retry(cctx, retries, async |c: &mut Ctx| {
                                        client.put(c, &bucket, &key, data.clone()).await
                                    })
                                    .await
                                    .map(|_| ())
                                    .map_err(ExchangeError::from);
                                trace.exit(cctx.pid());
                                res
                            }
                        })
                        .collect();
                    let name = format!("{}-put", env.tag);
                    ctx.fan_out(&name, env.io_window, jobs)
                        .await
                        .unwrap_or_else(|e| panic!("windowed store write crashed: {}", e))
                        .into_iter()
                        .collect::<Result<Vec<()>, ExchangeError>>()?;
                }
                ExchangeStrategy::Scatter => {
                    let client = self
                        .store
                        .connect_via(ctx, Arc::clone(&env.tag), &env.host_links)
                        .await;
                    for (j, data) in parts.into_iter().enumerate() {
                        written += data.len() as u64;
                        let key = self.scatter_key(map, j);
                        with_retry(ctx, env.retries, async |c: &mut Ctx| {
                            client.put(c, &self.bucket, &key, data.clone()).await
                        })
                        .await?;
                    }
                }
                ExchangeStrategy::Coalesced => {
                    let client = self
                        .store
                        .connect_via(ctx, Arc::clone(&env.tag), &env.host_links)
                        .await;
                    let mut table = Vec::new();
                    let total: usize = parts.iter().map(Bytes::len).sum();
                    let mut blob = Vec::with_capacity(total);
                    for (j, data) in parts.iter().enumerate() {
                        if !data.is_empty() {
                            table.push((j as u32, blob.len() as u64, data.len() as u64));
                        }
                        blob.extend_from_slice(data);
                    }
                    written += blob.len() as u64;
                    let key = self.coalesced_key(map);
                    let blob = Bytes::from(blob);
                    with_retry(ctx, env.retries, async |c: &mut Ctx| {
                        client.put(c, &self.bucket, &key, blob.clone()).await
                    })
                    .await?;
                    self.index.lock().record(map, key, parts.len(), table);
                }
            }
            Ok(written)
        })
    }

    fn write_run<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
        map: usize,
        run: Bytes,
        cuts: Vec<(u32, u64, u64)>,
        parts_len: usize,
    ) -> LocalBoxFuture<'a, Result<u64, ExchangeError>> {
        Box::pin(async move {
            match self.layout {
                // The coalesced blob IS the run (partitions concatenated in
                // part order), so PUT it as-is — identical bytes, key, and
                // virtual time to the dense write — and file the cut list
                // straight into the sparse index: O(cuts) host work where
                // the dense path scanned all `parts_len` slots.
                ExchangeStrategy::Coalesced => {
                    let client = self
                        .store
                        .connect_via(ctx, Arc::clone(&env.tag), &env.host_links)
                        .await;
                    let written = run.len() as u64;
                    let key = self.coalesced_key(map);
                    with_retry(ctx, env.retries, async |c: &mut Ctx| {
                        client.put(c, &self.bucket, &key, run.clone()).await
                    })
                    .await?;
                    self.index.lock().record(map, key, parts_len, cuts);
                    Ok(written)
                }
                // Scatter stores one object per partition either way;
                // reconstruct the dense vector (zero-copy slices) and take
                // the ordinary write path.
                ExchangeStrategy::Scatter => {
                    let mut parts = vec![Bytes::new(); parts_len];
                    for &(part, off, len) in &cuts {
                        parts[part as usize] = run.slice(off as usize..(off + len) as usize);
                    }
                    self.write_partitions(ctx, env, map, parts).await
                }
            }
        })
    }

    fn read_partition<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
        map: usize,
        part: usize,
    ) -> LocalBoxFuture<'a, Result<Bytes, ExchangeError>> {
        Box::pin(async move {
            let client = self
                .store
                .connect_via(ctx, Arc::clone(&env.tag), &env.host_links)
                .await;
            match self.layout {
                ExchangeStrategy::Scatter => {
                    let key = self.scatter_key(map, part);
                    Ok(with_retry(ctx, env.retries, async |c: &mut Ctx| {
                        client.get(c, &self.bucket, &key).await
                    })
                    .await?)
                }
                ExchangeStrategy::Coalesced => {
                    let Fetch::Range(key, off, len) = self.index.lock().fetch(map, part)? else {
                        // Nothing to fetch; skip the request entirely (the
                        // coalesced layout's request saving in action).
                        return Ok(Bytes::new());
                    };
                    Ok(with_retry(ctx, env.retries, async |c: &mut Ctx| {
                        client.get_range(c, &self.bucket, &key, off, len).await
                    })
                    .await?)
                }
            }
        })
    }

    fn read_partitions<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
        reqs: &'a [(usize, usize)],
    ) -> LocalBoxFuture<'a, Result<Vec<Bytes>, ExchangeError>> {
        Box::pin(async move {
            if env.io_window <= 1 || reqs.len() <= 1 {
                let mut out = Vec::with_capacity(reqs.len());
                for &(map, part) in reqs {
                    out.push(self.read_partition(ctx, env, map, part).await?);
                }
                return Ok(out);
            }
            // Resolve every request to a fetch plan up front (the coalesced
            // offset lookups can fail, and zero-length partitions must skip
            // the request even on the windowed path). One lock hold covers
            // the whole batch — the old per-request locking was W lock
            // round-trips per reducer.
            let plans = match self.layout {
                ExchangeStrategy::Scatter => reqs
                    .iter()
                    .map(|&(map, part)| Fetch::Get(self.scatter_key(map, part)))
                    .collect(),
                ExchangeStrategy::Coalesced => {
                    let index = self.index.lock();
                    reqs.iter()
                        .map(|&(map, part)| index.fetch(map, part))
                        .collect::<Result<Vec<Fetch>, ExchangeError>>()?
                }
            };
            self.fetch_windowed(ctx, env, plans).await
        })
    }

    fn read_gather<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
        maps: usize,
        part: usize,
    ) -> LocalBoxFuture<'a, Result<Vec<Bytes>, ExchangeError>> {
        Box::pin(async move {
            if matches!(self.layout, ExchangeStrategy::Scatter) {
                // Every scatter partition is a real object — empty ones
                // included — so the dense column read (and its W real
                // GETs) is the correct cost model.
                let reqs: Vec<(usize, usize)> = (0..maps).map(|m| (m, part)).collect();
                let runs = self.read_partitions(ctx, env, &reqs).await?;
                return Ok(runs.into_iter().filter(|r| !r.is_empty()).collect());
            }
            // Coalesced: resolve the column straight from the by-part
            // index — one lock, O(non-empty) — and only then touch the
            // simulation.
            let plans = self.index.lock().gather(maps, part)?;
            if env.io_window <= 1 || maps <= 1 {
                // Sequential data plane: one request at a time on the
                // caller's own process, exactly as the dense column loop
                // behaved for its non-empty entries (one flow in flight,
                // so sharing a connection is rate-identical to the dense
                // loop's connection-per-request).
                let client = self
                    .store
                    .connect_via(ctx, Arc::clone(&env.tag), &env.host_links)
                    .await;
                let mut out = Vec::with_capacity(plans.len());
                for plan in &plans {
                    let Fetch::Range(key, off, len) = plan else {
                        unreachable!("a gather reads ranges only");
                    };
                    let data = with_retry(ctx, env.retries, async |c: &mut Ctx| {
                        client.get_range(c, &self.bucket, key, *off, *len).await
                    })
                    .await?;
                    out.push(data);
                }
                return Ok(out);
            }
            self.fetch_pinned(ctx, env, maps, plans).await
        })
    }

    fn cleanup<'a>(
        &'a self,
        _ctx: &'a mut Ctx,
        _env: &'a ExchangeEnv,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>> {
        // Intentionally retained: see the type-level docs.
        Box::pin(async { Ok(()) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_des::Sim;
    use faaspipe_store::StoreConfig;

    fn roundtrip(layout: ExchangeStrategy) -> (Arc<ObjectStore>, Vec<String>) {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        store.create_bucket("data").expect("bucket");
        let ex = Arc::new(ObjectStoreExchange::new(
            Arc::clone(&store),
            "data",
            "part/",
            layout,
        ));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 3);
            ex2.prepare(ctx, 2, 2).await.expect("prepare");
            for m in 0..2usize {
                let parts = vec![
                    Bytes::from(format!("m{}p0", m)),
                    Bytes::from(format!("m{}p1", m)),
                ];
                let written = ex2
                    .write_partitions(ctx, &env, m, parts)
                    .await
                    .expect("write");
                assert_eq!(written, 8);
            }
            for m in 0..2usize {
                for j in 0..2usize {
                    let data = ex2.read_partition(ctx, &env, m, j).await.expect("read");
                    assert_eq!(data, Bytes::from(format!("m{}p{}", m, j)));
                }
            }
            ex2.cleanup(ctx, &env).await.expect("cleanup");
        });
        sim.run().expect("sim ok");
        let keys = store.keys_untimed("data", "part/");
        (store, keys)
    }

    #[test]
    fn scatter_layout_writes_w_squared_objects() {
        let (_, keys) = roundtrip(ExchangeStrategy::Scatter);
        assert_eq!(
            keys,
            vec![
                "part/00000/00000",
                "part/00000/00001",
                "part/00001/00000",
                "part/00001/00001"
            ]
        );
    }

    #[test]
    fn coalesced_layout_writes_one_object_per_mapper() {
        let (store, keys) = roundtrip(ExchangeStrategy::Coalesced);
        assert_eq!(keys, vec!["part/00000", "part/00001"]);
        // Far fewer class-A requests than scatter: 2 PUTs, not 4.
        assert_eq!(store.metrics().total().class_a, 2);
    }

    #[test]
    fn coalesced_empty_partition_reads_skip_the_request() {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        store.create_bucket("data").expect("bucket");
        let ex = Arc::new(ObjectStoreExchange::new(
            Arc::clone(&store),
            "data",
            "part/",
            ExchangeStrategy::Coalesced,
        ));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 3);
            ex2.prepare(ctx, 1, 2).await.expect("prepare");
            ex2.write_partitions(ctx, &env, 0, vec![Bytes::from("xy"), Bytes::new()])
                .await
                .expect("write");
            let before = store.metrics().total().class_b;
            let data = ex2
                .read_partition(ctx, &env, 0, 1)
                .await
                .expect("read empty");
            assert!(data.is_empty());
            assert_eq!(store.metrics().total().class_b, before, "no GET issued");
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn unwritten_coalesced_partition_is_missing() {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        store.create_bucket("data").expect("bucket");
        let ex = ObjectStoreExchange::new(
            Arc::clone(&store),
            "data",
            "part/",
            ExchangeStrategy::Coalesced,
        );
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 3);
            ex.prepare(ctx, 1, 1).await.expect("prepare");
            let err = ex
                .read_partition(ctx, &env, 0, 0)
                .await
                .expect_err("missing");
            assert_eq!(err, ExchangeError::MissingPartition { map: 0, part: 0 });
        });
        sim.run().expect("sim ok");
    }

    /// `write_run` must be observationally identical to
    /// `write_partitions` with the reconstructed dense vector, on both
    /// layouts: same stored bytes, same request count, same reads.
    #[test]
    fn write_run_matches_write_partitions_on_both_layouts() {
        for layout in [ExchangeStrategy::Scatter, ExchangeStrategy::Coalesced] {
            let mut sim = Sim::new();
            let store = ObjectStore::install(&mut sim, StoreConfig::default());
            store.create_bucket("data").expect("bucket");
            let dense = Arc::new(ObjectStoreExchange::new(
                Arc::clone(&store),
                "data",
                "dense/",
                layout,
            ));
            let sparse = Arc::new(ObjectStoreExchange::new(
                Arc::clone(&store),
                "data",
                "sparse/",
                layout,
            ));
            let (d2, s2) = (Arc::clone(&dense), Arc::clone(&sparse));
            sim.spawn("driver", move |mut ctx| async move {
                let ctx = &mut ctx;
                let env = ExchangeEnv::driver("test", 3);
                d2.prepare(ctx, 1, 4).await.expect("prepare");
                s2.prepare(ctx, 1, 4).await.expect("prepare");
                // Partitions 1 and 3 empty — the sparse-cut case.
                let parts = vec![
                    Bytes::from("aa"),
                    Bytes::new(),
                    Bytes::from("cccc"),
                    Bytes::new(),
                ];
                let w_dense = d2
                    .write_partitions(ctx, &env, 0, parts.clone())
                    .await
                    .expect("dense write");
                let run = Bytes::from("aacccc");
                let cuts = vec![(0u32, 0u64, 2u64), (2, 2, 4)];
                let w_sparse = s2
                    .write_run(ctx, &env, 0, run, cuts, 4)
                    .await
                    .expect("run write");
                assert_eq!(w_dense, w_sparse);
                for (j, want) in parts.iter().enumerate() {
                    let a = d2
                        .read_partition(ctx, &env, 0, j)
                        .await
                        .expect("dense read");
                    let b = s2
                        .read_partition(ctx, &env, 0, j)
                        .await
                        .expect("sparse read");
                    assert_eq!(a, b, "layout {:?} part {}", layout, j);
                    assert_eq!(&a, want);
                }
            });
            sim.run().expect("sim ok");
            // Identical stored objects, key-for-key (modulo the prefix).
            let dense_keys = store.keys_untimed("data", "dense/");
            let sparse_keys = store.keys_untimed("data", "sparse/");
            assert_eq!(dense_keys.len(), sparse_keys.len());
        }
    }

    /// A reducer's gather returns only the non-empty runs of its
    /// column, map-ascending, without issuing requests for the empty
    /// ones — and still fails loudly on a truly unwritten mapper.
    #[test]
    fn read_gather_skips_empty_runs_and_flags_missing_mappers() {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        store.create_bucket("data").expect("bucket");
        let ex = Arc::new(ObjectStoreExchange::new(
            Arc::clone(&store),
            "data",
            "part/",
            ExchangeStrategy::Coalesced,
        ));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 3);
            ex2.prepare(ctx, 3, 2).await.expect("prepare");
            ex2.write_partitions(ctx, &env, 0, vec![Bytes::from("a0"), Bytes::new()])
                .await
                .expect("write");
            ex2.write_partitions(ctx, &env, 1, vec![Bytes::new(), Bytes::from("b1")])
                .await
                .expect("write");
            ex2.write_partitions(ctx, &env, 2, vec![Bytes::from("c0"), Bytes::from("c1")])
                .await
                .expect("write");
            let col0 = ex2.read_gather(ctx, &env, 3, 0).await.expect("gather 0");
            assert_eq!(col0, vec![Bytes::from("a0"), Bytes::from("c0")]);
            let col1 = ex2.read_gather(ctx, &env, 3, 1).await.expect("gather 1");
            assert_eq!(col1, vec![Bytes::from("b1"), Bytes::from("c1")]);
            // Asking for more mappers than ever wrote is a loud error,
            // exactly like the dense batch read.
            let err = ex2
                .read_gather(ctx, &env, 4, 0)
                .await
                .expect_err("missing mapper");
            assert_eq!(err, ExchangeError::MissingPartition { map: 3, part: 0 });
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn intermediates_use_the_map_part_key_layout() {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        store.create_bucket("data").expect("bucket");
        let ex = ObjectStoreExchange::new(
            Arc::clone(&store),
            "data",
            "part/",
            ExchangeStrategy::Scatter,
        );
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 3);
            ex.prepare(ctx, 1, 1).await.expect("prepare");
            ex.write_partitions(ctx, &env, 0, vec![Bytes::from("a")])
                .await
                .expect("write");
        });
        sim.run().expect("sim ok");
        assert_eq!(
            store.keys_untimed("data", "part/"),
            vec!["part/00000/00000"]
        );
    }
}
