//! The paper's serverless exchange: every byte through object storage.

use std::sync::Arc;

use bytes::Bytes;
use faaspipe_des::{Ctx, FlowLinks, LocalBoxFuture};
use faaspipe_store::ObjectStore;
use faaspipe_trace::{SpanId, TraceSink};
use parking_lot::Mutex;

use crate::api::{dense_parts, DataExchange, ExchangeEnv, ExchangeStrategy};
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
    /// Shared with every request fan-out's jobs.
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
    /// those mappers wrote the column (the lowest mapper that did not is
    /// the error).
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

    /// Runs one store read per plan in child processes, at most
    /// `env.io_window` in flight, each on its own store connection (so
    /// aggregate throughput scales with the window until the caller's
    /// NIC or the store's aggregate cap saturates). The worker count is
    /// pinned to what a `logical_total`-plan fan-out would spawn, so a
    /// coalesced gather that elided its empty column entries keeps the
    /// exact virtual-time schedule of the dense one. Returns one payload
    /// per plan, in plan order.
    async fn fetch_pinned(
        &self,
        ctx: &mut Ctx,
        env: &ExchangeEnv,
        logical_total: usize,
        plans: Vec<Fetch>,
    ) -> Result<Vec<Bytes>, ExchangeError> {
        let requests = self.requests(ctx, env);
        let jobs: Vec<_> = plans.into_iter().map(|plan| requests.get(plan)).collect();
        let name = format!("{}-get", env.tag);
        let results = ctx
            .fan_out_pinned(&name, env.io_window, logical_total, jobs)
            .await
            .unwrap_or_else(|e| panic!("windowed store read crashed: {}", e));
        results.into_iter().collect()
    }

    /// What every job of one request fan-out by the calling process
    /// shares.
    fn requests(&self, ctx: &Ctx, env: &ExchangeEnv) -> Arc<Requests> {
        let trace = self.store.trace_sink();
        Arc::new(Requests {
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

/// The state the jobs of one request fan-out share: each job holds this
/// and its own request, instead of its own copies of bucket, tag and
/// links.
struct Requests {
    store: Arc<ObjectStore>,
    bucket: Arc<str>,
    tag: Arc<str>,
    links: FlowLinks,
    retries: u32,
    trace: TraceSink,
    /// The span the fan-out's requests parent to.
    parent: SpanId,
}

impl Requests {
    /// The fan-out job running the read `plan` on its own store
    /// connection.
    fn get(
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
                Fetch::Get(key) => {
                    with_retry(cctx, s.retries, async |c: &mut Ctx| {
                        client.get(c, &s.bucket, &key).await
                    })
                    .await
                }
                Fetch::Range(key, off, len) => {
                    with_retry(cctx, s.retries, async |c: &mut Ctx| {
                        client.get_range(c, &s.bucket, &key, off, len).await
                    })
                    .await
                }
            };
            s.trace.exit(cctx.pid());
            res.map_err(ExchangeError::from)
        }
    }

    /// The fan-out job PUTting `data` under `key` on its own store
    /// connection.
    fn put(
        self: &Arc<Self>,
        key: String,
        data: Bytes,
    ) -> impl AsyncFnOnce(&mut Ctx) -> Result<(), ExchangeError> + 'static {
        let shared = Arc::clone(self);
        async move |cctx: &mut Ctx| {
            let s = &*shared;
            s.trace.enter(cctx.pid(), s.parent);
            let client = s
                .store
                .connect_via(cctx, Arc::clone(&s.tag), &s.links)
                .await;
            let res = with_retry(cctx, s.retries, async |c: &mut Ctx| {
                client.put(c, &s.bucket, &key, data.clone()).await
            })
            .await;
            s.trace.exit(cctx.pid());
            res.map(|_| ()).map_err(ExchangeError::from)
        }
    }
}

/// A resolved read plan for one `(map, part)` request.
enum Fetch {
    /// Whole-object GET (scatter layout).
    Get(String),
    /// Byte-range GET (coalesced layout) of the mapper's shared key.
    Range(Arc<str>, u64, u64),
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
                // One PUT per partition — empty ones included, since every
                // scatter partition is a real object — at most
                // `io_window` in flight.
                ExchangeStrategy::Scatter => {
                    let written = cuts.iter().map(|&(_, _, len)| len).sum();
                    let requests = self.requests(ctx, env);
                    let jobs: Vec<_> = dense_parts(&run, &cuts, parts_len)
                        .into_iter()
                        .enumerate()
                        .map(|(j, data)| requests.put(self.scatter_key(map, j), data))
                        .collect();
                    let name = format!("{}-put", env.tag);
                    ctx.fan_out(&name, env.io_window, jobs)
                        .await
                        .unwrap_or_else(|e| panic!("windowed store write crashed: {}", e))
                        .into_iter()
                        .collect::<Result<Vec<()>, ExchangeError>>()?;
                    Ok(written)
                }
                // The coalesced blob IS the run (partitions concatenated in
                // part order), so PUT it as-is and file the cut list
                // straight into the sparse index: O(cuts) host work.
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
            }
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
            let plans = match self.layout {
                // Every scatter partition is a real object — empty ones
                // included — so the column costs W real GETs.
                ExchangeStrategy::Scatter => (0..maps)
                    .map(|m| Fetch::Get(self.scatter_key(m, part)))
                    .collect(),
                // Coalesced: resolve the column straight from the by-part
                // index — one lock, O(non-empty) — and only then touch
                // the simulation.
                ExchangeStrategy::Coalesced => self.index.lock().gather(maps, part)?,
            };
            let runs = self.fetch_pinned(ctx, env, maps, plans).await?;
            Ok(runs.into_iter().filter(|r| !r.is_empty()).collect())
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
    use crate::api::write_parts;
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
                let written = write_parts(&*ex2, ctx, &env, m, parts)
                    .await
                    .expect("write");
                assert_eq!(written, 8);
            }
            for j in 0..2usize {
                let column = ex2.read_gather(ctx, &env, 2, j).await.expect("read");
                let want: Vec<Bytes> = (0..2)
                    .map(|m| Bytes::from(format!("m{}p{}", m, j)))
                    .collect();
                assert_eq!(column, want);
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
            write_parts(&*ex2, ctx, &env, 0, vec![Bytes::from("xy"), Bytes::new()])
                .await
                .expect("write");
            let before = store.metrics().total().class_b;
            let column = ex2.read_gather(ctx, &env, 1, 1).await.expect("read empty");
            assert!(column.is_empty());
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
            let err = ex.read_gather(ctx, &env, 1, 0).await.expect_err("missing");
            assert_eq!(err, ExchangeError::MissingPartition { map: 0, part: 0 });
        });
        sim.run().expect("sim ok");
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
            for (m, parts) in [
                vec![Bytes::from("a0"), Bytes::new()],
                vec![Bytes::new(), Bytes::from("b1")],
                vec![Bytes::from("c0"), Bytes::from("c1")],
            ]
            .into_iter()
            .enumerate()
            {
                write_parts(&*ex2, ctx, &env, m, parts)
                    .await
                    .expect("write");
            }
            let before = store.metrics().total().class_b;
            let col0 = ex2.read_gather(ctx, &env, 3, 0).await.expect("gather 0");
            assert_eq!(col0, vec![Bytes::from("a0"), Bytes::from("c0")]);
            let col1 = ex2.read_gather(ctx, &env, 3, 1).await.expect("gather 1");
            assert_eq!(col1, vec![Bytes::from("b1"), Bytes::from("c1")]);
            assert_eq!(
                store.metrics().total().class_b - before,
                4,
                "one ranged GET per non-empty partition"
            );
            // Asking for more mappers than ever wrote is a loud error.
            let err = ex2
                .read_gather(ctx, &env, 4, 0)
                .await
                .expect_err("missing mapper");
            assert_eq!(err, ExchangeError::MissingPartition { map: 3, part: 0 });
        });
        sim.run().expect("sim ok");
    }

    /// Scatter stores every partition of a run as its own object, the
    /// empty ones included, so the column gather pays one GET per
    /// mapper and drops the empty runs afterwards.
    #[test]
    fn scatter_run_writes_every_partition_and_gathers_the_non_empty_ones() {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        store.create_bucket("data").expect("bucket");
        let ex = Arc::new(ObjectStoreExchange::new(
            Arc::clone(&store),
            "data",
            "part/",
            ExchangeStrategy::Scatter,
        ));
        let ex2 = Arc::clone(&ex);
        let store2 = Arc::clone(&store);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 3);
            ex2.prepare(ctx, 1, 4).await.expect("prepare");
            // Partitions 1 and 3 empty: the sparse-cut case.
            let run = Bytes::from("aacccc");
            let cuts = vec![(0u32, 0u64, 2u64), (2, 2, 4)];
            let written = ex2
                .write_run(ctx, &env, 0, run, cuts, 4)
                .await
                .expect("write");
            assert_eq!(written, 6);
            assert_eq!(store2.metrics().total().class_a, 4, "one PUT per partition");
            for (j, want) in ["aa", "", "cccc", ""].into_iter().enumerate() {
                let column = ex2.read_gather(ctx, &env, 1, j).await.expect("read");
                let want: Vec<Bytes> = Some(Bytes::from(want))
                    .filter(|b| !b.is_empty())
                    .into_iter()
                    .collect();
                assert_eq!(column, want, "part {}", j);
            }
            assert_eq!(store2.metrics().total().class_b, 4, "one GET per cell");
        });
        sim.run().expect("sim ok");
        assert_eq!(store.keys_untimed("data", "part/").len(), 4);
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
            write_parts(&ex, ctx, &env, 0, vec![Bytes::from("a")])
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
