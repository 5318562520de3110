//! The functions platform: container pool, invoker, and billing records.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::Rng;

use faaspipe_des::{
    catch_unwind_future, Ctx, JoinError, LinkId, ProcessId, SemId, Sim, SimDuration, SimTime,
};
use faaspipe_trace::{Category, SpanId, TraceSink};

use crate::config::FaasConfig;

/// A warm container parked in the pool.
#[derive(Debug, Clone, Copy)]
struct WarmContainer {
    nic: LinkId,
    expires: SimTime,
}

/// Billing span of one invocation.
///
/// The function name and tag are shared with the invocation that made
/// the record, so copying a record copies no strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvocationRecord {
    /// Registered function name.
    pub function: Arc<str>,
    /// Attribution tag (typically the pipeline stage).
    pub tag: Arc<str>,
    /// When the invocation was requested.
    pub requested: SimTime,
    /// When the body began executing (after cold/warm start).
    pub started: SimTime,
    /// When the body finished.
    pub finished: SimTime,
    /// Memory configured for the instance, in MiB.
    pub memory_mb: u32,
    /// Whether this invocation paid a cold start.
    pub cold: bool,
}

impl InvocationRecord {
    /// The billed execution duration (providers bill body time only).
    pub fn billed_duration(&self) -> SimDuration {
        self.finished.saturating_duration_since(self.started)
    }

    /// Billed gigabyte-seconds.
    pub fn gb_seconds(&self) -> f64 {
        (self.memory_mb as f64 / 1024.0) * self.billed_duration().as_secs_f64()
    }
}

/// Execution environment handed to a function body.
///
/// Cloning is cheap (the sink is refcounted) and hands the same NIC,
/// CPU share, and trace lane to helper processes the body fans out —
/// [`FunctionEnv::compute`] in a clone still parents its span to the
/// invocation.
#[derive(Debug, Clone)]
pub struct FunctionEnv {
    /// The container's NIC link; pass it to
    /// `ObjectStore::connect_via` so store traffic contends for it.
    pub nic: LinkId,
    /// vCPU share of this instance.
    pub cpu_share: f64,
    /// Memory configured for the instance, in MiB.
    pub memory_mb: u32,
    /// Whether this instance was cold-started.
    pub cold: bool,
    trace: TraceSink,
    span: SpanId,
    lane: String,
}

impl FunctionEnv {
    /// Charges `work` of single-vCPU compute time, scaled by this
    /// instance's CPU share (half a vCPU takes twice as long).
    pub async fn compute(&self, ctx: &Ctx, work: SimDuration) {
        let span = self.compute_span(ctx);
        ctx.compute(work.mul_f64(1.0 / self.cpu_share)).await;
        self.trace.span_end(span, ctx.now());
    }

    fn compute_span(&self, ctx: &Ctx) -> SpanId {
        if self.trace.is_enabled() {
            self.trace.span_start(
                Category::Compute,
                "compute",
                "faas",
                &self.lane,
                self.span,
                ctx.now(),
            )
        } else {
            SpanId::NONE
        }
    }
}

/// The bodies of one [`FunctionPlatform::invoke_all`] call and the
/// output slot of each, shared by its invocations.
struct Gang<B, T> {
    bodies: Vec<B>,
    outputs: RefCell<Vec<Option<T>>>,
}

/// Warm-pool key: `(tenant scope, function name)`. The scope is `""`
/// unless [`FaasConfig::tenant_scoped_pool`] is set, in which case it is
/// the invocation tag's first `/`-segment.
type PoolKey = (Arc<str>, Arc<str>);

/// The simulated functions platform.
///
/// See the [crate docs](crate) for the model and an example.
pub struct FunctionPlatform {
    cfg: FaasConfig,
    concurrency: SemId,
    pool: Mutex<HashMap<PoolKey, Vec<WarmContainer>>>,
    /// The scope of every invocation when the pool is not tenant-scoped.
    no_scope: Arc<str>,
    records: Mutex<Vec<InvocationRecord>>,
    trace: Mutex<TraceSink>,
    next_inv: AtomicU64,
    queued: AtomicU64,
    running: AtomicU64,
}

impl std::fmt::Debug for FunctionPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionPlatform")
            .field("cfg", &self.cfg)
            .field("invocations", &self.records.lock().len())
            .finish()
    }
}

impl FunctionPlatform {
    /// Creates the platform and registers its concurrency limit with the
    /// simulation.
    pub fn install(sim: &mut Sim, cfg: FaasConfig) -> Arc<FunctionPlatform> {
        let concurrency = sim.create_semaphore(cfg.max_concurrency);
        Arc::new(FunctionPlatform {
            cfg,
            concurrency,
            pool: Mutex::new(HashMap::new()),
            no_scope: Arc::from(""),
            records: Mutex::new(Vec::new()),
            trace: Mutex::new(TraceSink::disabled()),
            next_inv: AtomicU64::new(1),
            queued: AtomicU64::new(0),
            running: AtomicU64::new(0),
        })
    }

    /// Routes invocation spans and pool counters to `sink`. The default
    /// sink is disabled.
    pub fn set_trace_sink(&self, sink: TraceSink) {
        *self.trace.lock() = sink;
    }

    /// Total warm containers parked across all functions.
    fn pool_size(&self) -> usize {
        self.pool.lock().values().map(|v| v.len()).sum()
    }

    /// The pool partition an invocation tag claims from.
    fn pool_scope(&self, tag: &str) -> Arc<str> {
        if self.cfg.tenant_scoped_pool {
            Arc::from(tag.split('/').next().unwrap_or(""))
        } else {
            Arc::clone(&self.no_scope)
        }
    }

    /// The platform configuration.
    pub fn config(&self) -> &FaasConfig {
        &self.cfg
    }

    /// Snapshot of all invocation billing records so far.
    pub fn records(&self) -> Vec<InvocationRecord> {
        self.records.lock().clone()
    }

    /// Number of warm containers currently parked for `function`, summed
    /// across tenant scopes. (Expired containers are evicted on the next
    /// invoke — any invoke, not just one of the same function.)
    pub fn warm_count(&self, function: &str) -> usize {
        self.pool
            .lock()
            .iter()
            .filter(|((_, f), _)| &**f == function)
            .map(|(_, v)| v.len())
            .sum()
    }

    /// Invokes `function` from the calling process and returns the child
    /// process id; `ctx.join` it to rendezvous.
    ///
    /// The invocation acquires a platform concurrency slot (FIFO), pays a
    /// cold or warm start, runs `body`, then parks its container back in
    /// the warm pool. A panic in `body` fails the invocation process, so
    /// the joiner sees it as a [`JoinError`].
    ///
    /// Invocations of one stage can share one `Arc<str>` tag (and function
    /// name): the platform keeps the shared copy in its warm-pool key and
    /// billing record.
    pub async fn invoke<F>(
        self: &Arc<Self>,
        ctx: &Ctx,
        function: impl Into<Arc<str>>,
        tag: impl Into<Arc<str>>,
        body: F,
    ) -> ProcessId
    where
        F: AsyncFnOnce(&mut Ctx, FunctionEnv) + 'static,
    {
        let platform = Arc::clone(self);
        let function = function.into();
        let tag = tag.into();
        let requested = ctx.now();
        // Parent the invocation to whatever span the *caller* is inside
        // (typically the driver's stage span), captured before the hop to
        // the invocation's own process.
        let trace = self.trace.lock().clone();
        let parent = trace.current(ctx.pid());
        let pname = ["fn:", &*function, ":", &*tag].concat();
        ctx.spawn(pname, move |mut fctx: Ctx| async move {
            platform
                .run_invocation(&mut fctx, function, tag, requested, trace, parent, body)
                .await;
        })
        .await
    }

    /// Invokes `function` once per body, the way Lithops' `map()` runs a
    /// stage, and returns each invocation's output in body order.
    ///
    /// Spawns one invocation per body in body order, then joins them in
    /// that order. Each body whose invocation crashed (an injected
    /// platform failure or a panic in the body) is re-invoked once the
    /// whole round is joined, in body order, until it has had `attempts`
    /// tries in all (`0` counts as `1`). A retry runs the same body
    /// again, so a body must be idempotent.
    ///
    /// # Errors
    /// When a body fails all its attempts, the [`JoinError`] of the
    /// final round's first failure in body order.
    pub async fn invoke_all<B, T>(
        self: &Arc<Self>,
        ctx: &Ctx,
        function: impl Into<Arc<str>>,
        tag: impl Into<Arc<str>>,
        attempts: u32,
        bodies: Vec<B>,
    ) -> Result<Vec<T>, JoinError>
    where
        B: AsyncFn(&mut Ctx, FunctionEnv) -> T + 'static,
        T: 'static,
    {
        let function = function.into();
        let tag = tag.into();
        let gang = Rc::new(Gang {
            outputs: RefCell::new(bodies.iter().map(|_| None).collect()),
            bodies,
        });
        let body = |i: usize| {
            let gang = Rc::clone(&gang);
            async move |fctx: &mut Ctx, env: FunctionEnv| {
                let out = (gang.bodies[i])(fctx, env).await;
                gang.outputs.borrow_mut()[i] = Some(out);
            }
        };
        let mut round: Vec<usize> = (0..gang.bodies.len()).collect();
        for attempt in 1..=attempts.max(1) {
            let mut pids = Vec::with_capacity(round.len());
            for &i in &round {
                let (function, tag) = (Arc::clone(&function), Arc::clone(&tag));
                pids.push(self.invoke(ctx, function, tag, body(i)).await);
            }
            let mut failed = Vec::new();
            let mut first_error = None;
            for (i, pid) in round.into_iter().zip(pids) {
                if let Err(e) = ctx.join(pid).await {
                    first_error.get_or_insert(e);
                    failed.push(i);
                }
            }
            match first_error {
                None => break,
                Some(error) if attempt >= attempts => return Err(error),
                Some(_) => round = failed,
            }
        }
        let outputs = gang.outputs.take();
        Ok(outputs
            .into_iter()
            .map(|out| out.expect("every joined invocation stored its output"))
            .collect())
    }

    #[allow(clippy::too_many_arguments)]
    async fn run_invocation<F>(
        self: Arc<Self>,
        ctx: &mut Ctx,
        function: Arc<str>,
        tag: Arc<str>,
        requested: SimTime,
        trace: TraceSink,
        parent: SpanId,
        body: F,
    ) where
        F: AsyncFnOnce(&mut Ctx, FunctionEnv) + 'static,
    {
        let tracing = trace.is_enabled();
        let (inv, lane) = if tracing {
            let seq = self.next_inv.fetch_add(1, Ordering::SeqCst);
            let lane = format!("inv-{}", seq);
            let inv = trace.span_start(
                Category::Invocation,
                &*function,
                "faas",
                &lane,
                parent,
                requested,
            );
            trace.attr(inv, "function", &*function);
            trace.attr(inv, "tag", &*tag);
            trace.attr(inv, "memory_mb", self.cfg.memory_mb);
            (inv, lane)
        } else {
            (SpanId::NONE, String::new())
        };
        let queue = if tracing {
            let q = self.queued.fetch_add(1, Ordering::SeqCst) + 1;
            trace.gauge("faas.queued_invocations", requested, q as f64);
            trace.span_start(Category::Queue, "queue", "faas", &lane, inv, requested)
        } else {
            SpanId::NONE
        };
        ctx.sem_acquire(self.concurrency, 1).await;
        if tracing {
            let q = self.queued.fetch_sub(1, Ordering::SeqCst) - 1;
            trace.gauge("faas.queued_invocations", ctx.now(), q as f64);
            trace.span_end(queue, ctx.now());
        }
        // Claim a warm container or cold-start a new one. Expiry is
        // evaluated pool-wide, not just for this function's slot: with
        // several tenants interleaving claims, a slot touched by no one
        // would otherwise keep dead containers on the books (wrong
        // `warm_count`s and an inflated `faas.warm_containers` gauge).
        let now = ctx.now();
        let scope = self.pool_scope(&tag);
        let warm = {
            let mut pool = self.pool.lock();
            pool.retain(|_, slot| {
                slot.retain(|c| c.expires >= now);
                !slot.is_empty()
            });
            pool.get_mut(&(Arc::clone(&scope), Arc::clone(&function)))
                .and_then(|slot| slot.pop())
        };
        if tracing {
            trace.gauge("faas.warm_containers", now, self.pool_size() as f64);
        }
        let start_at = ctx.now();
        let (nic, cold) = match warm {
            Some(c) => {
                ctx.sleep(self.cfg.warm_start).await;
                (c.nic, false)
            }
            None => {
                ctx.sleep(self.cfg.cold_start).await;
                (ctx.link_create(self.cfg.nic_bw).await, true)
            }
        };
        if tracing {
            let category = if cold {
                Category::ColdStart
            } else {
                Category::WarmStart
            };
            let name = if cold { "cold-start" } else { "warm-start" };
            let s = trace.span_start(category, name, "faas", &lane, inv, start_at);
            trace.span_end(s, ctx.now());
        }
        if self.cfg.failure_rate > 0.0 && ctx.rng().gen::<f64>() < self.cfg.failure_rate {
            // Crash before user code, releasing the slot first so the
            // platform is not poisoned.
            ctx.sem_release(self.concurrency, 1).await;
            if tracing {
                trace.attr(inv, "failed", true);
                trace.span_end(inv, ctx.now());
            }
            panic!("injected invocation failure for '{}'", function);
        }
        let env = FunctionEnv {
            nic,
            cpu_share: self.cfg.cpu_share(),
            memory_mb: self.cfg.memory_mb,
            cold,
            trace: trace.clone(),
            span: inv,
            lane,
        };
        let started = ctx.now();
        if tracing {
            let r = self.running.fetch_add(1, Ordering::SeqCst) + 1;
            trace.gauge("faas.running_containers", started, r as f64);
            // Store requests issued by the body parent to this invocation.
            trace.enter(ctx.pid(), inv);
        }
        // A crashing body must still release the platform's concurrency
        // slot (its container dies with it and is not parked).
        let result =
            catch_unwind_future(std::panic::AssertUnwindSafe(body(ctx, env.clone()))).await;
        if tracing {
            trace.exit(ctx.pid());
            let r = self.running.fetch_sub(1, Ordering::SeqCst) - 1;
            trace.gauge("faas.running_containers", ctx.now(), r as f64);
        }
        if let Err(payload) = result {
            ctx.sem_release(self.concurrency, 1).await;
            if tracing {
                trace.attr(inv, "failed", true);
                trace.span_end(inv, ctx.now());
            }
            std::panic::resume_unwind(payload);
        }
        let finished = ctx.now();
        // Park the container (in its tenant's partition) and release the
        // slot.
        {
            let mut pool = self.pool.lock();
            pool.entry((scope, Arc::clone(&function)))
                .or_default()
                .push(WarmContainer {
                    nic,
                    expires: finished + self.cfg.keep_alive,
                });
        }
        ctx.sem_release(self.concurrency, 1).await;
        if tracing {
            trace.gauge("faas.warm_containers", finished, self.pool_size() as f64);
            trace.attr(inv, "cold", cold);
            trace.span_end(inv, finished);
        }
        self.records.lock().push(InvocationRecord {
            function,
            tag,
            requested,
            started,
            finished,
            memory_mb: self.cfg.memory_mb,
            cold,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_des::{Sim, SimDuration};
    use std::sync::Mutex as StdMutex;

    /// Invokes `body` and waits for it to finish, as a stage driver does.
    async fn invoke_and_join<F>(
        p: &Arc<FunctionPlatform>,
        ctx: &Ctx,
        function: &str,
        tag: &str,
        body: F,
    ) -> Result<(), faaspipe_des::JoinError>
    where
        F: AsyncFnOnce(&mut Ctx, FunctionEnv) + 'static,
    {
        let pid = p.invoke(ctx, function, tag, body).await;
        ctx.join(pid).await
    }

    fn platform_sim(cfg: FaasConfig) -> (Sim, Arc<FunctionPlatform>) {
        let mut sim = Sim::new();
        let faas = FunctionPlatform::install(&mut sim, cfg);
        (sim, faas)
    }

    #[test]
    fn cold_then_warm_start() {
        let cfg = FaasConfig {
            cold_start: SimDuration::from_millis(500),
            warm_start: SimDuration::from_millis(20),
            ..FaasConfig::default()
        };
        let (mut sim, faas) = platform_sim(cfg);
        let p = faas.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            invoke_and_join(&p, ctx, "f", "a", async |_, env| assert!(env.cold))
                .await
                .unwrap();
            invoke_and_join(&p, ctx, "f", "b", async |_, env| assert!(!env.cold))
                .await
                .unwrap();
        });
        sim.run().expect("run");
        let recs = faas.records();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].cold);
        assert!(!recs[1].cold);
        assert_eq!(recs[0].started.as_nanos(), 500_000_000);
        // Second starts 20 ms after the first finished.
        assert_eq!(
            recs[1].started.as_nanos() - recs[0].finished.as_nanos(),
            20_000_000
        );
    }

    #[test]
    fn keep_alive_expiry_forces_cold() {
        let cfg = FaasConfig {
            keep_alive: SimDuration::from_secs(1),
            ..FaasConfig::default()
        };
        let (mut sim, faas) = platform_sim(cfg);
        let p = faas.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            invoke_and_join(&p, ctx, "f", "a", async |_, _| {})
                .await
                .unwrap();
            ctx.sleep(SimDuration::from_secs(5)).await;
            invoke_and_join(&p, ctx, "f", "b", async |_, env| assert!(env.cold))
                .await
                .unwrap();
        });
        sim.run().expect("run");
        assert!(faas.records().iter().all(|r| r.cold));
    }

    #[test]
    fn parallel_invocations_reuse_separate_containers() {
        let (mut sim, faas) = platform_sim(FaasConfig::default());
        let p = faas.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let mut hs = Vec::new();
            for i in 0..4 {
                let body = async |fctx: &mut Ctx, env: FunctionEnv| {
                    env.compute(fctx, SimDuration::from_secs(1)).await;
                };
                hs.push(p.invoke(ctx, "f", format!("t{}", i), body).await);
            }
            ctx.join_all(&hs).await.unwrap();
        });
        sim.run().expect("run");
        let recs = faas.records();
        assert_eq!(recs.len(), 4);
        // All four run concurrently: every one pays a cold start.
        assert!(recs.iter().all(|r| r.cold));
        assert_eq!(faas.warm_count("f"), 4);
    }

    #[test]
    fn concurrency_limit_queues_fifo() {
        let cfg = FaasConfig {
            max_concurrency: 1,
            cold_start: SimDuration::ZERO,
            warm_start: SimDuration::ZERO,
            ..FaasConfig::default()
        };
        let (mut sim, faas) = platform_sim(cfg);
        let p = faas.clone();
        let order = Arc::new(StdMutex::new(Vec::new()));
        let order2 = Arc::clone(&order);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let mut hs = Vec::new();
            for i in 0..3u64 {
                let order = Arc::clone(&order2);
                let body = async move |fctx: &mut Ctx, _: FunctionEnv| {
                    order.lock().unwrap().push((i, fctx.now().as_secs_f64()));
                    fctx.sleep(SimDuration::from_secs(1)).await;
                };
                hs.push(p.invoke(ctx, "f", format!("t{}", i), body).await);
            }
            ctx.join_all(&hs).await.unwrap();
        });
        sim.run().expect("run");
        let order = order.lock().unwrap();
        for (i, (who, at)) in order.iter().enumerate() {
            assert_eq!(*who, i as u64);
            assert!((at - i as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn compute_scales_with_memory() {
        let cfg = FaasConfig::default().with_memory_mb(1024); // 0.5 vCPU
        let (mut sim, faas) = platform_sim(cfg);
        let p = faas.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            invoke_and_join(&p, ctx, "f", "t", async |fctx, env| {
                let before = fctx.now();
                env.compute(fctx, SimDuration::from_secs(1)).await;
                let took = fctx.now().saturating_duration_since(before);
                assert!((took.as_secs_f64() - 2.0).abs() < 1e-9);
            })
            .await
            .unwrap();
        });
        sim.run().expect("run");
    }

    #[test]
    fn billed_duration_excludes_cold_start() {
        let cfg = FaasConfig {
            cold_start: SimDuration::from_secs(3),
            ..FaasConfig::default()
        };
        let (mut sim, faas) = platform_sim(cfg);
        let p = faas.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            invoke_and_join(&p, ctx, "f", "t", async |fctx, _| {
                fctx.sleep(SimDuration::from_secs(2)).await
            })
            .await
            .unwrap();
        });
        sim.run().expect("run");
        let rec = &faas.records()[0];
        assert_eq!(rec.billed_duration(), SimDuration::from_secs(2));
        // 2 GiB * 2 s = 4 GB-s.
        assert!((rec.gb_seconds() - 4.0).abs() < 1e-9);
        assert_eq!(rec.requested, SimTime::ZERO);
        assert_eq!(rec.started.as_secs_f64(), 3.0);
    }

    #[test]
    fn injected_failures_surface_via_join() {
        let cfg = FaasConfig::default().with_failure_rate(1.0);
        let (mut sim, faas) = platform_sim(cfg);
        let p = faas.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let err = invoke_and_join(&p, ctx, "f", "t", async |_, _| {})
                .await
                .expect_err("must crash");
            assert!(err.message.contains("injected invocation failure"));
        });
        sim.run().expect("observed failure is fine");
        assert!(
            faas.records().is_empty(),
            "crashed invocations are not billed"
        );
    }

    #[test]
    fn failed_invocations_release_concurrency() {
        // One slot + guaranteed failure: a second invocation must still run.
        let cfg = FaasConfig {
            max_concurrency: 1,
            ..FaasConfig::default().with_failure_rate(1.0)
        };
        let (mut sim, faas) = platform_sim(cfg);
        let p = faas.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let _ = invoke_and_join(&p, ctx, "f", "a", async |_, _| {}).await;
            let _ = invoke_and_join(&p, ctx, "f", "b", async |_, _| {}).await;
        });
        sim.run().expect("run");
    }

    #[test]
    fn warm_container_reuses_its_nic_link() {
        use std::sync::Mutex as StdMutex;
        let (mut sim, faas) = platform_sim(FaasConfig::default());
        let p = faas.clone();
        let nics = Arc::new(StdMutex::new(Vec::new()));
        let nics2 = Arc::clone(&nics);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            for _ in 0..2 {
                let nics = Arc::clone(&nics2);
                invoke_and_join(&p, ctx, "f", "t", async move |_, env| {
                    nics.lock().unwrap().push(env.nic);
                })
                .await
                .unwrap();
            }
        });
        sim.run().expect("run");
        let nics = nics.lock().unwrap();
        assert_eq!(nics[0], nics[1], "warm start must reuse the container NIC");
    }

    #[test]
    fn records_carry_function_and_tag() {
        let (mut sim, faas) = platform_sim(FaasConfig::default());
        let p = faas.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            invoke_and_join(&p, ctx, "mapper", "sort/map", async |_, _| {})
                .await
                .unwrap();
        });
        sim.run().expect("run");
        let recs = faas.records();
        assert_eq!(&*recs[0].function, "mapper");
        assert_eq!(&*recs[0].tag, "sort/map");
        assert!(recs[0].requested <= recs[0].started);
        assert!(recs[0].started <= recs[0].finished);
    }

    #[test]
    fn crashing_body_releases_slot_and_destroys_container() {
        // One slot; a body panic must release it AND not park the
        // container (the next invoke cold-starts).
        let cfg = FaasConfig {
            max_concurrency: 1,
            ..FaasConfig::default()
        };
        let (mut sim, faas) = platform_sim(cfg);
        let p = faas.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let err = invoke_and_join(&p, ctx, "f", "a", async |_, _| panic!("body exploded"))
                .await
                .expect_err("crash observed");
            assert!(err.message.contains("body exploded"));
            // Slot free again and the crashed container is gone -> cold.
            invoke_and_join(&p, ctx, "f", "b", async |_, env| assert!(env.cold))
                .await
                .unwrap();
        });
        sim.run().expect("run");
        assert_eq!(faas.warm_count("f"), 1, "only the healthy container parked");
    }

    #[test]
    fn traced_invocation_records_queue_start_and_compute_spans() {
        let cfg = FaasConfig {
            cold_start: SimDuration::from_millis(500),
            ..FaasConfig::default()
        };
        let (mut sim, faas) = platform_sim(cfg);
        let sink = TraceSink::recording();
        faas.set_trace_sink(sink.clone());
        let p = faas.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            invoke_and_join(&p, ctx, "f", "t", async |fctx, env| {
                env.compute(fctx, SimDuration::from_secs(1)).await;
            })
            .await
            .unwrap();
        });
        sim.run().expect("run");
        let data = sink.snapshot();
        let inv = data
            .spans
            .iter()
            .find(|s| s.category == Category::Invocation)
            .expect("invocation span");
        assert_eq!(inv.name, "f");
        assert_eq!(inv.lane, "inv-1");
        assert!(inv.end.is_some());
        let cold = data
            .spans
            .iter()
            .find(|s| s.category == Category::ColdStart)
            .expect("cold-start span");
        assert_eq!(cold.parent, Some(inv.id));
        assert_eq!(cold.duration().unwrap(), SimDuration::from_millis(500));
        let compute = data
            .spans
            .iter()
            .find(|s| s.category == Category::Compute)
            .expect("compute span");
        assert_eq!(compute.parent, Some(inv.id));
        assert!(data.spans.iter().any(|s| s.category == Category::Queue));
    }

    #[test]
    fn interleaved_tenants_do_not_share_warm_containers() {
        // Two tenants interleave claims on the shared platform. With the
        // pool partitioned by tenant, t1 must NOT pick up the container
        // t0 just parked — on the pre-fix shared pool it warm-started
        // on t0's container (and inherited its NIC).
        let cfg = FaasConfig::default().with_tenant_scoped_pool(true);
        let (mut sim, faas) = platform_sim(cfg);
        let p = faas.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            invoke_and_join(&p, ctx, "f", "t0/r0/sort/map", async |_, env| {
                assert!(env.cold)
            })
            .await
            .unwrap();
            invoke_and_join(&p, ctx, "f", "t1/r0/sort/map", async |_, env| {
                assert!(env.cold, "a tenant must not claim another's container")
            })
            .await
            .unwrap();
            // Each tenant's own second claim is warm.
            invoke_and_join(&p, ctx, "f", "t0/r1/sort/map", async |_, env| {
                assert!(!env.cold)
            })
            .await
            .unwrap();
            invoke_and_join(&p, ctx, "f", "t1/r1/sort/map", async |_, env| {
                assert!(!env.cold)
            })
            .await
            .unwrap();
        });
        sim.run().expect("run");
        // One parked container per tenant partition.
        assert_eq!(faas.warm_count("f"), 2);
    }

    #[test]
    fn interleaved_claims_evict_expired_containers_globally() {
        // Keep-alive expiry used to be evaluated only for the slot being
        // claimed: tenant A's dead "f" container stayed on the books
        // forever while tenant B kept invoking "g". Any claim now sweeps
        // the whole pool.
        let cfg = FaasConfig {
            keep_alive: SimDuration::from_secs(1),
            ..FaasConfig::default()
        };
        let (mut sim, faas) = platform_sim(cfg);
        let p = faas.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            invoke_and_join(&p, ctx, "f", "a", async |_, _| {})
                .await
                .unwrap();
            assert_eq!(p.warm_count("f"), 1);
            ctx.sleep(SimDuration::from_secs(5)).await;
            // A *different* function's claim happens after "f"'s
            // container expired; the expired container must be gone.
            invoke_and_join(&p, ctx, "g", "b", async |_, _| {})
                .await
                .unwrap();
            assert_eq!(
                p.warm_count("f"),
                0,
                "expired container must not survive an interleaved claim"
            );
        });
        sim.run().expect("run");
    }

    /// Runs one `invoke_all` of `bodies` from a driver and returns its
    /// result, with the platform for inspection.
    fn run_gang<B, T>(
        cfg: FaasConfig,
        attempts: u32,
        bodies: Vec<B>,
    ) -> (Result<Vec<T>, JoinError>, Arc<FunctionPlatform>)
    where
        B: AsyncFn(&mut Ctx, FunctionEnv) -> T + 'static,
        T: 'static,
    {
        let (mut sim, faas) = platform_sim(cfg);
        let p = faas.clone();
        let out = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        sim.spawn("driver", move |ctx| async move {
            let result = p.invoke_all(&ctx, "f", "stage", attempts, bodies).await;
            *out2.borrow_mut() = Some(result);
        });
        sim.run().expect("run");
        let result = out.borrow_mut().take().expect("driver ran");
        (result, faas)
    }

    #[test]
    fn invoke_all_returns_outputs_in_body_order() {
        // Later bodies finish first; the outputs still come back in body
        // order.
        let bodies: Vec<_> = (0..4u64)
            .map(|i| {
                async move |fctx: &mut Ctx, _: FunctionEnv| {
                    fctx.sleep(SimDuration::from_secs(4 - i)).await;
                    i * 10
                }
            })
            .collect();
        let (outputs, faas) = run_gang(FaasConfig::default(), 1, bodies);
        assert_eq!(outputs.expect("no crash"), vec![0, 10, 20, 30]);
        assert_eq!(faas.records().len(), 4);
    }

    #[test]
    fn invoke_all_spawns_in_body_order() {
        // Pids are handed out in spawn order.
        let pids = Rc::new(RefCell::new(vec![None; 5]));
        let bodies: Vec<_> = (0..5)
            .map(|i| {
                let pids = Rc::clone(&pids);
                async move |fctx: &mut Ctx, _: FunctionEnv| {
                    pids.borrow_mut()[i] = Some(fctx.pid());
                }
            })
            .collect();
        let (result, _) = run_gang(FaasConfig::default(), 1, bodies);
        result.expect("no crash");
        let pids: Vec<ProcessId> = pids.borrow().iter().map(|p| p.expect("ran")).collect();
        assert!(pids.windows(2).all(|w| w[0] < w[1]), "{:?}", pids);
    }

    #[test]
    fn invoke_all_re_invokes_a_crashed_body_once_per_crash() {
        // Body i crashes on its first i tries; with 4 attempts each, body
        // i is re-invoked exactly i times and every body succeeds.
        let tries = Rc::new(RefCell::new(vec![0u32; 4]));
        let bodies: Vec<_> = (0..4u32)
            .map(|i| {
                let tries = Rc::clone(&tries);
                async move |_: &mut Ctx, _: FunctionEnv| {
                    let t = {
                        let mut tries = tries.borrow_mut();
                        tries[i as usize] += 1;
                        tries[i as usize]
                    };
                    if t <= i {
                        panic!("body {} crashed on try {}", i, t);
                    }
                    i
                }
            })
            .collect();
        let (outputs, faas) = run_gang(FaasConfig::default(), 4, bodies);
        assert_eq!(outputs.expect("every body succeeds"), vec![0, 1, 2, 3]);
        assert_eq!(*tries.borrow(), vec![1, 2, 3, 4]);
        // Only the successful invocation of each body is billed.
        assert_eq!(faas.records().len(), 4);
    }

    #[test]
    fn invoke_all_reports_the_final_rounds_first_failure() {
        // Bodies 1 and 2 crash on every try; body 0 succeeds. The error
        // is body 1's (the first failure in body order) from its last
        // attempt.
        let bodies: Vec<_> = (0..3u32)
            .map(|i| {
                let tries = Rc::new(RefCell::new(0u32));
                async move |_: &mut Ctx, _: FunctionEnv| {
                    *tries.borrow_mut() += 1;
                    if i > 0 {
                        panic!("body {} crashed on try {}", i, *tries.borrow());
                    }
                }
            })
            .collect();
        let (result, faas) = run_gang(FaasConfig::default(), 3, bodies);
        let err = result.expect_err("bodies 1 and 2 exhaust their attempts");
        assert_eq!(err.process, "fn:f:stage");
        assert!(
            err.message.contains("body 1 crashed on try 3"),
            "{}",
            err.message
        );
        assert_eq!(faas.records().len(), 1);
        // Zero attempts count as one: a crashed body is not re-invoked.
        let tries = Rc::new(RefCell::new(0u32));
        let counted = Rc::clone(&tries);
        let bodies = vec![async move |_: &mut Ctx, _: FunctionEnv| {
            *counted.borrow_mut() += 1;
            panic!("only try");
        }];
        let (result, _) = run_gang::<_, ()>(FaasConfig::default(), 0, bodies);
        assert!(result
            .expect_err("the one try crashes")
            .message
            .contains("only try"));
        assert_eq!(*tries.borrow(), 1);
    }
}
