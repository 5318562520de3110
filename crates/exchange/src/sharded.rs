//! A fleet of relay VMs behind one exchange: the paper's single relay
//! VM (`vm_relay`, one cold shard) and its scale-out counterfactual.
//!
//! One relay VM loses to coalesced COS because all W² transfers funnel
//! through one NIC. [`ShardedRelayExchange`] runs N [`RelayShard`]s and
//! routes every `(map, part)` cell to a shard by stable hash, so
//! aggregate relay bandwidth scales with the shard count — at N× the
//! per-second bill. Its **pre-warming** mode returns from `prepare`
//! immediately and boots the shards in background processes, overlapping
//! the 44 s provisioning delay with whatever the caller does next (the
//! shuffle's sample phase); requests that arrive before a shard is ready
//! block on the boot and charge only that *residual* wait to the
//! critical path.

use std::sync::Arc;

use bytes::Bytes;
use faaspipe_des::{Ctx, LocalBoxFuture};
use faaspipe_trace::TraceSink;
use faaspipe_vm::VmFleet;

use crate::api::{dense_parts, DataExchange, ExchangeEnv};
use crate::error::ExchangeError;
use crate::retry::with_retry;
use crate::vm_relay::{RelayConfig, RelayShard};
use crate::window::windowed;

/// Tuning of the [`ShardedRelayExchange`].
#[derive(Debug, Clone)]
pub struct ShardedRelayConfig {
    /// Per-shard relay tuning (profile, latency, capacity, spill,
    /// failure injection). Every shard gets its own VM, NIC, memory
    /// budget, and request/crash counters from this template.
    pub relay: RelayConfig,
    /// Number of relay VMs; clamped to at least 1.
    pub shards: usize,
    /// When set, `prepare` kicks the boots off in the background and
    /// returns immediately instead of blocking for the provisioning
    /// delay.
    pub prewarm: bool,
}

impl Default for ShardedRelayConfig {
    fn default() -> Self {
        ShardedRelayConfig {
            relay: RelayConfig::default(),
            shards: 4,
            prewarm: false,
        }
    }
}

/// Exchange through N relay VMs with deterministic partition routing.
///
/// Each `(map, part)` cell lives on exactly one shard, chosen by an
/// FNV-1a hash of the pair — stable across runs, platforms, and worker
/// counts, so re-executed mappers and re-reading reducers always hit
/// the shard that holds their data. Shard boots run as parallel
/// processes: a cold `prepare` costs one provisioning delay regardless
/// of N (and N× the per-second bill); with
/// [`prewarm`](ShardedRelayConfig::prewarm) it costs nothing up front.
pub struct ShardedRelayExchange {
    shards: Vec<Arc<RelayShard>>,
    prewarm: bool,
}

impl std::fmt::Debug for ShardedRelayExchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("ShardedRelayExchange");
        d.field("shards", &self.shards.len())
            .field("prewarm", &self.prewarm);
        d.finish()
    }
}

impl ShardedRelayExchange {
    /// Creates a sharded relay backend provisioning through `fleet`.
    pub fn new(fleet: VmFleet, cfg: ShardedRelayConfig) -> ShardedRelayExchange {
        let relay = Arc::new(cfg.relay);
        let shards = (0..cfg.shards.max(1))
            .map(|i| {
                Arc::new(RelayShard::new(
                    fleet.clone(),
                    Arc::clone(&relay),
                    format!("relay-{:02}", i),
                ))
            })
            .collect();
        ShardedRelayExchange {
            shards,
            prewarm: cfg.prewarm,
        }
    }

    /// Routes the shards' request spans and gauges to `sink`.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        for shard in &mut self.shards {
            Arc::make_mut(shard).set_trace(sink.clone());
        }
        self
    }

    /// The shard holding `(map, part)`: FNV-1a over the pair's
    /// little-endian bytes, mod the shard count. Byte-for-byte
    /// deterministic — no platform-dependent hasher state.
    fn route(&self, map: usize, part: usize) -> &Arc<RelayShard> {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for b in (map as u64)
            .to_le_bytes()
            .into_iter()
            .chain((part as u64).to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }
}

impl DataExchange for ShardedRelayExchange {
    fn name(&self) -> &'static str {
        "sharded-relay"
    }

    fn prepare<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        _maps: usize,
        _parts: usize,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>> {
        Box::pin(async move {
            // All shards boot as parallel processes, so a cold prepare
            // costs one provisioning delay, not N. With prewarm the boots
            // keep running in the background and the caller overlaps them
            // with its next phase.
            let mut pending = Vec::new();
            for shard in &self.shards {
                if let Some(pid) = shard.begin_provision(ctx, self.prewarm).await {
                    pending.push(pid);
                }
            }
            if !self.prewarm {
                for pid in pending {
                    let _ = ctx.join(pid).await;
                }
            }
            Ok(())
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
            let written = cuts.iter().map(|&(_, _, len)| len).sum();
            // One PUT per partition, empty ones included. Routing happens
            // here in the caller; children only move bytes.
            let jobs = dense_parts(&run, &cuts, parts_len)
                .into_iter()
                .enumerate()
                .map(|(j, data)| {
                    let shard = Arc::clone(self.route(map, j));
                    let env = env.clone();
                    async move |cctx: &mut Ctx| {
                        with_retry(cctx, env.retries, async |c: &mut Ctx| {
                            shard.put_part(c, &env, map, j, &data).await
                        })
                        .await
                    }
                });
            let name = format!("{}-put", env.tag);
            // Every shard records to the one sink.
            let trace = &self.shards[0].trace;
            windowed(ctx, trace, &name, env.io_window, parts_len, jobs)
                .await
                .into_iter()
                .collect::<Result<Vec<()>, ExchangeError>>()?;
            Ok(written)
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
            let jobs = (0..maps).map(|map| {
                let shard = Arc::clone(self.route(map, part));
                let env = env.clone();
                async move |cctx: &mut Ctx| {
                    with_retry(cctx, env.retries, async |c: &mut Ctx| {
                        shard.get_part(c, &env, map, part).await
                    })
                    .await
                }
            });
            let name = format!("{}-get", env.tag);
            let trace = &self.shards[0].trace;
            let runs = windowed(ctx, trace, &name, env.io_window, maps, jobs)
                .await
                .into_iter()
                .collect::<Result<Vec<Bytes>, ExchangeError>>()?;
            Ok(runs.into_iter().filter(|r| !r.is_empty()).collect())
        })
    }

    fn cleanup<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        _env: &'a ExchangeEnv,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>> {
        Box::pin(async move {
            for shard in &self.shards {
                shard.shutdown(ctx).await;
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::write_parts;
    use faaspipe_des::{ByteSize, Sim, SimDuration};
    use faaspipe_store::FailurePolicy;
    use faaspipe_trace::Category;
    use parking_lot::Mutex;

    fn driver_env() -> ExchangeEnv {
        ExchangeEnv::driver("test", 3)
    }

    fn config(shards: usize, prewarm: bool) -> ShardedRelayConfig {
        ShardedRelayConfig {
            shards,
            prewarm,
            ..ShardedRelayConfig::default()
        }
    }

    #[test]
    fn routing_is_deterministic_and_uses_every_shard() {
        let fleet = VmFleet::new();
        let ex = ShardedRelayExchange::new(fleet, config(4, false));
        let mut used = [false; 4];
        for map in 0..16usize {
            for part in 0..16usize {
                let a = ex.route(map, part).label().to_string();
                let b = ex.route(map, part).label().to_string();
                assert_eq!(a, b, "routing must be stable");
                let idx: usize = a.rsplit('-').next().unwrap().parse().unwrap();
                used[idx] = true;
            }
        }
        assert!(used.iter().all(|&u| u), "16×16 cells must hit all 4 shards");
    }

    #[test]
    fn roundtrips_across_shards_and_bills_every_vm() {
        let mut sim = Sim::new();
        let fleet = VmFleet::new();
        let ex = Arc::new(ShardedRelayExchange::new(fleet.clone(), config(4, false)));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = driver_env();
            ex2.prepare(ctx, 4, 4).await.expect("prepare");
            assert_eq!(
                ctx.now().as_secs_f64(),
                44.0,
                "parallel boots cost one provisioning delay, not four"
            );
            for m in 0..4usize {
                let parts = (0..4)
                    .map(|j| Bytes::from(vec![(m * 4 + j) as u8; 64]))
                    .collect();
                write_parts(&*ex2, ctx, &env, m, parts)
                    .await
                    .expect("write");
            }
            let stored: usize = ex2.shards.iter().map(|s| s.object_count()).sum();
            assert_eq!(stored, 16);
            for j in 0..4usize {
                let column = ex2.read_gather(ctx, &env, 4, j).await.expect("read");
                let want: Vec<Bytes> = (0..4usize)
                    .map(|m| Bytes::from(vec![(m * 4 + j) as u8; 64]))
                    .collect();
                assert_eq!(column, want);
            }
            ex2.cleanup(ctx, &env).await.expect("cleanup");
        });
        sim.run().expect("sim ok");
        let records = fleet.records();
        assert_eq!(records.len(), 4, "one VM per shard");
        assert!(
            records.iter().all(|r| r.released.is_some()),
            "cleanup released every shard"
        );
    }

    #[test]
    fn prewarm_overlaps_provisioning_with_caller_work() {
        let mut sim = Sim::new();
        let fleet = VmFleet::new();
        let ex = Arc::new(ShardedRelayExchange::new(fleet.clone(), config(2, true)));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = driver_env();
            ex2.prepare(ctx, 2, 2).await.expect("prepare");
            assert_eq!(
                ctx.now().as_secs_f64(),
                0.0,
                "prewarmed prepare must not block"
            );
            // 10 s of "sample phase" overlap the 44 s boots...
            ctx.sleep(SimDuration::from_secs(10)).await;
            write_parts(
                &*ex2,
                ctx,
                &env,
                0,
                vec![Bytes::from_static(b"x"), Bytes::from_static(b"y")],
            )
            .await
            .expect("write");
            // ...so the first request blocks only for the residual 34 s.
            assert!(
                ctx.now().as_secs_f64() >= 44.0,
                "requests must wait for the boot to finish"
            );
            assert!(
                ctx.now().as_secs_f64() < 45.0,
                "but not pay the provisioning delay again"
            );
            ex2.cleanup(ctx, &env).await.expect("cleanup");
        });
        sim.run().expect("sim ok");
        assert_eq!(fleet.records().len(), 2);
        assert!(fleet.records().iter().all(|r| r.released.is_some()));
    }

    #[test]
    fn prewarmed_boot_charges_only_residual_wait_to_the_critical_path() {
        let mut sim = Sim::new();
        let fleet = VmFleet::new();
        let sink = TraceSink::recording();
        fleet.set_trace_sink(sink.clone());
        let ex = Arc::new(
            ShardedRelayExchange::new(fleet.clone(), config(2, true)).with_trace(sink.clone()),
        );
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = driver_env();
            ex2.prepare(ctx, 2, 2).await.expect("prepare");
            ctx.sleep(SimDuration::from_secs(10)).await;
            write_parts(
                &*ex2,
                ctx,
                &env,
                0,
                vec![Bytes::from_static(b"x"), Bytes::from_static(b"y")],
            )
            .await
            .expect("write");
            ex2.cleanup(ctx, &env).await.expect("cleanup");
        });
        sim.run().expect("sim ok");
        let data = sink.snapshot();
        assert!(
            data.spans.iter().any(|s| s.category == Category::VmTask),
            "shard VMs record their task spans"
        );
        let cold: Vec<_> = data
            .spans
            .iter()
            .filter(|s| s.category == Category::ColdStart)
            .collect();
        assert!(
            cold.iter().all(|s| s.name == "relay-wait"),
            "background boots must not emit vm-provision cold starts: {:?}",
            cold.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
        let longest = cold
            .iter()
            .filter_map(|s| s.duration())
            .map(|d| d.as_secs_f64())
            .fold(0.0f64, f64::max);
        assert!(
            (longest - 34.0).abs() < 1.0,
            "the critical path sees only the residual wait (~34 s), got {}",
            longest
        );
    }

    #[test]
    fn cleanup_joins_in_flight_boots_before_releasing() {
        let mut sim = Sim::new();
        let fleet = VmFleet::new();
        let ex = Arc::new(ShardedRelayExchange::new(fleet.clone(), config(3, true)));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = driver_env();
            ex2.prepare(ctx, 2, 2).await.expect("prepare");
            // Tear down while every boot is still in flight.
            ex2.cleanup(ctx, &env).await.expect("cleanup");
            assert_eq!(ctx.now().as_secs_f64(), 44.0, "cleanup waits out the boots");
        });
        sim.run().expect("sim ok");
        let records = fleet.records();
        assert_eq!(records.len(), 3);
        assert!(
            records.iter().all(|r| r.released.is_some()),
            "no leaked billing records"
        );
    }

    #[test]
    fn shard_crash_only_loses_that_shards_cells() {
        let mut sim = Sim::new();
        let cfg = ShardedRelayConfig {
            relay: RelayConfig {
                // Each shard dies after its 5th request; with 16 cells
                // over 2 shards (~8 puts each), both crash mid-write.
                crash_after_requests: Some(5),
                ..RelayConfig::default()
            },
            shards: 2,
            prewarm: false,
        };
        let ex = Arc::new(ShardedRelayExchange::new(VmFleet::new(), cfg));
        let outcome: Arc<Mutex<(usize, usize)>> = Arc::new(Mutex::new((0, 0)));
        let out2 = Arc::clone(&outcome);
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 1);
            ex2.prepare(ctx, 4, 4).await.expect("prepare");
            let (mut ok, mut down) = (0usize, 0usize);
            for m in 0..4usize {
                for j in 0..4usize {
                    match ex2
                        .route(m, j)
                        .put_part(ctx, &env, m, j, &Bytes::from_static(b"z"))
                        .await
                    {
                        Ok(()) => ok += 1,
                        Err(ExchangeError::RelayDown { .. }) => down += 1,
                        Err(e) => panic!("unexpected error: {:?}", e),
                    }
                }
            }
            *out2.lock() = (ok, down);
        });
        sim.run().expect("sim ok");
        let (ok, down) = *outcome.lock();
        assert_eq!(ok + down, 16);
        assert_eq!(ok, 10, "each shard serves 5 requests before dying");
        assert_eq!(down, 6);
    }

    // ---- The paper's single relay VM (`vm_relay`): one cold shard. ----

    /// A cold one-shard fleet: the backend `vm_relay` runs on.
    fn single(fleet: VmFleet, relay: RelayConfig) -> ShardedRelayExchange {
        ShardedRelayExchange::new(
            fleet,
            ShardedRelayConfig {
                relay,
                shards: 1,
                prewarm: false,
            },
        )
    }

    #[test]
    fn single_shard_roundtrips_partitions_and_bills_the_vm() {
        let mut sim = Sim::new();
        let fleet = VmFleet::new();
        let ex = Arc::new(single(fleet.clone(), RelayConfig::default()));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = driver_env();
            ex2.prepare(ctx, 2, 2).await.expect("prepare");
            assert_eq!(ctx.now().as_secs_f64(), 44.0, "provisioning charged");
            for m in 0..2usize {
                let parts = vec![Bytes::from(vec![m as u8; 100]), Bytes::from(vec![0u8; 50])];
                let written = write_parts(&*ex2, ctx, &env, m, parts)
                    .await
                    .expect("write");
                assert_eq!(written, 150);
            }
            let shard = &ex2.shards[0];
            assert_eq!(shard.label(), "relay-00");
            assert_eq!(shard.object_count(), 4);
            for (m, j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                assert_eq!(
                    shard.is_spilled(m, j),
                    Some(false),
                    "cell ({m}, {j}) in memory"
                );
            }
            let column = ex2.read_gather(ctx, &env, 2, 0).await.expect("read");
            assert_eq!(
                column,
                vec![Bytes::from(vec![0u8; 100]), Bytes::from(vec![1u8; 100])]
            );
            ex2.cleanup(ctx, &env).await.expect("cleanup");
        });
        sim.run().expect("sim ok");
        let records = fleet.records();
        assert_eq!(records.len(), 1, "one relay VM provisioned");
        assert!(records[0].released.is_some(), "cleanup released it");
    }

    /// Regression (lifecycle bug 1): two processes calling `prepare`
    /// concurrently used to both observe `vm: None`, both provision,
    /// and double-bill — one VM leaked unreleased. The in-flight guard
    /// must make the second caller wait on the first boot.
    #[test]
    fn concurrent_prepares_provision_exactly_one_vm() {
        let mut sim = Sim::new();
        let fleet = VmFleet::new();
        let ex = Arc::new(single(fleet.clone(), RelayConfig::default()));
        for name in ["worker-a", "worker-b"] {
            let ex2 = Arc::clone(&ex);
            sim.spawn(name, move |mut ctx| async move {
                let ctx = &mut ctx;
                ex2.prepare(ctx, 2, 2).await.expect("prepare");
                assert_eq!(
                    ctx.now().as_secs_f64(),
                    44.0,
                    "both callers resume when the shared VM is ready"
                );
            });
        }
        sim.run().expect("sim ok");
        assert_eq!(fleet.records().len(), 1, "exactly one VM provisioned");
    }

    /// Regression (lifecycle bug 2): a request before `prepare` must
    /// fail with `NotPrepared` instead of answering from an empty table,
    /// and reads are metered toward `crash_after_requests` like writes.
    #[test]
    fn reads_require_prepare_and_count_toward_crash() {
        let mut sim = Sim::new();
        let cfg = RelayConfig {
            crash_after_requests: Some(2),
            ..RelayConfig::default()
        };
        let ex = Arc::new(single(VmFleet::new(), cfg));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = driver_env();
            let err = ex2
                .read_gather(ctx, &env, 1, 0)
                .await
                .expect_err("read before prepare");
            assert_eq!(
                err,
                ExchangeError::NotPrepared {
                    backend: "sharded-relay"
                }
            );
            ex2.prepare(ctx, 1, 1).await.expect("prepare");
            write_parts(&*ex2, ctx, &env, 0, vec![Bytes::from("x")])
                .await
                .expect("request 1");
            let column = ex2.read_gather(ctx, &env, 1, 0).await.expect("request 2");
            assert_eq!(column, vec![Bytes::from("x")]);
            let err = ex2
                .read_gather(ctx, &env, 1, 0)
                .await
                .expect_err("request 3 trips the crash");
            assert_eq!(err, ExchangeError::RelayDown { op: "GET" });
        });
        sim.run().expect("sim ok");
    }

    /// Regression (lifecycle bug 3): failure paths in the request
    /// overhead used to return before `ctx.sleep(request_latency).await`, so
    /// retry storms against a crashed (or never-prepared) relay cost
    /// nothing in virtual time. A caller must pay the round-trip before
    /// observing the failure.
    #[test]
    fn requests_against_a_dead_relay_still_pay_latency() {
        let mut sim = Sim::new();
        let cfg = RelayConfig {
            crash_after_requests: Some(0),
            ..RelayConfig::default()
        };
        let latency = cfg.request_latency.as_secs_f64();
        let ex = Arc::new(single(VmFleet::new(), cfg));
        let unprepared = Arc::new(single(VmFleet::new(), RelayConfig::default()));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 1);
            ex2.prepare(ctx, 1, 1).await.expect("prepare");
            let before = ctx.now();
            let err = ex2
                .read_gather(ctx, &env, 1, 0)
                .await
                .expect_err("first request crashes the relay");
            assert_eq!(err, ExchangeError::RelayDown { op: "GET" });
            let paid = ctx.now().saturating_duration_since(before).as_secs_f64();
            assert!(
                (paid - latency).abs() < 1e-9,
                "crashing request paid {}s, want the {}s round-trip",
                paid,
                latency
            );
            let before = ctx.now();
            let err = ex2
                .read_gather(ctx, &env, 1, 0)
                .await
                .expect_err("relay stays down");
            assert_eq!(err, ExchangeError::RelayDown { op: "GET" });
            let paid = ctx.now().saturating_duration_since(before).as_secs_f64();
            assert!(
                (paid - latency).abs() < 1e-9,
                "dead-relay request paid {}s, want {}s",
                paid,
                latency
            );
            // NotPrepared pays the round-trip too.
            let before = ctx.now();
            write_parts(&*unprepared, ctx, &env, 0, vec![Bytes::from("x")])
                .await
                .expect_err("not prepared");
            let paid = ctx.now().saturating_duration_since(before).as_secs_f64();
            assert!(
                (paid - latency).abs() < 1e-9,
                "unprepared request paid {}s, want {}s",
                paid,
                latency
            );
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn over_capacity_objects_spill_to_disk_and_cost_more() {
        fn read_time(capacity: ByteSize) -> f64 {
            let mut sim = Sim::new();
            let cfg = RelayConfig {
                memory_capacity: capacity,
                ..RelayConfig::default()
            };
            let ex = Arc::new(single(VmFleet::new(), cfg));
            let out: Arc<Mutex<f64>> = Arc::new(Mutex::new(0.0));
            let out2 = Arc::clone(&out);
            let ex2 = Arc::clone(&ex);
            sim.spawn("driver", move |mut ctx| async move {
                let ctx = &mut ctx;
                let env = driver_env();
                ex2.prepare(ctx, 1, 1).await.expect("prepare");
                let blob = Bytes::from(vec![7u8; 8 * 1024 * 1024]);
                write_parts(&*ex2, ctx, &env, 0, vec![blob])
                    .await
                    .expect("write");
                let before = ctx.now();
                ex2.read_gather(ctx, &env, 1, 0).await.expect("read");
                *out2.lock() = ctx.now().saturating_duration_since(before).as_secs_f64();
            });
            sim.run().expect("sim ok");
            let took = *out.lock();
            took
        }
        let in_memory = read_time(ByteSize::gib(1));
        let spilled = read_time(ByteSize::new(1024));
        // 8 MiB at 350 MiB/s disk ≈ 23 ms extra.
        assert!(
            spilled > in_memory + 0.02,
            "spilled read {} must exceed in-memory {} by the disk time",
            spilled,
            in_memory
        );
    }

    /// Overwrites must keep the memory ledger exact whichever side of
    /// the spill boundary the old and new copies land on: a spilled
    /// object's re-write cannot double-free memory it never held, and a
    /// resident object's re-write frees its bytes before re-admitting.
    #[test]
    fn overwriting_a_spilled_object_keeps_accounting_exact() {
        let mut sim = Sim::new();
        let cfg = RelayConfig {
            memory_capacity: ByteSize::new(100),
            ..RelayConfig::default()
        };
        let ex = Arc::new(single(VmFleet::new(), cfg));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            ex2.prepare(ctx, 1, 2).await.expect("prepare");
            let shard = &ex2.shards[0];
            let put = async |ctx: &mut Ctx, part: usize, len: usize| {
                let env = driver_env();
                let data = Bytes::from(vec![9u8; len]);
                shard
                    .put_part(ctx, &env, 0, part, &data)
                    .await
                    .expect("put");
            };
            put(ctx, 0, 100).await; // fills memory exactly
            assert_eq!(shard.mem_used(), 100);
            assert_eq!(shard.is_spilled(0, 0), Some(false));
            put(ctx, 1, 80).await; // over capacity → disk
            assert_eq!(shard.mem_used(), 100, "spill leaves memory untouched");
            assert_eq!(shard.is_spilled(0, 1), Some(true));
            put(ctx, 1, 80).await; // overwrite of the spilled copy
            assert_eq!(shard.mem_used(), 100, "no double-free of spilled bytes");
            assert_eq!(shard.is_spilled(0, 1), Some(true));
            put(ctx, 0, 60).await; // resident overwrite shrinks the ledger
            assert_eq!(shard.mem_used(), 60);
            put(ctx, 1, 40).await; // now fits: the spilled key comes back resident
            assert_eq!(shard.mem_used(), 100);
            assert_eq!(shard.is_spilled(0, 1), Some(false));
            assert_eq!(shard.object_count(), 2);
        });
        sim.run().expect("sim ok");
    }

    /// The shard's `mem_bytes` gauge must never exceed the configured
    /// capacity (overwrites included) and must return to zero on
    /// cleanup.
    #[test]
    fn mem_gauge_stays_within_capacity_and_resets_on_cleanup() {
        let mut sim = Sim::new();
        let capacity = 100u64;
        let cfg = RelayConfig {
            memory_capacity: ByteSize::new(capacity),
            ..RelayConfig::default()
        };
        let sink = TraceSink::recording();
        let ex = Arc::new(single(VmFleet::new(), cfg).with_trace(sink.clone()));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = driver_env();
            ex2.prepare(ctx, 2, 2).await.expect("prepare");
            for round in 0..3usize {
                for m in 0..2usize {
                    let parts = vec![
                        Bytes::from(vec![round as u8; 40]),
                        Bytes::from(vec![round as u8; 35]),
                    ];
                    write_parts(&*ex2, ctx, &env, m, parts)
                        .await
                        .expect("write");
                }
            }
            ex2.cleanup(ctx, &env).await.expect("cleanup");
        });
        sim.run().expect("sim ok");
        let data = sink.snapshot();
        let series = data.counter("relay-00.mem_bytes").expect("gauge recorded");
        assert!(
            series
                .points
                .iter()
                .all(|&(_, v)| v >= 0.0 && v <= capacity as f64),
            "gauge must stay within [0, capacity]: {:?}",
            series.points
        );
        assert_eq!(series.last_value(), 0.0, "cleanup resets the gauge");
    }

    #[test]
    fn transient_faults_are_absorbed_by_retries() {
        let mut sim = Sim::new();
        let cfg = RelayConfig {
            failure: FailurePolicy::with_error_rate(0.3),
            ..RelayConfig::default()
        };
        let ex = Arc::new(single(VmFleet::new(), cfg));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 20);
            ex2.prepare(ctx, 4, 4).await.expect("prepare");
            for m in 0..4usize {
                let parts = (0..4).map(|_| Bytes::from(vec![1u8; 64])).collect();
                write_parts(&*ex2, ctx, &env, m, parts)
                    .await
                    .expect("writes survive 30% faults");
            }
            for j in 0..4usize {
                let column = ex2
                    .read_gather(ctx, &env, 4, j)
                    .await
                    .expect("reads survive 30% faults");
                assert_eq!(column.len(), 4);
            }
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn crash_is_permanent_and_loses_data() {
        let mut sim = Sim::new();
        let cfg = RelayConfig {
            crash_after_requests: Some(3),
            ..RelayConfig::default()
        };
        let ex = Arc::new(single(VmFleet::new(), cfg));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 5);
            ex2.prepare(ctx, 1, 4).await.expect("prepare");
            let parts = (0..4).map(|_| Bytes::from(vec![1u8; 16])).collect();
            let err = write_parts(&*ex2, ctx, &env, 0, parts)
                .await
                .expect_err("crash kills the exchange");
            assert_eq!(err, ExchangeError::RelayDown { op: "PUT" });
            // Retries cannot resurrect a dead relay.
            let err = ex2
                .read_gather(ctx, &env, 1, 0)
                .await
                .expect_err("still down");
            assert_eq!(err, ExchangeError::RelayDown { op: "GET" });
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn unprepared_relay_is_rejected() {
        let mut sim = Sim::new();
        let ex = Arc::new(single(VmFleet::new(), RelayConfig::default()));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = driver_env();
            let err = write_parts(&*ex2, ctx, &env, 0, vec![Bytes::from("x")])
                .await
                .expect_err("not prepared");
            assert_eq!(
                err,
                ExchangeError::NotPrepared {
                    backend: "sharded-relay"
                }
            );
        });
        sim.run().expect("sim ok");
    }
}
