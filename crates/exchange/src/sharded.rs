//! A fleet of relay VMs behind one exchange: the scale-out
//! counterfactual to the paper's single-relay comparison.
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

use crate::api::{DataExchange, ExchangeEnv};
use crate::error::ExchangeError;
use crate::retry::with_retry;
use crate::vm_relay::{relay_gets_windowed, relay_puts_windowed, RelayConfig, RelayShard};

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
                    "sharded-relay",
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

    fn write_partitions<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
        map: usize,
        parts: Vec<Bytes>,
    ) -> LocalBoxFuture<'a, Result<u64, ExchangeError>> {
        Box::pin(async move {
            let written = parts.iter().map(|d| d.len() as u64).sum();
            if env.io_window > 1 && parts.len() > 1 {
                // Routing happens here in the caller; children only move
                // bytes, so the cell→shard mapping stays identical to the
                // sequential path.
                let items = parts
                    .into_iter()
                    .enumerate()
                    .map(|(j, data)| (Arc::clone(self.route(map, j)), map, j, data))
                    .collect();
                relay_puts_windowed(ctx, env, items).await?;
                return Ok(written);
            }
            for (j, data) in parts.into_iter().enumerate() {
                let shard = self.route(map, j);
                with_retry(ctx, env.retries, async |c: &mut Ctx| {
                    shard.put_part(c, env, map, j, &data).await
                })
                .await?;
            }
            Ok(written)
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
            let shard = self.route(map, part);
            with_retry(ctx, env.retries, async |c: &mut Ctx| {
                shard.get_part(c, env, map, part).await
            })
            .await
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
            let items = reqs
                .iter()
                .map(|&(map, part)| (Arc::clone(self.route(map, part)), map, part))
                .collect();
            relay_gets_windowed(ctx, env, items).await
        })
    }

    fn list<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
    ) -> LocalBoxFuture<'a, Result<Vec<String>, ExchangeError>> {
        Box::pin(async move {
            // One metered LIST per shard; the concatenation is sorted so
            // output does not depend on shard layout.
            let mut keys = Vec::new();
            for shard in &self.shards {
                keys.extend(shard.list_keys(ctx, env).await?);
            }
            keys.sort();
            Ok(keys)
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
    use faaspipe_des::{Sim, SimDuration};
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
                ex2.write_partitions(ctx, &env, m, parts)
                    .await
                    .expect("write");
            }
            assert_eq!(ex2.list(ctx, &env).await.expect("list").len(), 16);
            for m in 0..4usize {
                for j in 0..4usize {
                    let data = ex2.read_partition(ctx, &env, m, j).await.expect("read");
                    assert_eq!(data, Bytes::from(vec![(m * 4 + j) as u8; 64]));
                }
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
            ex2.write_partitions(
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
            ex2.write_partitions(
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
}
