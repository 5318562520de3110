//! Rendezvous function-to-function streaming.

use std::collections::BTreeMap;

use bytes::Bytes;
use faaspipe_des::{Ctx, LinkId, LocalBoxFuture, SimDuration, SimTime};
use faaspipe_store::failure::Fate;
use faaspipe_store::{scaled_len, FailurePolicy};
use faaspipe_trace::TraceSink;
use parking_lot::Mutex;

use crate::api::{dense_parts, DataExchange, ExchangeEnv};
use crate::error::ExchangeError;
use crate::retry::with_retry;
use crate::span::{request_begin, request_end, transfer};
use crate::window::windowed;

/// Tuning of the [`DirectExchange`].
#[derive(Debug, Clone)]
pub struct DirectConfig {
    /// Fixed rendezvous overhead per operation (registering a partition,
    /// opening a peer connection).
    pub handshake: SimDuration,
    /// How long a finished sender's container keeps its buffered
    /// partitions before the platform evicts it. Reads after this window
    /// fail irrecoverably ([`ExchangeError::PeerGone`]). Mirror the FaaS
    /// platform's keep-alive here.
    pub keep_alive: SimDuration,
    /// Maximum virtual time a reader waits for a partition that has not
    /// been registered yet before one attempt times out.
    pub rendezvous_timeout: SimDuration,
    /// Poll interval while waiting for a missing partition.
    pub poll: SimDuration,
    /// Probabilistic fault injection on reads: failed rendezvous show up
    /// as transient [`ExchangeError::PeerTimeout`]s and are retried.
    pub failure: FailurePolicy,
    /// Wire-size scale factor, mirroring
    /// [`StoreConfig::size_scale`](faaspipe_store::StoreConfig::size_scale).
    pub size_scale: f64,
}

impl Default for DirectConfig {
    fn default() -> Self {
        DirectConfig {
            handshake: SimDuration::from_millis(1),
            keep_alive: SimDuration::from_secs(600),
            rendezvous_timeout: SimDuration::from_secs(30),
            poll: SimDuration::from_millis(100),
            failure: FailurePolicy::none(),
            size_scale: 1.0,
        }
    }
}

/// One partition parked in its sender's container memory.
#[derive(Debug)]
struct DirectPart {
    data: Bytes,
    /// Scaled wire size.
    wire: u64,
    /// The sender's NIC — reads stream through it.
    sender_nic: Option<LinkId>,
    /// When the sender registered the partition (starts the keep-alive
    /// clock).
    written_at: SimTime,
}

#[derive(Debug, Default)]
struct DirectState {
    parts: BTreeMap<(usize, usize), DirectPart>,
    /// Scaled bytes currently buffered across all warm senders.
    buffered: u64,
}

/// Exchange by streaming directly between functions: mappers keep their
/// partitions in container memory and register them with a rendezvous
/// service; reducers stream each partition straight from the sender
/// through the DES fluid-flow network (the transfer traverses **both**
/// NICs).
///
/// No storage service is paid, no intermediate object is written — but
/// the exchange only works while both sides are concurrently warm: once
/// a sender's container is evicted (`keep_alive` after it finished), its
/// partitions are gone and readers fail loudly with
/// [`ExchangeError::PeerGone`]. That fragility is exactly the trade-off
/// the Bauplan-style zero-copy argument makes.
pub struct DirectExchange {
    core: DirectCore,
}

/// The shareable innards of [`DirectExchange`]: cloning is cheap and
/// shares the rendezvous table, so the gather can hand a clone to each
/// job of its request window.
#[derive(Clone)]
struct DirectCore {
    cfg: std::sync::Arc<DirectConfig>,
    trace: TraceSink,
    state: std::sync::Arc<Mutex<DirectState>>,
}

impl std::fmt::Debug for DirectExchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.core.state.lock();
        f.debug_struct("DirectExchange")
            .field("cfg", &self.core.cfg)
            .field("parts", &state.parts.len())
            .field("buffered", &state.buffered)
            .finish()
    }
}

impl DirectExchange {
    /// Creates a direct-streaming backend.
    pub fn new(cfg: DirectConfig) -> DirectExchange {
        DirectExchange {
            core: DirectCore {
                cfg: std::sync::Arc::new(cfg),
                trace: TraceSink::default(),
                state: std::sync::Arc::new(Mutex::new(DirectState::default())),
            },
        }
    }

    /// Routes the backend's spans and gauges to `sink`.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.core.trace = sink;
        self
    }
}

impl DirectCore {
    /// One rendezvous + stream attempt for a single partition.
    async fn stream_part(
        &self,
        ctx: &mut Ctx,
        env: &ExchangeEnv,
        map: usize,
        part: usize,
    ) -> Result<Bytes, ExchangeError> {
        let key = ("direct", map, part);
        let span = request_begin(&self.trace, ctx, "STREAM", "direct", &env.tag, key);
        let fate = self.cfg.failure.draw(ctx.rng());
        ctx.sleep(self.cfg.handshake).await;
        if matches!(fate, Fate::Fail) {
            request_end(&self.trace, ctx, span, 0, true);
            return Err(ExchangeError::PeerTimeout { map, part });
        }
        // Rendezvous: wait for the sender to register the partition.
        let mut waited = SimDuration::ZERO;
        let found = loop {
            match self.lookup(map, part) {
                Some(found) => break found,
                None if waited >= self.cfg.rendezvous_timeout => {
                    request_end(&self.trace, ctx, span, 0, true);
                    return Err(ExchangeError::PeerTimeout { map, part });
                }
                None => {
                    ctx.sleep(self.cfg.poll).await;
                    waited = waited.saturating_add(self.cfg.poll);
                }
            }
        };
        let (data, wire, sender_nic, written_at) = found;
        // Warmth gate: the sender's container must still be alive.
        if ctx.now().saturating_duration_since(written_at) > self.cfg.keep_alive {
            request_end(&self.trace, ctx, span, 0, true);
            return Err(ExchangeError::PeerGone { map, part });
        }
        // Stream through both NICs on the fluid-flow network.
        transfer(&self.trace, ctx, "direct", env, sender_nic, wire, span).await;
        request_end(&self.trace, ctx, span, wire, false);
        Ok(data)
    }

    fn lookup(&self, map: usize, part: usize) -> Option<(Bytes, u64, Option<LinkId>, SimTime)> {
        let state = self.state.lock();
        state
            .parts
            .get(&(map, part))
            .map(|p| (p.data.clone(), p.wire, p.sender_nic, p.written_at))
    }
}

impl DataExchange for DirectExchange {
    fn name(&self) -> &'static str {
        "direct"
    }

    fn prepare<'a>(
        &'a self,
        _ctx: &'a mut Ctx,
        _maps: usize,
        _parts: usize,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>> {
        let mut state = self.core.state.lock();
        state.parts.clear();
        state.buffered = 0;
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
            // Registration is one cheap rendezvous call: the data itself
            // stays in the sender's memory, so no bytes move here (and
            // there is nothing to window — `io_window` is moot). Every
            // partition is registered, empty ones included, so a reader
            // finds each cell of its column.
            let key = ("direct", map, parts_len);
            let span = request_begin(&self.core.trace, ctx, "REGISTER", "direct", &env.tag, key);
            ctx.sleep(self.core.cfg.handshake).await;
            let sender_nic = env.host_links.first().copied();
            let now = ctx.now();
            let mut written = 0u64;
            {
                let mut state = self.core.state.lock();
                for (j, data) in dense_parts(&run, &cuts, parts_len).into_iter().enumerate() {
                    written += data.len() as u64;
                    let wire = scaled_len(data.len(), self.core.cfg.size_scale);
                    // Idempotent overwrite for re-invoked mappers.
                    if let Some(old) = state.parts.remove(&(map, j)) {
                        state.buffered -= old.wire;
                    }
                    state.buffered += wire;
                    state.parts.insert(
                        (map, j),
                        DirectPart {
                            data,
                            wire,
                            sender_nic,
                            written_at: now,
                        },
                    );
                }
                if self.core.trace.is_enabled() {
                    self.core
                        .trace
                        .gauge("direct.buffered_bytes", now, state.buffered as f64);
                }
            }
            request_end(&self.core.trace, ctx, span, written, false);
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
            // One retried stream per sender, at most `io_window` in
            // flight; empty partitions stream too (the rendezvous still
            // has to confirm them).
            let jobs = (0..maps).map(|map| {
                let core = self.core.clone();
                let env = env.clone();
                async move |cctx: &mut Ctx| {
                    with_retry(cctx, env.retries, async |c: &mut Ctx| {
                        core.stream_part(c, &env, map, part).await
                    })
                    .await
                }
            });
            let name = format!("{}-get", env.tag);
            let runs = windowed(ctx, &self.core.trace, &name, env.io_window, maps, jobs)
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
        let mut state = self.core.state.lock();
        state.parts.clear();
        state.buffered = 0;
        if self.core.trace.is_enabled() {
            self.core
                .trace
                .gauge("direct.buffered_bytes", ctx.now(), 0.0);
        }
        Box::pin(async { Ok(()) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::write_parts;
    use faaspipe_des::Sim;
    use std::sync::Arc;

    #[test]
    fn roundtrips_partitions_without_moving_bytes_on_write() {
        let mut sim = Sim::new();
        let ex = Arc::new(DirectExchange::new(DirectConfig::default()));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 3);
            ex2.prepare(ctx, 2, 2).await.expect("prepare");
            let before = ctx.now();
            for m in 0..2usize {
                let parts = vec![
                    Bytes::from(format!("m{}p0", m)),
                    Bytes::from(format!("m{}p1", m)),
                ];
                assert_eq!(
                    write_parts(&*ex2, ctx, &env, m, parts)
                        .await
                        .expect("write"),
                    8
                );
            }
            // Writes cost only the handshake, not a transfer.
            let write_cost = ctx.now().saturating_duration_since(before);
            assert!(write_cost <= SimDuration::from_millis(2));
            for j in 0..2usize {
                let column = ex2.read_gather(ctx, &env, 2, j).await.expect("read");
                let want: Vec<Bytes> = (0..2)
                    .map(|m| Bytes::from(format!("m{}p{}", m, j)))
                    .collect();
                assert_eq!(column, want);
            }
            assert_eq!(
                ex2.core.state.lock().parts.len(),
                4,
                "all four partitions registered"
            );
            ex2.cleanup(ctx, &env).await.expect("cleanup");
            assert!(ex2.core.state.lock().parts.is_empty());
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn cold_sender_fails_loudly() {
        let mut sim = Sim::new();
        let cfg = DirectConfig {
            keep_alive: SimDuration::from_secs(5),
            ..DirectConfig::default()
        };
        let ex = Arc::new(DirectExchange::new(cfg));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 3);
            ex2.prepare(ctx, 1, 1).await.expect("prepare");
            write_parts(&*ex2, ctx, &env, 0, vec![Bytes::from("x")])
                .await
                .expect("write");
            ctx.sleep(SimDuration::from_secs(10)).await;
            let err = ex2.read_gather(ctx, &env, 1, 0).await.expect_err("evicted");
            assert_eq!(err, ExchangeError::PeerGone { map: 0, part: 0 });
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn missing_writer_times_out_after_rendezvous_window() {
        let mut sim = Sim::new();
        let cfg = DirectConfig {
            rendezvous_timeout: SimDuration::from_secs(1),
            ..DirectConfig::default()
        };
        let ex = Arc::new(DirectExchange::new(cfg));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 2);
            ex2.prepare(ctx, 1, 1).await.expect("prepare");
            let before = ctx.now();
            let err = ex2
                .read_gather(ctx, &env, 1, 0)
                .await
                .expect_err("nobody wrote");
            assert_eq!(err, ExchangeError::PeerTimeout { map: 0, part: 0 });
            // Two attempts, each waiting out the rendezvous window.
            let waited = ctx.now().saturating_duration_since(before);
            assert!(waited >= SimDuration::from_secs(2));
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn late_writer_is_caught_by_the_rendezvous_poll() {
        let mut sim = Sim::new();
        let ex = Arc::new(DirectExchange::new(DirectConfig::default()));
        let writer = Arc::clone(&ex);
        let reader = Arc::clone(&ex);
        sim.spawn("writer", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("w", 3);
            writer.prepare(ctx, 1, 1).await.expect("prepare");
            ctx.sleep(SimDuration::from_secs(2)).await;
            write_parts(&*writer, ctx, &env, 0, vec![Bytes::from("late")])
                .await
                .expect("write");
        });
        sim.spawn("reader", move |mut ctx| async move {
            let ctx = &mut ctx;
            // Starts before the writer has registered anything.
            ctx.sleep(SimDuration::from_millis(10)).await;
            let env = ExchangeEnv::driver("r", 3);
            let column = reader.read_gather(ctx, &env, 1, 0).await.expect("read");
            assert_eq!(column, vec![Bytes::from("late")]);
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn injected_peer_timeouts_are_retried() {
        let mut sim = Sim::new();
        let cfg = DirectConfig {
            failure: FailurePolicy::with_error_rate(0.4),
            ..DirectConfig::default()
        };
        let ex = Arc::new(DirectExchange::new(cfg));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 20);
            ex2.prepare(ctx, 4, 4).await.expect("prepare");
            for m in 0..4usize {
                let parts = (0..4).map(|_| Bytes::from(vec![1u8; 64])).collect();
                write_parts(&*ex2, ctx, &env, m, parts)
                    .await
                    .expect("write");
            }
            for j in 0..4usize {
                let column = ex2
                    .read_gather(ctx, &env, 4, j)
                    .await
                    .expect("reads survive 40% injected timeouts");
                assert_eq!(column.len(), 4);
            }
        });
        sim.run().expect("sim ok");
    }
}
