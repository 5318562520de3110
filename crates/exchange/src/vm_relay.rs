//! A Pocket-style in-memory relay hosted on a simulated VM.
//!
//! The per-VM mechanics — provisioning lifecycle, request overhead with
//! failure injection, memory capacity with disk spill — live in
//! [`RelayShard`] so that [`ShardedRelayExchange`](crate::ShardedRelayExchange)
//! can run N of them behind one exchange. [`VmRelayExchange`] is the
//! single-shard backend from the paper's comparison.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use faaspipe_des::{Bandwidth, ByteSize, Ctx, LinkId, LocalBoxFuture, ProcessId, SimDuration};
use faaspipe_store::failure::Fate;
use faaspipe_store::FailurePolicy;
use faaspipe_trace::{Category, SpanId, TraceSink};
use faaspipe_vm::{VmFleet, VmInstance, VmProfile};
use parking_lot::Mutex;

use crate::api::{DataExchange, ExchangeEnv};
use crate::error::ExchangeError;
use crate::retry::with_retry;

/// Tuning of the [`VmRelayExchange`] (and, per shard, of the
/// [`ShardedRelayExchange`](crate::ShardedRelayExchange)).
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// VM shape the relay runs on (provisioning delay, NIC, billing).
    pub profile: VmProfile,
    /// Fixed overhead per relay request. An in-memory key/value server
    /// answers far faster than COS's first-byte latency — that is the
    /// relay's selling point.
    pub request_latency: SimDuration,
    /// In-memory capacity; objects past it spill to local disk.
    pub memory_capacity: ByteSize,
    /// Local-disk bandwidth paid on top of the network for spilled
    /// objects (once on write, once on every read).
    pub disk_bw: Bandwidth,
    /// Wire-size scale factor, mirroring
    /// [`StoreConfig::size_scale`](faaspipe_store::StoreConfig::size_scale)
    /// so modelled datasets load both paths equally.
    pub size_scale: f64,
    /// Probabilistic fault injection on relay requests. Failed requests
    /// are transient ([`ExchangeError::RelayUnavailable`]) and retried.
    pub failure: FailurePolicy,
    /// When set, the relay VM crashes irrecoverably after this many
    /// requests, losing its contents: subsequent requests fail with the
    /// non-retryable [`ExchangeError::RelayDown`].
    pub crash_after_requests: Option<u64>,
}

impl Default for RelayConfig {
    fn default() -> Self {
        RelayConfig {
            profile: VmProfile::bx2_8x32(),
            request_latency: SimDuration::from_millis(2),
            memory_capacity: ByteSize::gib(24),
            disk_bw: Bandwidth::mib_per_sec(350.0),
            size_scale: 1.0,
            failure: FailurePolicy::none(),
            crash_after_requests: None,
        }
    }
}

/// One object held by the relay.
#[derive(Debug)]
struct StoredPart {
    data: Bytes,
    /// Scaled wire size (what moved over the network).
    wire: u64,
    /// Whether the object lives on the relay's disk instead of memory.
    spilled: bool,
}

#[derive(Debug, Default)]
struct RelayState {
    vm: Option<VmInstance>,
    /// Provisioner process to [`Ctx::join`] while the VM boots. This is
    /// the double-provisioning guard: a second `prepare` caller that
    /// arrives during the 44 s boot finds the in-flight provisioner
    /// here and waits on it instead of provisioning (and billing) a
    /// second VM.
    provisioning: Option<ProcessId>,
    objects: BTreeMap<(usize, usize), StoredPart>,
    /// Scaled bytes currently held in memory.
    mem_used: u64,
    /// Total requests served (drives `crash_after_requests`).
    requests: u64,
    crashed: bool,
}

/// One relay VM plus its object table: the unit of sharding.
///
/// [`VmRelayExchange`] wraps a single shard; the sharded exchange routes
/// partitions across many. All virtual-time charging (provisioning,
/// request latency, NIC transfers, disk spill) happens here so the two
/// backends cannot drift apart.
///
/// The exchanges hold each shard in an `Arc`, and the windowed read/write
/// paths hand fan-out children that `Arc`, so a job costs a refcount, not
/// a copy of the shard's strings. A clone shares the VM/object table.
#[derive(Clone)]
pub(crate) struct RelayShard {
    fleet: VmFleet,
    cfg: Arc<RelayConfig>,
    trace: TraceSink,
    /// Key prefix / trace lane: `"relay"` or `"relay-03"`.
    label: String,
    /// Backend name reported in [`ExchangeError::NotPrepared`].
    backend: &'static str,
    /// `"{label}.mem_bytes"` / `"{label}.spilled_bytes"`, precomputed —
    /// the put path is hot.
    mem_gauge: String,
    spill_counter: String,
    /// Shared with the provisioner process, which stores the booted VM.
    state: Arc<Mutex<RelayState>>,
}

impl RelayShard {
    pub(crate) fn new(
        fleet: VmFleet,
        cfg: Arc<RelayConfig>,
        label: String,
        backend: &'static str,
    ) -> RelayShard {
        RelayShard {
            fleet,
            cfg,
            trace: TraceSink::default(),
            mem_gauge: format!("{}.mem_bytes", label),
            spill_counter: format!("{}.spilled_bytes", label),
            label,
            backend,
            state: Arc::new(Mutex::new(RelayState::default())),
        }
    }

    pub(crate) fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    #[cfg(test)]
    pub(crate) fn label(&self) -> &str {
        &self.label
    }

    fn scaled(&self, real_len: usize) -> u64 {
        (real_len as f64 * self.cfg.size_scale).round() as u64
    }

    /// Starts this shard's VM boot unless one is ready or already in
    /// flight. Returns the provisioner to [`Ctx::join`] on, or `None`
    /// when the VM is already usable. With `background` the boot goes
    /// through [`VmFleet::provision_prewarmed`] so an overlapped boot
    /// does not claim the critical path — the residual wait is
    /// attributed where a request actually blocks
    /// ([`RelayShard::await_ready`]).
    pub(crate) async fn begin_provision(&self, ctx: &Ctx, background: bool) -> Option<ProcessId> {
        {
            let state = self.state.lock();
            if state.vm.is_some() {
                return None;
            }
            if let Some(pid) = state.provisioning {
                return Some(pid);
            }
        }
        // Between the check above and the bookkeeping below nothing
        // yields to the scheduler except the spawn rendezvous itself
        // (`spawn` replies without advancing virtual time or
        // running the child), so a second process cannot slip in and
        // start a duplicate boot.
        let fleet = self.fleet.clone();
        let profile = self.cfg.profile.clone();
        let shared = Arc::clone(&self.state);
        let trace = self.trace.clone();
        let parent = trace.current(ctx.pid());
        let pid = ctx
            .spawn(format!("{}/provision", self.label), move |pctx: Ctx| {
                async move {
                    // Parent the fleet's spans to whoever kicked the boot off.
                    trace.enter(pctx.pid(), parent);
                    let vm = if background {
                        fleet.provision_prewarmed(&pctx, profile).await
                    } else {
                        fleet.provision(&pctx, profile).await
                    };
                    trace.exit(pctx.pid());
                    let mut state = shared.lock();
                    state.vm = Some(vm);
                    state.provisioning = None;
                }
            })
            .await;
        self.state.lock().provisioning = Some(pid);
        Some(pid)
    }

    /// Blocks until the shard's VM is usable when a boot is in flight,
    /// charging the wait to the critical path as a cold start (this is
    /// the part of a pre-warmed boot that foreground work could *not*
    /// hide).
    pub(crate) async fn await_ready(&self, ctx: &Ctx) {
        let pending = { self.state.lock().provisioning };
        let Some(pid) = pending else { return };
        let span = if self.trace.is_enabled() {
            let parent = self.trace.current(ctx.pid());
            self.trace.span_start(
                Category::ColdStart,
                "relay-wait",
                "relay",
                &self.label,
                parent,
                ctx.now(),
            )
        } else {
            SpanId::NONE
        };
        let _ = ctx.join(pid).await;
        self.trace.span_end(span, ctx.now());
    }

    /// Charges the fixed request overhead and bumps the request counter.
    /// Returns the relay's NIC. A request against a dead or absent relay
    /// still pays the round-trip latency before the failure is observed
    /// — retry storms against a crashed relay are not free.
    async fn request_overhead(
        &self,
        ctx: &mut Ctx,
        op: &'static str,
    ) -> Result<LinkId, ExchangeError> {
        self.await_ready(ctx).await;
        let outcome = {
            let mut state = self.state.lock();
            if state.crashed {
                Err(ExchangeError::RelayDown { op })
            } else if let Some(nic) = state.vm.as_ref().map(|vm| vm.nic) {
                state.requests += 1;
                match self.cfg.crash_after_requests {
                    Some(limit) if state.requests > limit => {
                        // The relay process dies and its memory is gone.
                        state.crashed = true;
                        state.objects.clear();
                        state.mem_used = 0;
                        Err(ExchangeError::RelayDown { op })
                    }
                    _ => Ok(nic),
                }
            } else {
                Err(ExchangeError::NotPrepared {
                    backend: self.backend,
                })
            }
        };
        let nic = match outcome {
            Ok(nic) => nic,
            Err(e) => {
                // The caller learns of the failure only after the wire
                // round-trip (a dead relay looks like a timeout).
                ctx.sleep(self.cfg.request_latency).await;
                return Err(e);
            }
        };
        let fate = self.cfg.failure.draw(ctx.rng());
        let latency = match fate {
            Fate::Slow(factor) => self.cfg.request_latency.mul_f64(factor),
            _ => self.cfg.request_latency,
        };
        ctx.sleep(latency).await;
        if matches!(fate, Fate::Fail) {
            return Err(ExchangeError::RelayUnavailable { op });
        }
        Ok(nic)
    }

    fn span_begin(
        &self,
        ctx: &Ctx,
        op: &'static str,
        tag: &str,
        key: Option<(usize, usize)>,
    ) -> SpanId {
        if !self.trace.is_enabled() {
            return SpanId::NONE;
        }
        let parent = self.trace.current(ctx.pid());
        let span =
            self.trace
                .span_start(Category::StoreRequest, op, "relay", tag, parent, ctx.now());
        if let Some((map, part)) = key {
            self.trace.attr(
                span,
                "key",
                format!("{}/{:05}/{:05}", self.label, map, part),
            );
        }
        span
    }

    fn span_end(&self, ctx: &Ctx, span: SpanId, bytes: u64, failed: bool) {
        if span.is_none() {
            return;
        }
        if bytes > 0 {
            self.trace.attr(span, "bytes", bytes);
        }
        if failed {
            self.trace.attr(span, "failed", true);
        }
        self.trace.span_end(span, ctx.now());
    }

    /// Moves `wire` scaled bytes between the caller and the relay,
    /// recording a flow span.
    async fn transfer(&self, ctx: &Ctx, env: &ExchangeEnv, nic: LinkId, wire: u64, parent: SpanId) {
        let mut links = env.host_links.clone();
        links.push(nic);
        let flow = if self.trace.is_enabled() {
            let flow =
                self.trace
                    .span_start(Category::Flow, "xfer", "relay", &env.tag, parent, ctx.now());
            self.trace.attr(flow, "wire_bytes", wire);
            flow
        } else {
            SpanId::NONE
        };
        ctx.transfer(ByteSize::new(wire), &links).await;
        if !flow.is_none() {
            self.trace.span_end(flow, ctx.now());
        }
    }

    pub(crate) async fn put_part(
        &self,
        ctx: &mut Ctx,
        env: &ExchangeEnv,
        map: usize,
        part: usize,
        data: &Bytes,
    ) -> Result<(), ExchangeError> {
        let span = self.span_begin(ctx, "PUT", &env.tag, Some((map, part)));
        let nic = match self.request_overhead(ctx, "PUT").await {
            Ok(nic) => nic,
            Err(e) => {
                self.span_end(ctx, span, 0, true);
                return Err(e);
            }
        };
        let wire = self.scaled(data.len());
        self.transfer(ctx, env, nic, wire, span).await;
        let spilled = {
            let mut state = self.state.lock();
            // Idempotent overwrite: drop the old copy's accounting first.
            if let Some(old) = state.objects.remove(&(map, part)) {
                if !old.spilled {
                    state.mem_used -= old.wire;
                }
            }
            let spilled = state.mem_used + wire > self.cfg.memory_capacity.as_u64();
            if !spilled {
                state.mem_used += wire;
            }
            state.objects.insert(
                (map, part),
                StoredPart {
                    data: data.clone(),
                    wire,
                    spilled,
                },
            );
            if self.trace.is_enabled() {
                self.trace
                    .gauge(&self.mem_gauge, ctx.now(), state.mem_used as f64);
                if spilled {
                    self.trace.add(&self.spill_counter, ctx.now(), wire as f64);
                    // Marks the request for the calibrator: its span
                    // duration includes a disk pass on top of the wire.
                    self.trace.attr(span, "spilled", true);
                }
            }
            spilled
        };
        if spilled {
            ctx.sleep(self.cfg.disk_bw.transfer_time(ByteSize::new(wire)))
                .await;
        }
        self.span_end(ctx, span, wire, false);
        Ok(())
    }

    pub(crate) async fn get_part(
        &self,
        ctx: &mut Ctx,
        env: &ExchangeEnv,
        map: usize,
        part: usize,
    ) -> Result<Bytes, ExchangeError> {
        let span = self.span_begin(ctx, "GET", &env.tag, Some((map, part)));
        let nic = match self.request_overhead(ctx, "GET").await {
            Ok(nic) => nic,
            Err(e) => {
                self.span_end(ctx, span, 0, true);
                return Err(e);
            }
        };
        let (data, wire, spilled) = {
            let state = self.state.lock();
            match state.objects.get(&(map, part)) {
                Some(p) => (p.data.clone(), p.wire, p.spilled),
                None => {
                    drop(state);
                    self.span_end(ctx, span, 0, true);
                    return Err(ExchangeError::MissingPartition { map, part });
                }
            }
        };
        if spilled {
            self.trace.attr(span, "spilled", true);
            ctx.sleep(self.cfg.disk_bw.transfer_time(ByteSize::new(wire)))
                .await;
        }
        self.transfer(ctx, env, nic, wire, span).await;
        self.span_end(ctx, span, wire, false);
        Ok(data)
    }

    /// Lists this shard's objects as one metered relay request: it
    /// requires a live VM, bumps the request counter (so it can trip
    /// `crash_after_requests`), and is subject to failure injection —
    /// exactly like PUT/GET.
    pub(crate) async fn list_keys(
        &self,
        ctx: &mut Ctx,
        env: &ExchangeEnv,
    ) -> Result<Vec<String>, ExchangeError> {
        let span = self.span_begin(ctx, "LIST", &env.tag, None);
        if let Err(e) = self.request_overhead(ctx, "LIST").await {
            self.span_end(ctx, span, 0, true);
            return Err(e);
        }
        let keys: Vec<String> = self
            .state
            .lock()
            .objects
            .keys()
            .map(|(m, j)| format!("{}/{:05}/{:05}", self.label, m, j))
            .collect();
        self.span_end(ctx, span, 0, false);
        Ok(keys)
    }

    /// Waits out any in-flight boot (releasing mid-boot would leak the
    /// billing record), clears the object table, and releases the VM.
    pub(crate) async fn shutdown(&self, ctx: &Ctx) {
        self.await_ready(ctx).await;
        let vm = {
            let mut state = self.state.lock();
            state.objects.clear();
            state.mem_used = 0;
            state.provisioning = None;
            state.vm.take()
        };
        if let Some(vm) = vm {
            // Billing stops here; unreleased (crashed mid-run) relays
            // keep billing to the end checkpoint, like real forgotten
            // VMs.
            self.fleet.release(ctx, vm);
        }
        if self.trace.is_enabled() {
            self.trace.gauge(&self.mem_gauge, ctx.now(), 0.0);
        }
    }

    pub(crate) fn debug_entry(&self, f: &mut std::fmt::DebugStruct<'_, '_>) {
        let state = self.state.lock();
        f.field("label", &self.label)
            .field("objects", &state.objects.len())
            .field("mem_used", &state.mem_used)
            .field("crashed", &state.crashed);
    }

    #[cfg(test)]
    pub(crate) fn mem_used(&self) -> u64 {
        self.state.lock().mem_used
    }

    #[cfg(test)]
    pub(crate) fn object_count(&self) -> usize {
        self.state.lock().objects.len()
    }

    #[cfg(test)]
    pub(crate) fn is_spilled(&self, map: usize, part: usize) -> Option<bool> {
        self.state
            .lock()
            .objects
            .get(&(map, part))
            .map(|p| p.spilled)
    }
}

/// Exchange through an in-memory relay server on a provisioned VM — the
/// Pocket/ephemeral-storage point in the design space.
///
/// [`prepare`](DataExchange::prepare) provisions the VM through the
/// [`VmFleet`] (charging the profile's provisioning delay and starting
/// its billing clock); concurrent `prepare` callers share the one boot.
/// [`cleanup`](DataExchange::cleanup) releases it. Every request pays a
/// small fixed latency plus a fluid-flow transfer that contends for the
/// caller's NIC **and** the relay VM's NIC — at high fan-in, the single
/// relay NIC is the bottleneck the paper's VM-driven exchange runs into
/// (see [`ShardedRelayExchange`](crate::ShardedRelayExchange) for the
/// scale-out counterfactual). Objects beyond `memory_capacity` spill to
/// the VM's disk and pay `disk_bw` on both sides.
pub struct VmRelayExchange {
    shard: Arc<RelayShard>,
}

impl std::fmt::Debug for VmRelayExchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("VmRelayExchange");
        d.field("cfg", &self.shard.cfg);
        self.shard.debug_entry(&mut d);
        d.finish()
    }
}

impl VmRelayExchange {
    /// Creates a relay backend provisioning through `fleet`.
    pub fn new(fleet: VmFleet, cfg: RelayConfig) -> VmRelayExchange {
        VmRelayExchange {
            shard: Arc::new(RelayShard::new(
                fleet,
                Arc::new(cfg),
                "relay".to_string(),
                "vm-relay",
            )),
        }
    }

    /// Routes the relay's request spans and gauges to `sink`.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        Arc::make_mut(&mut self.shard).set_trace(sink);
        self
    }
}

/// Windowed relay PUTs: runs one retried [`RelayShard::put_part`] per
/// item in child processes, at most `env.io_window` in flight. Items
/// carry their target shard so the sharded backend can mix shards in
/// one batch. Request spans parent to the caller's current span.
pub(crate) async fn relay_puts_windowed(
    ctx: &mut Ctx,
    env: &ExchangeEnv,
    items: Vec<(Arc<RelayShard>, usize, usize, Bytes)>,
) -> Result<(), ExchangeError> {
    let Some((first, ..)) = items.first() else {
        return Ok(());
    };
    let trace = first.trace.clone();
    let parent = trace.current(ctx.pid());
    let name = format!("{}-put", env.tag);
    let jobs: Vec<_> = items
        .into_iter()
        .map(|(shard, map, part, data)| {
            let env = env.clone();
            let trace = trace.clone();
            async move |cctx: &mut Ctx| {
                trace.enter(cctx.pid(), parent);
                let res: Result<(), ExchangeError> =
                    with_retry(cctx, env.retries, async |c: &mut Ctx| {
                        shard.put_part(c, &env, map, part, &data).await
                    })
                    .await;
                trace.exit(cctx.pid());
                res
            }
        })
        .collect();
    ctx.fan_out(&name, env.io_window, jobs)
        .await
        .unwrap_or_else(|e| panic!("windowed relay write crashed: {}", e))
        .into_iter()
        .collect::<Result<Vec<()>, ExchangeError>>()?;
    Ok(())
}

/// Windowed relay GETs: one retried [`RelayShard::get_part`] per item,
/// at most `env.io_window` in flight; payloads return in item order.
pub(crate) async fn relay_gets_windowed(
    ctx: &mut Ctx,
    env: &ExchangeEnv,
    items: Vec<(Arc<RelayShard>, usize, usize)>,
) -> Result<Vec<Bytes>, ExchangeError> {
    let Some((first, ..)) = items.first() else {
        return Ok(Vec::new());
    };
    let trace = first.trace.clone();
    let parent = trace.current(ctx.pid());
    let name = format!("{}-get", env.tag);
    let jobs: Vec<_> = items
        .into_iter()
        .map(|(shard, map, part)| {
            let env = env.clone();
            let trace = trace.clone();
            async move |cctx: &mut Ctx| {
                trace.enter(cctx.pid(), parent);
                let res: Result<Bytes, ExchangeError> =
                    with_retry(cctx, env.retries, async |c: &mut Ctx| {
                        shard.get_part(c, &env, map, part).await
                    })
                    .await;
                trace.exit(cctx.pid());
                res
            }
        })
        .collect();
    ctx.fan_out(&name, env.io_window, jobs)
        .await
        .unwrap_or_else(|e| panic!("windowed relay read crashed: {}", e))
        .into_iter()
        .collect()
}

impl DataExchange for VmRelayExchange {
    fn name(&self) -> &'static str {
        "vm-relay"
    }

    fn prepare<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        _maps: usize,
        _parts: usize,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>> {
        Box::pin(async move {
            // Provisioning charges the profile's delay and opens the VM's
            // billing + trace spans through the fleet. The boot runs in a
            // provisioner process so that every concurrent caller — not
            // just the first — waits on the *same* VM instead of racing to
            // provision its own.
            if let Some(pid) = self.shard.begin_provision(ctx, false).await {
                let _ = ctx.join(pid).await;
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
                let items = parts
                    .into_iter()
                    .enumerate()
                    .map(|(j, data)| (Arc::clone(&self.shard), map, j, data))
                    .collect();
                relay_puts_windowed(ctx, env, items).await?;
                return Ok(written);
            }
            for (j, data) in parts.into_iter().enumerate() {
                with_retry(ctx, env.retries, async |c: &mut Ctx| {
                    self.shard.put_part(c, env, map, j, &data).await
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
            with_retry(ctx, env.retries, async |c: &mut Ctx| {
                self.shard.get_part(c, env, map, part).await
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
                .map(|&(map, part)| (Arc::clone(&self.shard), map, part))
                .collect();
            relay_gets_windowed(ctx, env, items).await
        })
    }

    fn list<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
    ) -> LocalBoxFuture<'a, Result<Vec<String>, ExchangeError>> {
        Box::pin(async move { self.shard.list_keys(ctx, env).await })
    }

    fn cleanup<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        _env: &'a ExchangeEnv,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>> {
        Box::pin(async move {
            self.shard.shutdown(ctx).await;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_des::Sim;

    fn driver_env() -> ExchangeEnv {
        ExchangeEnv::driver("test", 3)
    }

    #[test]
    fn roundtrips_partitions_and_bills_the_vm() {
        let mut sim = Sim::new();
        let fleet = VmFleet::new();
        let ex = Arc::new(VmRelayExchange::new(fleet.clone(), RelayConfig::default()));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = driver_env();
            ex2.prepare(ctx, 2, 2).await.expect("prepare");
            assert_eq!(ctx.now().as_secs_f64(), 44.0, "provisioning charged");
            for m in 0..2usize {
                let parts = vec![Bytes::from(vec![m as u8; 100]), Bytes::from(vec![0u8; 50])];
                let written = ex2
                    .write_partitions(ctx, &env, m, parts)
                    .await
                    .expect("write");
                assert_eq!(written, 150);
            }
            assert_eq!(
                ex2.list(ctx, &env).await.expect("list"),
                vec![
                    "relay/00000/00000",
                    "relay/00000/00001",
                    "relay/00001/00000",
                    "relay/00001/00001"
                ]
            );
            let data = ex2.read_partition(ctx, &env, 1, 0).await.expect("read");
            assert_eq!(data, Bytes::from(vec![1u8; 100]));
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
        let ex = Arc::new(VmRelayExchange::new(fleet.clone(), RelayConfig::default()));
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

    /// Regression (lifecycle bug 2): `list` used to answer before
    /// `prepare` (returning `Ok(vec![])` instead of `NotPrepared`) and
    /// bypassed the request counter, so it could never trip
    /// `crash_after_requests`. It must be metered like PUT/GET.
    #[test]
    fn list_requires_prepare_and_counts_toward_crash() {
        let mut sim = Sim::new();
        let cfg = RelayConfig {
            crash_after_requests: Some(2),
            ..RelayConfig::default()
        };
        let ex = Arc::new(VmRelayExchange::new(VmFleet::new(), cfg));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = driver_env();
            let err = ex2.list(ctx, &env).await.expect_err("list before prepare");
            assert_eq!(
                err,
                ExchangeError::NotPrepared {
                    backend: "vm-relay"
                }
            );
            ex2.prepare(ctx, 1, 1).await.expect("prepare");
            ex2.write_partitions(ctx, &env, 0, vec![Bytes::from("x")])
                .await
                .expect("request 1");
            assert_eq!(ex2.list(ctx, &env).await.expect("request 2").len(), 1);
            let err = ex2
                .list(ctx, &env)
                .await
                .expect_err("request 3 trips the crash");
            assert_eq!(err, ExchangeError::RelayDown { op: "LIST" });
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
        let ex = Arc::new(VmRelayExchange::new(VmFleet::new(), cfg));
        let unprepared = Arc::new(VmRelayExchange::new(VmFleet::new(), RelayConfig::default()));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 1);
            ex2.prepare(ctx, 1, 1).await.expect("prepare");
            let before = ctx.now();
            let err = ex2
                .read_partition(ctx, &env, 0, 0)
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
                .read_partition(ctx, &env, 0, 0)
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
            unprepared
                .write_partitions(ctx, &env, 0, vec![Bytes::from("x")])
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
            let ex = Arc::new(VmRelayExchange::new(VmFleet::new(), cfg));
            let out: Arc<Mutex<f64>> = Arc::new(Mutex::new(0.0));
            let out2 = Arc::clone(&out);
            let ex2 = Arc::clone(&ex);
            sim.spawn("driver", move |mut ctx| async move {
                let ctx = &mut ctx;
                let env = driver_env();
                ex2.prepare(ctx, 1, 1).await.expect("prepare");
                let blob = Bytes::from(vec![7u8; 8 * 1024 * 1024]);
                ex2.write_partitions(ctx, &env, 0, vec![blob])
                    .await
                    .expect("write");
                let before = ctx.now();
                ex2.read_partition(ctx, &env, 0, 0).await.expect("read");
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
        let ex = Arc::new(VmRelayExchange::new(VmFleet::new(), cfg));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = driver_env();
            ex2.prepare(ctx, 1, 2).await.expect("prepare");
            let put = async |ctx: &mut Ctx, part: usize, len: usize| {
                let env = driver_env();
                let data = Bytes::from(vec![9u8; len]);
                ex2.shard
                    .put_part(ctx, &env, 0, part, &data)
                    .await
                    .expect("put");
            };
            let _ = env;
            put(ctx, 0, 100).await; // fills memory exactly
            assert_eq!(ex2.shard.mem_used(), 100);
            assert_eq!(ex2.shard.is_spilled(0, 0), Some(false));
            put(ctx, 1, 80).await; // over capacity → disk
            assert_eq!(ex2.shard.mem_used(), 100, "spill leaves memory untouched");
            assert_eq!(ex2.shard.is_spilled(0, 1), Some(true));
            put(ctx, 1, 80).await; // overwrite of the spilled copy
            assert_eq!(ex2.shard.mem_used(), 100, "no double-free of spilled bytes");
            assert_eq!(ex2.shard.is_spilled(0, 1), Some(true));
            put(ctx, 0, 60).await; // resident overwrite shrinks the ledger
            assert_eq!(ex2.shard.mem_used(), 60);
            put(ctx, 1, 40).await; // now fits: the spilled key comes back resident
            assert_eq!(ex2.shard.mem_used(), 100);
            assert_eq!(ex2.shard.is_spilled(0, 1), Some(false));
            assert_eq!(ex2.shard.object_count(), 2);
        });
        sim.run().expect("sim ok");
    }

    /// The `relay.mem_bytes` gauge must never exceed the configured
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
        let ex = Arc::new(VmRelayExchange::new(VmFleet::new(), cfg).with_trace(sink.clone()));
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
                    ex2.write_partitions(ctx, &env, m, parts)
                        .await
                        .expect("write");
                }
            }
            ex2.cleanup(ctx, &env).await.expect("cleanup");
        });
        sim.run().expect("sim ok");
        let data = sink.snapshot();
        let series = data.counter("relay.mem_bytes").expect("gauge recorded");
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
        let ex = Arc::new(VmRelayExchange::new(VmFleet::new(), cfg));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 20);
            ex2.prepare(ctx, 4, 4).await.expect("prepare");
            for m in 0..4usize {
                let parts = (0..4).map(|_| Bytes::from(vec![1u8; 64])).collect();
                ex2.write_partitions(ctx, &env, m, parts)
                    .await
                    .expect("writes survive 30% faults");
            }
            for m in 0..4usize {
                for j in 0..4usize {
                    ex2.read_partition(ctx, &env, m, j)
                        .await
                        .expect("reads survive 30% faults");
                }
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
        let ex = Arc::new(VmRelayExchange::new(VmFleet::new(), cfg));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = ExchangeEnv::driver("test", 5);
            ex2.prepare(ctx, 1, 4).await.expect("prepare");
            let parts = (0..4).map(|_| Bytes::from(vec![1u8; 16])).collect();
            let err = ex2
                .write_partitions(ctx, &env, 0, parts)
                .await
                .expect_err("crash kills the exchange");
            assert_eq!(err, ExchangeError::RelayDown { op: "PUT" });
            // Retries cannot resurrect a dead relay.
            let err = ex2
                .read_partition(ctx, &env, 0, 0)
                .await
                .expect_err("still down");
            assert_eq!(err, ExchangeError::RelayDown { op: "GET" });
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn unprepared_relay_is_rejected() {
        let mut sim = Sim::new();
        let ex = Arc::new(VmRelayExchange::new(VmFleet::new(), RelayConfig::default()));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let env = driver_env();
            let err = ex2
                .write_partitions(ctx, &env, 0, vec![Bytes::from("x")])
                .await
                .expect_err("not prepared");
            assert_eq!(
                err,
                ExchangeError::NotPrepared {
                    backend: "vm-relay"
                }
            );
        });
        sim.run().expect("sim ok");
    }
}
