//! A Pocket-style in-memory relay hosted on a simulated VM.
//!
//! The per-VM mechanics — provisioning lifecycle, request overhead with
//! failure injection, memory capacity with disk spill — live in
//! [`RelayShard`], and [`ShardedRelayExchange`](crate::ShardedRelayExchange)
//! runs N of them behind one exchange. The paper's single relay VM
//! (`vm_relay`) is that exchange with one cold shard.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use faaspipe_des::{Bandwidth, ByteSize, Ctx, LinkId, ProcessId, SimDuration};
use faaspipe_store::failure::Fate;
use faaspipe_store::{scaled_len, FailurePolicy};
use faaspipe_trace::{Category, SpanId, TraceSink};
use faaspipe_vm::{VmFleet, VmInstance, VmProfile};
use parking_lot::Mutex;

use crate::api::ExchangeEnv;
use crate::error::ExchangeError;
use crate::span::{request_begin, request_end, transfer};

/// Per-shard tuning of the
/// [`ShardedRelayExchange`](crate::ShardedRelayExchange).
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
/// The sharded exchange routes partitions across one or more shards.
/// All virtual-time charging (provisioning, request latency, NIC
/// transfers, disk spill) happens here.
///
/// The exchange holds each shard in an `Arc`, and its request windows
/// hand each job that `Arc`, so a job costs a refcount, not a copy of
/// the shard's strings. A clone shares the VM/object table.
#[derive(Clone)]
pub(crate) struct RelayShard {
    fleet: VmFleet,
    cfg: Arc<RelayConfig>,
    pub(crate) trace: TraceSink,
    /// Key prefix / trace lane: `"relay-03"`.
    label: String,
    /// `"{label}.mem_bytes"` / `"{label}.spilled_bytes"`, precomputed —
    /// the put path is hot.
    mem_gauge: String,
    spill_counter: String,
    /// Shared with the provisioner process, which stores the booted VM.
    state: Arc<Mutex<RelayState>>,
}

impl RelayShard {
    pub(crate) fn new(fleet: VmFleet, cfg: Arc<RelayConfig>, label: String) -> RelayShard {
        RelayShard {
            fleet,
            cfg,
            trace: TraceSink::default(),
            mem_gauge: format!("{}.mem_bytes", label),
            spill_counter: format!("{}.spilled_bytes", label),
            label,
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
                    backend: "sharded-relay",
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
        ctx.sleep(self.cfg.request_latency).await;
        if matches!(fate, Fate::Fail) {
            return Err(ExchangeError::RelayUnavailable { op });
        }
        Ok(nic)
    }

    pub(crate) async fn put_part(
        &self,
        ctx: &mut Ctx,
        env: &ExchangeEnv,
        map: usize,
        part: usize,
        data: &Bytes,
    ) -> Result<(), ExchangeError> {
        let key = (self.label.as_str(), map, part);
        let span = request_begin(&self.trace, ctx, "PUT", "relay", &env.tag, key);
        let nic = match self.request_overhead(ctx, "PUT").await {
            Ok(nic) => nic,
            Err(e) => {
                request_end(&self.trace, ctx, span, 0, true);
                return Err(e);
            }
        };
        let wire = scaled_len(data.len(), self.cfg.size_scale);
        transfer(&self.trace, ctx, "relay", env, Some(nic), wire, span).await;
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
        request_end(&self.trace, ctx, span, wire, false);
        Ok(())
    }

    pub(crate) async fn get_part(
        &self,
        ctx: &mut Ctx,
        env: &ExchangeEnv,
        map: usize,
        part: usize,
    ) -> Result<Bytes, ExchangeError> {
        let key = (self.label.as_str(), map, part);
        let span = request_begin(&self.trace, ctx, "GET", "relay", &env.tag, key);
        let nic = match self.request_overhead(ctx, "GET").await {
            Ok(nic) => nic,
            Err(e) => {
                request_end(&self.trace, ctx, span, 0, true);
                return Err(e);
            }
        };
        let (data, wire, spilled) = {
            let state = self.state.lock();
            match state.objects.get(&(map, part)) {
                Some(p) => (p.data.clone(), p.wire, p.spilled),
                None => {
                    drop(state);
                    request_end(&self.trace, ctx, span, 0, true);
                    return Err(ExchangeError::MissingPartition { map, part });
                }
            }
        };
        if spilled {
            self.trace.attr(span, "spilled", true);
            ctx.sleep(self.cfg.disk_bw.transfer_time(ByteSize::new(wire)))
                .await;
        }
        transfer(&self.trace, ctx, "relay", env, Some(nic), wire, span).await;
        request_end(&self.trace, ctx, span, wire, false);
        Ok(data)
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
