//! VM provisioning, execution helpers, and billing records.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use faaspipe_des::{Ctx, LinkId, SimDuration, SimTime};
use faaspipe_trace::{Category, SpanId, TraceSink};

use crate::profile::VmProfile;

/// Billing span of one VM.
#[derive(Debug, Clone, PartialEq)]
pub struct VmRecord {
    /// Instance id within the fleet.
    pub id: u64,
    /// Profile provisioned.
    pub profile: VmProfile,
    /// Attribution scope of the provisioning handle (a tenant name in a
    /// cluster run); `""` for the unscoped fleet.
    pub scope: String,
    /// When provisioning was requested (billing starts here).
    pub requested: SimTime,
    /// When the instance became usable.
    pub ready: SimTime,
    /// When the instance was released; `None` while still running.
    pub released: Option<SimTime>,
}

impl VmRecord {
    /// Billed wall-clock (request → release). Unreleased VMs bill to
    /// `upto`.
    pub fn billed_duration(&self, upto: SimTime) -> SimDuration {
        self.released
            .unwrap_or(upto)
            .saturating_duration_since(self.requested)
    }
}

/// A provisioned, usable VM.
#[derive(Debug)]
pub struct VmInstance {
    /// Instance id within the fleet.
    pub id: u64,
    /// Profile of this instance.
    pub profile: VmProfile,
    /// The VM's single NIC link; pass it to
    /// `ObjectStore::connect_via` so store traffic contends for it.
    pub nic: LinkId,
    trace: TraceSink,
    span: SpanId,
}

impl VmInstance {
    /// Charges single-threaded compute time.
    pub async fn compute(&self, ctx: &Ctx, work: SimDuration) {
        let span = self.compute_span(ctx, 1);
        ctx.compute(work).await;
        self.trace.span_end(span, ctx.now());
    }

    /// Charges `work` of single-vCPU compute parallelised across
    /// `threads` threads, with the profile's parallel efficiency.
    pub async fn compute_parallel(&self, ctx: &Ctx, work: SimDuration, threads: u32) {
        let span = self.compute_span(ctx, threads);
        ctx.compute(work.mul_f64(1.0 / self.profile.speedup(threads)))
            .await;
        self.trace.span_end(span, ctx.now());
    }

    fn compute_span(&self, ctx: &Ctx, threads: u32) -> SpanId {
        if !self.trace.is_enabled() {
            return SpanId::NONE;
        }
        let span = self.trace.span_start(
            Category::Compute,
            "compute",
            "vm",
            &format!("vm-{}", self.id),
            self.span,
            ctx.now(),
        );
        self.trace.attr(span, "threads", threads);
        span
    }
}

/// A fleet of VMs: the provisioning front-end plus billing records.
///
/// Cheap to clone (`Arc` inside); see the [crate docs](crate) for an
/// example.
#[derive(Debug, Clone, Default)]
pub struct VmFleet {
    inner: Arc<FleetInner>,
    /// Attribution scope stamped on this handle's provisions.
    scope: String,
}

#[derive(Debug, Default)]
struct FleetInner {
    next_id: AtomicU64,
    records: Mutex<Vec<VmRecord>>,
    trace: Mutex<TraceSink>,
    /// Open [`Category::VmTask`] spans by instance id.
    open: Mutex<BTreeMap<u64, SpanId>>,
    active: AtomicU64,
}

impl VmFleet {
    /// Creates an empty fleet.
    pub fn new() -> VmFleet {
        VmFleet::default()
    }

    /// A handle onto the *same* fleet (shared ids, records, trace sink)
    /// whose provisions are attributed to `scope` — how a cluster bills
    /// one shared fleet's VMs to the tenants that asked for them.
    pub fn scoped(&self, scope: impl Into<String>) -> VmFleet {
        VmFleet {
            inner: Arc::clone(&self.inner),
            scope: scope.into(),
        }
    }

    /// This handle's attribution scope (`""` for the unscoped fleet).
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// Routes per-VM spans and the active-instance gauge to `sink`. The
    /// default sink is disabled.
    pub fn set_trace_sink(&self, sink: TraceSink) {
        *self.inner.trace.lock() = sink;
    }

    /// Provisions an instance, suspending the calling process for the
    /// profile's provisioning delay. Billing starts at the request.
    pub async fn provision(&self, ctx: &Ctx, profile: VmProfile) -> VmInstance {
        self.provision_inner(ctx, profile, true).await
    }

    /// Like [`VmFleet::provision`] — same delay, billing, and `VmTask`
    /// span — but records no [`Category::ColdStart`] leaf, so the boot
    /// does not claim the critical path. For capacity warmed in the
    /// background while other work runs: the caller attributes the
    /// *residual* wait it actually suffers at the point it suspends.
    pub async fn provision_prewarmed(&self, ctx: &Ctx, profile: VmProfile) -> VmInstance {
        self.provision_inner(ctx, profile, false).await
    }

    async fn provision_inner(
        &self,
        ctx: &Ctx,
        profile: VmProfile,
        on_critical_path: bool,
    ) -> VmInstance {
        let requested = ctx.now();
        let trace = self.inner.trace.lock().clone();
        let parent = trace.current(ctx.pid());
        ctx.sleep(profile.provisioning).await;
        let nic = ctx.link_create(profile.nic_bw).await;
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);
        let span = if trace.is_enabled() {
            let ready = ctx.now();
            let lane = format!("vm-{}", id);
            let task = trace.span_start(
                Category::VmTask,
                &profile.name,
                "vm",
                &lane,
                parent,
                requested,
            );
            trace.attr(task, "vcpus", profile.vcpus);
            if on_critical_path {
                // The provisioning delay is the VM's cold start on the
                // critical path.
                let boot = trace.span_start(
                    Category::ColdStart,
                    "vm-provision",
                    "vm",
                    &lane,
                    task,
                    requested,
                );
                trace.span_end(boot, ready);
            }
            self.inner.open.lock().insert(id, task);
            let active = self.inner.active.fetch_add(1, Ordering::SeqCst) + 1;
            trace.gauge("vm.active", ready, active as f64);
            task
        } else {
            SpanId::NONE
        };
        self.inner.records.lock().push(VmRecord {
            id,
            profile: profile.clone(),
            scope: self.scope.clone(),
            requested,
            ready: ctx.now(),
            released: None,
        });
        VmInstance {
            id,
            profile,
            nic,
            trace,
            span,
        }
    }

    /// Releases an instance, ending its billing span.
    ///
    /// # Panics
    /// Panics if the instance was already released (double release is a
    /// billing bug).
    pub fn release(&self, ctx: &Ctx, vm: VmInstance) {
        let mut records = self.inner.records.lock();
        let rec = records
            .iter_mut()
            .find(|r| r.id == vm.id)
            .expect("released VM must have a record");
        assert!(rec.released.is_none(), "VM {} released twice", vm.id);
        rec.released = Some(ctx.now());
        if let Some(task) = self.inner.open.lock().remove(&vm.id) {
            vm.trace.span_end(task, ctx.now());
            let active = self.inner.active.fetch_sub(1, Ordering::SeqCst) - 1;
            vm.trace.gauge("vm.active", ctx.now(), active as f64);
        }
    }

    /// Snapshot of all VM billing records.
    pub fn records(&self) -> Vec<VmRecord> {
        self.inner.records.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_des::Sim;

    #[test]
    fn provision_charges_boot_time_and_bills_from_request() {
        let mut sim = Sim::new();
        let fleet = VmFleet::new();
        let f = fleet.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            ctx.sleep(SimDuration::from_secs(10)).await;
            let vm = f.provision(ctx, VmProfile::bx2_8x32()).await;
            assert_eq!(ctx.now().as_secs_f64(), 10.0 + 44.0);
            ctx.sleep(SimDuration::from_secs(5)).await;
            f.release(ctx, vm);
        });
        sim.run().expect("run");
        let rec = &fleet.records()[0];
        assert_eq!(rec.requested.as_secs_f64(), 10.0);
        assert_eq!(rec.ready.as_secs_f64(), 54.0);
        assert_eq!(
            rec.billed_duration(SimTime::MAX),
            SimDuration::from_secs(49)
        );
    }

    #[test]
    fn unreleased_vm_bills_to_checkpoint() {
        let mut sim = Sim::new();
        let fleet = VmFleet::new();
        let f = fleet.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let _vm = f.provision(ctx, VmProfile::bx2_4x16()).await;
            ctx.sleep(SimDuration::from_secs(8)).await;
        });
        sim.run().expect("run");
        let rec = &fleet.records()[0];
        assert!(rec.released.is_none());
        let at = SimTime::ZERO + SimDuration::from_secs(60);
        assert_eq!(rec.billed_duration(at), SimDuration::from_secs(60));
    }

    #[test]
    fn compute_parallel_uses_profile_speedup() {
        let mut sim = Sim::new();
        let fleet = VmFleet::new();
        let f = fleet.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let vm = f.provision(ctx, VmProfile::bx2_8x32()).await;
            let before = ctx.now();
            vm.compute_parallel(ctx, SimDuration::from_secs(656), 8)
                .await;
            let took = ctx.now().saturating_duration_since(before).as_secs_f64();
            // 656 s / (8 * 0.82) = 100 s.
            assert!((took - 100.0).abs() < 1e-6);
            f.release(ctx, vm);
        });
        sim.run().expect("run");
    }

    #[test]
    fn traced_vm_records_task_and_provision_spans() {
        let mut sim = Sim::new();
        let fleet = VmFleet::new();
        let sink = TraceSink::recording();
        fleet.set_trace_sink(sink.clone());
        let f = fleet.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let vm = f.provision(ctx, VmProfile::bx2_8x32()).await;
            vm.compute(ctx, SimDuration::from_secs(3)).await;
            f.release(ctx, vm);
        });
        sim.run().expect("run");
        let data = sink.snapshot();
        let task = data
            .spans
            .iter()
            .find(|s| s.category == Category::VmTask)
            .expect("vm-task span");
        assert_eq!(task.lane, "vm-0");
        assert!(task.end.is_some());
        let boot = data
            .spans
            .iter()
            .find(|s| s.category == Category::ColdStart)
            .expect("provision span");
        assert_eq!(boot.parent, Some(task.id));
        assert_eq!(boot.duration().unwrap(), SimDuration::from_secs(44));
        assert!(data.spans.iter().any(|s| s.category == Category::Compute));
        assert_eq!(sink.counter_value("vm.active"), 0.0);
    }

    #[test]
    fn prewarmed_provision_bills_identically_without_a_cold_start_span() {
        let mut sim = Sim::new();
        let fleet = VmFleet::new();
        let sink = TraceSink::recording();
        fleet.set_trace_sink(sink.clone());
        let f = fleet.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let vm = f.provision_prewarmed(ctx, VmProfile::bx2_8x32()).await;
            assert_eq!(ctx.now().as_secs_f64(), 44.0, "same delay as provision");
            f.release(ctx, vm);
        });
        sim.run().expect("run");
        let rec = &fleet.records()[0];
        assert_eq!(rec.requested.as_secs_f64(), 0.0);
        assert_eq!(rec.ready.as_secs_f64(), 44.0, "billing is unchanged");
        let data = sink.snapshot();
        assert!(
            data.spans.iter().any(|s| s.category == Category::VmTask),
            "the task span is still recorded"
        );
        assert!(
            !data.spans.iter().any(|s| s.category == Category::ColdStart),
            "a background boot must not claim the critical path"
        );
    }

    #[test]
    fn scoped_handles_share_the_fleet_but_stamp_attribution() {
        let mut sim = Sim::new();
        let fleet = VmFleet::new();
        let t0 = fleet.scoped("t0");
        let t1 = fleet.scoped("t1");
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let a = t0.provision(ctx, VmProfile::bx2_4x16()).await;
            let b = t1.provision(ctx, VmProfile::bx2_4x16()).await;
            assert_ne!(a.id, b.id, "ids come from the shared fleet");
            t0.release(ctx, a);
            t1.release(ctx, b);
        });
        sim.run().expect("run");
        let recs = fleet.records();
        assert_eq!(recs.len(), 2, "one shared record book");
        assert_eq!(recs[0].scope, "t0");
        assert_eq!(recs[1].scope, "t1");
        assert_eq!(fleet.scope(), "");
    }

    #[test]
    fn fleet_ids_are_unique() {
        let mut sim = Sim::new();
        let fleet = VmFleet::new();
        let f = fleet.clone();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let a = f.provision(ctx, VmProfile::bx2_4x16()).await;
            let b = f.provision(ctx, VmProfile::bx2_4x16()).await;
            assert_ne!(a.id, b.id);
            f.release(ctx, a);
            f.release(ctx, b);
        });
        sim.run().expect("run");
        assert_eq!(fleet.records().len(), 2);
    }
}
