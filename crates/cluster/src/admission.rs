//! Per-tenant admission control.
//!
//! Admission is what separates "the cluster is saturated" from "this
//! tenant saturates the cluster for everyone": a concurrency cap bounds
//! how many of a tenant's runs execute at once, and a per-tenant
//! store-ops budget (installed via
//! [`ObjectStore::set_scope_ops_limit`](faaspipe_store::ObjectStore::set_scope_ops_limit))
//! bounds how hard the tenant's running functions can hammer the shared
//! store. Arrivals are open-loop, so admission waits count toward the
//! tenant's own sojourn — throttling a noisy tenant hurts the noisy
//! tenant, not its victims.

use faaspipe_des::{Ctx, SemId, Sim};

/// Limits applied to one tenant's runs. The default is unlimited: every
/// arrival is admitted immediately.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdmissionPolicy {
    /// At most this many of the tenant's runs execute concurrently;
    /// excess arrivals queue (FIFO).
    pub max_concurrent_runs: Option<u64>,
    /// Token bucket `(ops_per_sec, burst)` on the tenant's object-store
    /// requests, carved out of the shared store's global budget.
    pub store_ops: Option<(f64, f64)>,
}

impl AdmissionPolicy {
    /// No limits (the default).
    pub fn unlimited() -> AdmissionPolicy {
        AdmissionPolicy::default()
    }

    /// Caps concurrent runs.
    pub fn with_max_concurrent(mut self, runs: u64) -> AdmissionPolicy {
        self.max_concurrent_runs = Some(runs);
        self
    }

    /// Rate-limits the tenant's store requests.
    pub fn with_store_ops(mut self, ops_per_sec: f64, burst: f64) -> AdmissionPolicy {
        self.store_ops = Some((ops_per_sec, burst));
        self
    }
}

/// The DES-side realization of one tenant's [`AdmissionPolicy`]: created
/// before the simulation starts, acquired by each run process on
/// arrival. (The store-ops budget is installed directly on the store,
/// not here — it throttles requests, not run starts.)
#[derive(Debug, Clone, Copy)]
pub struct TenantGate {
    sem: Option<SemId>,
}

impl TenantGate {
    /// Creates the semaphore backing `policy`'s concurrency cap.
    pub fn install(sim: &mut Sim, policy: &AdmissionPolicy) -> TenantGate {
        TenantGate {
            sem: policy.max_concurrent_runs.map(|n| sim.create_semaphore(n)),
        }
    }

    /// Blocks until the run may start: a concurrency slot.
    pub async fn admit(&self, ctx: &Ctx) {
        if let Some(sem) = self.sem {
            ctx.sem_acquire(sem, 1).await;
        }
    }

    /// Returns the concurrency slot when the run finishes.
    pub async fn release(&self, ctx: &Ctx) {
        if let Some(sem) = self.sem {
            ctx.sem_release(sem, 1).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_des::{SimDuration, SimTime};
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn concurrency_cap_serializes_runs() {
        let mut sim = Sim::new();
        let gate = TenantGate::install(
            &mut sim,
            &AdmissionPolicy::unlimited().with_max_concurrent(1),
        );
        let starts: Arc<Mutex<Vec<SimTime>>> = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..3 {
            let starts = Arc::clone(&starts);
            sim.spawn("run", move |mut ctx| async move {
                let ctx = &mut ctx;
                gate.admit(ctx).await;
                starts.lock().push(ctx.now());
                ctx.sleep(SimDuration::from_secs(10)).await;
                gate.release(ctx).await;
            });
        }
        sim.run().expect("sim ok");
        let starts = starts.lock();
        assert_eq!(
            *starts,
            vec![
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_secs(10),
                SimTime::ZERO + SimDuration::from_secs(20),
            ]
        );
    }

    #[test]
    fn unlimited_gate_is_a_no_op() {
        let mut sim = Sim::new();
        let gate = TenantGate::install(&mut sim, &AdmissionPolicy::unlimited());
        sim.spawn("run", move |mut ctx| async move {
            let ctx = &mut ctx;
            gate.admit(ctx).await;
            gate.release(ctx).await;
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        sim.run().expect("sim ok");
    }
}
