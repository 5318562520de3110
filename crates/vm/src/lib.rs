//! # faaspipe-vm — simulated virtual machine instances
//!
//! Models IBM Virtual Server-style VMs for the paper's *hybrid* pipeline:
//! Lithops provisions a large VM, runs the shuffle-heavy stage inside it,
//! and tears it down. The model captures exactly what the hybrid pipeline
//! pays for:
//!
//! * **provisioning delay** — tens of seconds before the instance can run
//!   anything (the dominant latency cost in the paper's Table 1);
//! * **multi-core compute** — work parallelised across the profile's
//!   vCPUs with a configurable parallel efficiency;
//! * **a single NIC** — all object-store traffic of the VM shares one
//!   link (vs the aggregated NICs of many functions);
//! * **per-second billing** from provisioning request to release.
//!
//! ## Example
//!
//! ```
//! use faaspipe_des::{Sim, SimDuration};
//! use faaspipe_vm::{VmFleet, VmProfile};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = Sim::new();
//! let fleet = VmFleet::new();
//! let f = fleet.clone();
//! sim.spawn("driver", move |ctx| async move {
//!     let vm = f.provision(&ctx, VmProfile::bx2_8x32()).await;
//!     vm.compute_parallel(&ctx, SimDuration::from_secs(80), 8).await;
//!     f.release(&ctx, vm);
//! });
//! sim.run()?;
//! assert_eq!(fleet.records().len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod fleet;
pub mod profile;

pub use fleet::{VmFleet, VmInstance, VmRecord};
pub use profile::VmProfile;
