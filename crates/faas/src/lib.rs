//! # faaspipe-faas — simulated cloud-functions platform
//!
//! Models an IBM Cloud Functions / AWS Lambda-style FaaS platform on top of
//! the [`faaspipe-des`](faaspipe_des) kernel:
//!
//! * **cold vs warm starts** — a per-function container pool with a
//!   keep-alive window;
//! * **memory-proportional CPU** — a 2 GB function gets ~1 vCPU, a 1 GB
//!   function half of one (matching IBM CF's allotment);
//! * **per-container networking** — each container owns a NIC link that
//!   its object-store connections traverse;
//! * **platform concurrency limits** — invocations queue FIFO once the
//!   account-wide limit is reached;
//! * **billing records** — one span per invocation (billed execution time
//!   and memory), consumed by the cost model in `faaspipe-core`.
//!
//! Function *bodies are real Rust async closures*: they move real bytes
//! through the simulated store and charge virtual CPU time via
//! [`FunctionEnv::compute`]. [`FunctionPlatform::invoke`] spawns the
//! invocation as a simulation process and returns its id to join;
//! [`FunctionPlatform::invoke_all`] runs a stage the way Lithops' `map()`
//! does: one invocation per body, crashed ones re-invoked, the outputs
//! returned in body order.
//!
//! ## Example
//!
//! ```
//! use faaspipe_des::{Ctx, Sim, SimDuration};
//! use faaspipe_faas::{FaasConfig, FunctionEnv, FunctionPlatform};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = Sim::new();
//! let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
//! let platform = faas.clone();
//! sim.spawn("driver", move |ctx| async move {
//!     let body = async |fctx: &mut Ctx, env: FunctionEnv| {
//!         env.compute(fctx, SimDuration::from_millis(100)).await;
//!     };
//!     let h = platform.invoke(&ctx, "hello", "stage0", body).await;
//!     ctx.join(h).await.unwrap();
//! });
//! sim.run()?;
//! assert_eq!(faas.records().len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod platform;

pub use config::FaasConfig;
pub use platform::{FunctionEnv, FunctionPlatform, InvocationRecord};
