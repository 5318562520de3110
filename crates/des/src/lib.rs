//! # faaspipe-des — deterministic discrete-event simulation kernel
//!
//! This crate is the timing substrate for the whole `faaspipe` workspace. It
//! provides a virtual clock, an event queue, *stackless simulation
//! processes* driven by a single-threaded event loop, FIFO semaphores,
//! token-bucket rate limiters (in virtual time), and a max-min fair
//! fluid-flow network for modelling shared bandwidth.
//!
//! ## Model
//!
//! A [`Sim`] owns a virtual clock that only advances when an event fires.
//! Simulated activities are **processes** ([`Sim::spawn`], [`Ctx::spawn`]):
//! each body is an `async` future polled by the scheduler on its own
//! thread. Every `Ctx` operation (`sleep`, `sem_acquire`, `transfer`,
//! `join`, `fan_out`, …) is a yield point: the future suspends, the
//! scheduler services the request, and the continuation is re-polled when
//! the virtual-time condition is met. A suspended process is one
//! heap-allocated state machine — 100k concurrent processes cost 100k
//! small allocations, not 100k OS threads. CPU-heavy host kernels
//! (sort/merge/encode) run inline after the [`Ctx::compute`] charge that
//! stands for them, so a simulation never leaves the thread that called
//! [`Sim::run`] and process bodies need not be `Send`.
//!
//! The scheduler resumes one process at a time, and virtual time, pid
//! assignment and per-process RNG streams depend only on the event
//! schedule, so simulations are deterministic regardless of host
//! scheduling.
//!
//! ## Example
//!
//! ```
//! use faaspipe_des::{Sim, SimDuration};
//!
//! # fn main() -> Result<(), faaspipe_des::SimError> {
//! let mut sim = Sim::new();
//! sim.spawn("hello", |ctx| async move {
//!     ctx.sleep(SimDuration::from_secs(3)).await;
//!     assert_eq!(ctx.now().as_secs_f64(), 3.0);
//! });
//! let report = sim.run()?;
//! assert_eq!(report.end_time.as_secs_f64(), 3.0);
//! # Ok(())
//! # }
//! ```

pub mod events;
pub mod flow;
pub mod inline;
pub mod process;
pub mod resources;
pub mod sim;
pub mod units;

pub use flow::{FlowLinks, FlowSpec, LinkId};
pub use inline::InlineList;
pub use process::{
    catch_unwind_future, panic_message, CatchUnwind, Ctx, JoinError, LocalBoxFuture, OwnedLink,
    ProcessId,
};
pub use resources::{LimiterId, SemId};
pub use sim::{Sim, SimError, SimReport};
pub use units::{Bandwidth, ByteSize, Money, SimDuration, SimTime};
