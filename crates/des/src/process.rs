//! Simulation processes and the [`Ctx`] handle they use to interact with
//! the simulation kernel.
//!
//! A process body is an `async` future polled by the scheduler on its own
//! thread. Every simulation operation (`sleep`, `sem_acquire`, `transfer`,
//! `spawn`, `join`, …) is a yield point: the future deposits its request
//! in the scheduler's op mailbox and returns `Poll::Pending`; the
//! scheduler services the request and re-polls when the virtual-time
//! condition is met. A suspended process is one heap-allocated state
//! machine, not a parked OS thread.
//!
//! A simulation runs on one OS thread and the scheduler resumes exactly
//! one process at a time, so host scheduling never influences simulation
//! outcomes — and one mailbox serves every process (see `Shared`).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context as PollContext, Poll};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::flow::{FlowSpec, LinkId};
use crate::resources::{LimiterId, SemId};
use crate::units::{Bandwidth, ByteSize, SimDuration, SimTime};

/// Identifies a process within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub(crate) u32);

impl ProcessId {
    /// The dense index of this process.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Error returned by [`Ctx::join`] when the joined process panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinError {
    /// Name of the process that failed.
    pub process: String,
    /// Rendered panic payload.
    pub message: String,
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "process '{}' panicked: {}", self.process, self.message)
    }
}

impl std::error::Error for JoinError {}

/// A boxed future pinned on the scheduler thread. Process futures are
/// created and polled only there, so they need not be `Send`.
pub type LocalBoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// Requests a process sends to the scheduler. Every request is acknowledged
/// before the process continues; "blocking" requests are acknowledged only
/// when the condition is met.
pub(crate) enum YieldMsg {
    Sleep(SimDuration),
    SemCreate(u64),
    SemAcquire(SemId, u64),
    SemRelease(SemId, u64),
    LimiterCreate {
        rate: f64,
        burst: f64,
    },
    LimiterAcquire(LimiterId, f64),
    LinkCreate(Bandwidth),
    Transfer(FlowSpec),
    Spawn {
        name: ProcName,
        future: LocalBoxFuture<'static, ()>,
    },
    Join(ProcessId),
}

/// Scheduler replies.
pub(crate) enum ResumeMsg {
    Go,
    Sem(SemId),
    Limiter(LimiterId),
    Link(LinkId),
    Pid(ProcessId),
    JoinResult(Result<(), JoinError>),
}

impl std::fmt::Debug for ResumeMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeMsg::Go => write!(f, "Go"),
            ResumeMsg::Sem(id) => write!(f, "Sem({:?})", id),
            ResumeMsg::Limiter(id) => write!(f, "Limiter({:?})", id),
            ResumeMsg::Link(id) => write!(f, "Link({:?})", id),
            ResumeMsg::Pid(pid) => write!(f, "Pid({:?})", pid),
            ResumeMsg::JoinResult(r) => write!(f, "JoinResult({:?})", r),
        }
    }
}

/// A process's name as its slot stores it. A fan-out worker shares its
/// fan-out's name and adds its index; `"{base}#{index}"` is only
/// rendered when a report (an error, a deadlock list) needs it.
pub(crate) enum ProcName {
    /// The name given at spawn.
    Given(String),
    /// Worker `index` of the fan-out named `base`.
    Worker(Rc<str>, u32),
}

impl std::fmt::Display for ProcName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcName::Given(name) => f.write_str(name),
            ProcName::Worker(base, index) => write!(f, "{}#{}", base, index),
        }
    }
}

/// Scheduler state every [`Ctx`] reads through one `Rc`: the virtual
/// clock, the op mailbox, the seed of the per-process random streams and
/// the pid the next spawned process gets.
///
/// The mailbox has one slot per direction for the whole simulation: the
/// polled process's pending operation goes in `request`, the scheduler's
/// answer comes back in `reply`. One mailbox serves every process
/// because only one process is polled at a time, the scheduler takes the
/// request out after every poll, and it places a reply only just before
/// the poll that consumes it. Single-threaded by construction (both
/// sides run on the scheduler thread), hence plain `Cell`s.
pub(crate) struct Shared {
    pub(crate) clock: Cell<u64>,
    pub(crate) request: Cell<Option<YieldMsg>>,
    pub(crate) reply: Cell<Option<ResumeMsg>>,
    pub(crate) seed: u64,
    /// The pid the scheduler assigns to the next process it creates.
    pub(crate) next_pid: Cell<u32>,
}

impl Shared {
    pub(crate) fn new(seed: u64) -> Shared {
        Shared {
            clock: Cell::new(0),
            request: Cell::new(None),
            reply: Cell::new(None),
            seed,
            next_pid: Cell::new(0),
        }
    }

    /// The context and boxed future of the next process to be created:
    /// `body` receives the context of pid `next_pid`, and the future it
    /// returns is boxed once, as is. Creating a future runs none of its
    /// code; that starts at its first poll.
    pub(crate) fn build_process<F, Fut>(self: &Rc<Self>, body: F) -> LocalBoxFuture<'static, ()>
    where
        F: FnOnce(Ctx) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let ctx = Ctx::new(ProcessId(self.next_pid.get()), Rc::clone(self));
        Box::pin(body(ctx))
    }
}

/// Leaf future for one simulation operation. First poll deposits the
/// request and suspends; the scheduler answers (now or at the wake
/// instant) and re-polls, completing the future.
struct OpFuture<'a> {
    shared: &'a Shared,
    msg: Option<YieldMsg>,
}

impl Future for OpFuture<'_> {
    type Output = ResumeMsg;

    fn poll(self: Pin<&mut Self>, _cx: &mut PollContext<'_>) -> Poll<ResumeMsg> {
        let this = self.get_mut();
        if let Some(msg) = this.msg.take() {
            let prev = this.shared.request.replace(Some(msg));
            debug_assert!(
                prev.is_none(),
                "a process submitted a simulation op while another is pending"
            );
            return Poll::Pending;
        }
        match this.shared.reply.take() {
            Some(reply) => Poll::Ready(reply),
            // Spurious poll before the scheduler answered; stay suspended.
            None => Poll::Pending,
        }
    }
}

/// Future adapter that converts a panic during `poll` into an `Err`,
/// allowing async process code to observe panics across `.await` points
/// (the async analogue of `std::panic::catch_unwind` around a closure).
pub struct CatchUnwind<F>(F);

impl<F: Future> Future for CatchUnwind<F> {
    type Output = std::thread::Result<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut PollContext<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pinning of the only field; it is never moved.
        let inner = unsafe { self.map_unchecked_mut(|s| &mut s.0) };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inner.poll(cx))) {
            Ok(Poll::Ready(v)) => Poll::Ready(Ok(v)),
            Ok(Poll::Pending) => Poll::Pending,
            Err(payload) => Poll::Ready(Err(payload)),
        }
    }
}

/// Wraps `fut` so a panic in its body resolves to `Err(payload)` instead
/// of unwinding through the caller.
pub fn catch_unwind_future<F: Future>(fut: F) -> CatchUnwind<F> {
    CatchUnwind(fut)
}

/// Handle through which a process body interacts with the simulation.
///
/// Every method that models the passage of time or contention is `async`
/// and **suspends in virtual time**: the calling process is parked until
/// the scheduler reaches the corresponding instant.
///
/// A `Ctx` is a process id, its random stream and one `Rc` to the
/// scheduler's shared state (clock, op mailbox, seed, next pid). It does
/// not carry the process's name: the scheduler keeps that, and renders
/// it only for reports ([`JoinError`], [`SimError`](crate::SimError)).
pub struct Ctx {
    pid: ProcessId,
    shared: Rc<Shared>,
    rng: SmallRng,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("pid", &self.pid)
            .field("now", &self.now())
            .finish()
    }
}

impl Ctx {
    pub(crate) fn new(pid: ProcessId, shared: Rc<Shared>) -> Self {
        let stream = shared.seed ^ (pid.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Ctx {
            pid,
            shared,
            rng: SmallRng::seed_from_u64(stream),
        }
    }

    /// This process's id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.shared.clock.get())
    }

    /// A deterministic per-process random stream (seeded from the sim seed
    /// and the process id).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// One simulation op: deposit `msg`, suspend, resume with the answer.
    fn call(&self, msg: YieldMsg) -> OpFuture<'_> {
        OpFuture {
            shared: &self.shared,
            msg: Some(msg),
        }
    }

    /// Advances this process's virtual time by `d`.
    pub async fn sleep(&self, d: SimDuration) {
        match self.call(YieldMsg::Sleep(d)).await {
            ResumeMsg::Go => {}
            other => unreachable!("unexpected resume for sleep: {:?}", other),
        }
    }

    /// Charges `d` of virtual CPU time. Identical to [`Ctx::sleep`]; the
    /// distinct name keeps call sites self-describing. The host kernel a
    /// charge stands for (a sort, a merge, an encode) runs after the
    /// `.await`, inline on the scheduler thread, so its host time never
    /// moves virtual time.
    pub async fn compute(&self, d: SimDuration) {
        self.sleep(d).await;
    }

    /// Creates a counting semaphore with `permits` initial permits.
    pub async fn sem_create(&self, permits: u64) -> SemId {
        match self.call(YieldMsg::SemCreate(permits)).await {
            ResumeMsg::Sem(id) => id,
            other => unreachable!("unexpected resume for sem_create: {:?}", other),
        }
    }

    /// Acquires `n` permits, suspending in virtual time until granted
    /// (FIFO).
    pub async fn sem_acquire(&self, id: SemId, n: u64) {
        match self.call(YieldMsg::SemAcquire(id, n)).await {
            ResumeMsg::Go => {}
            other => unreachable!("unexpected resume for sem_acquire: {:?}", other),
        }
    }

    /// Releases `n` permits.
    pub async fn sem_release(&self, id: SemId, n: u64) {
        match self.call(YieldMsg::SemRelease(id, n)).await {
            ResumeMsg::Go => {}
            other => unreachable!("unexpected resume for sem_release: {:?}", other),
        }
    }

    /// Creates a token-bucket rate limiter refilling at `rate` tokens/sec
    /// with capacity `burst`.
    pub async fn limiter_create(&self, rate: f64, burst: f64) -> LimiterId {
        match self.call(YieldMsg::LimiterCreate { rate, burst }).await {
            ResumeMsg::Limiter(id) => id,
            other => unreachable!("unexpected resume for limiter_create: {:?}", other),
        }
    }

    /// Takes `tokens` from the limiter, suspending in virtual time until
    /// they have accrued (FIFO).
    pub async fn limiter_acquire(&self, id: LimiterId, tokens: f64) {
        match self.call(YieldMsg::LimiterAcquire(id, tokens)).await {
            ResumeMsg::Go => {}
            other => unreachable!("unexpected resume for limiter_acquire: {:?}", other),
        }
    }

    /// Creates a bandwidth-constrained link in the fluid-flow network.
    pub async fn link_create(&self, capacity: Bandwidth) -> LinkId {
        match self.call(YieldMsg::LinkCreate(capacity)).await {
            ResumeMsg::Link(id) => id,
            other => unreachable!("unexpected resume for link_create: {:?}", other),
        }
    }

    /// Moves `bytes` across `links`, sharing each link's capacity max-min
    /// fairly with all concurrent transfers. Suspends in virtual time
    /// until the transfer completes.
    pub async fn transfer(&self, bytes: ByteSize, links: &[LinkId]) {
        match self
            .call(YieldMsg::Transfer(FlowSpec::new(bytes, links)))
            .await
        {
            ResumeMsg::Go => {}
            other => unreachable!("unexpected resume for transfer: {:?}", other),
        }
    }

    /// Spawns a child process that starts at the current virtual time.
    /// `f` receives the child's owned [`Ctx`] and returns its future,
    /// which is boxed once and first polled when the child first runs.
    pub async fn spawn<F, Fut>(&self, name: impl Into<String>, f: F) -> ProcessId
    where
        F: FnOnce(Ctx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        self.spawn_named(ProcName::Given(name.into()), f).await
    }

    async fn spawn_named<F, Fut>(&self, name: ProcName, f: F) -> ProcessId
    where
        F: FnOnce(Ctx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        // The child's pid is reserved by the scheduler: it services this
        // request before any other process can spawn.
        let future = self.shared.build_process(f);
        match self.call(YieldMsg::Spawn { name, future }).await {
            ResumeMsg::Pid(pid) => pid,
            other => unreachable!("unexpected resume for spawn: {:?}", other),
        }
    }

    /// Suspends in virtual time until `pid` finishes.
    ///
    /// # Errors
    /// Returns [`JoinError`] if the joined process panicked.
    pub async fn join(&self, pid: ProcessId) -> Result<(), JoinError> {
        match self.call(YieldMsg::Join(pid)).await {
            ResumeMsg::JoinResult(res) => res,
            other => unreachable!("unexpected resume for join: {:?}", other),
        }
    }

    /// Joins every process in `pids`, returning the first error if any
    /// panicked (all are still awaited).
    ///
    /// # Errors
    /// Returns the first [`JoinError`] if any joined process panicked.
    pub async fn join_all(&self, pids: &[ProcessId]) -> Result<(), JoinError> {
        let mut first_err = None;
        for &pid in pids {
            if let Err(e) = self.join(pid).await {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Runs `jobs` with at most `window` of them in flight, then returns
    /// their results in job order.
    ///
    /// Spawns `min(window, jobs.len())` worker processes that greedily
    /// pull jobs off a shared queue in job order: the moment a worker
    /// finishes one job it starts the next, so the virtual-time schedule
    /// is the same greedy one a semaphore-per-job design yields. Workers
    /// are spawned in job-queue order (deterministic pid assignment) and
    /// named `"{name}#{w}"`; they share one copy of `name`. A
    /// thousand-job fan-out costs zero OS threads.
    ///
    /// A window of `0` is treated as `1`.
    ///
    /// # Errors
    /// Returns the first [`JoinError`] if any job panicked. A panic
    /// kills the worker that ran the job — queued jobs that worker would
    /// have pulled later may never run — but sibling workers keep
    /// draining the queue and every worker is awaited, so the fan-out
    /// itself never deadlocks. A job whose result slot stayed empty
    /// (its worker died before running it) is also reported as a
    /// [`JoinError`], never as an internal panic.
    pub async fn fan_out<T, F>(
        &self,
        name: &str,
        window: usize,
        jobs: Vec<F>,
    ) -> Result<Vec<T>, JoinError>
    where
        T: 'static,
        F: AsyncFnOnce(&mut Ctx) -> T + 'static,
    {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        let workers = window.max(1).min(jobs.len());
        self.fan_out_driver(name, workers, jobs).await
    }

    /// Worker-pinned fan-out: runs `jobs` with the worker processes a
    /// `logical_total`-job fan-out would spawn (`min(window.max(1),
    /// logical_total)`), even when `jobs` is shorter — or empty. Results
    /// come back in job order, one entry per job.
    ///
    /// A caller that elides jobs which touch no simulated resource (an
    /// exchange gather skipping its empty partitions) keeps the pid
    /// assignment and virtual-time schedule of the full fan-out without
    /// materialising a `logical_total`-length job list; a
    /// `logical_total` of `0` runs nothing.
    ///
    /// # Errors
    /// Same contract as [`Ctx::fan_out`].
    pub async fn fan_out_pinned<T, F>(
        &self,
        name: &str,
        window: usize,
        logical_total: usize,
        jobs: Vec<F>,
    ) -> Result<Vec<T>, JoinError>
    where
        T: 'static,
        F: AsyncFnOnce(&mut Ctx) -> T + 'static,
    {
        if logical_total == 0 {
            return Ok(Vec::new());
        }
        let workers = window.max(1).min(logical_total);
        self.fan_out_driver(name, workers, jobs).await
    }

    /// Shared engine behind the fan-outs: `workers` queue-draining
    /// processes over `jobs`, each result landing in its job's slot.
    async fn fan_out_driver<T, F>(
        &self,
        name: &str,
        workers: usize,
        jobs: Vec<F>,
    ) -> Result<Vec<T>, JoinError>
    where
        T: 'static,
        F: AsyncFnOnce(&mut Ctx) -> T + 'static,
    {
        // Every worker runs on the scheduler thread and none holds a
        // borrow across an `.await`, so plain `RefCell`s suffice.
        let results: Rc<RefCell<Vec<Option<T>>>> =
            Rc::new(RefCell::new((0..jobs.len()).map(|_| None).collect()));
        let queue: Rc<RefCell<VecDeque<(usize, F)>>> =
            Rc::new(RefCell::new(jobs.into_iter().enumerate().collect()));
        let base: Rc<str> = Rc::from(name);
        let mut pids = Vec::with_capacity(workers);
        for w in 0..workers {
            let queue = Rc::clone(&queue);
            let slot = Rc::clone(&results);
            let worker = ProcName::Worker(Rc::clone(&base), w as u32);
            let pid = self
                .spawn_named(worker, move |mut cctx: Ctx| async move {
                    loop {
                        let next = queue.borrow_mut().pop_front();
                        let Some((i, job)) = next else { break };
                        let value = job(&mut cctx).await;
                        slot.borrow_mut()[i] = Some(value);
                    }
                })
                .await;
            pids.push(pid);
        }
        self.join_all(&pids).await?;
        let mut slots = results.borrow_mut();
        collect_fan_out(name, &mut slots)
    }
}

/// Collects fan-out results, turning any missing slot into a
/// [`JoinError`] (a worker died before running that job).
fn collect_fan_out<T>(name: &str, slots: &mut [Option<T>]) -> Result<Vec<T>, JoinError> {
    let mut out = Vec::with_capacity(slots.len());
    for (i, slot) in slots.iter_mut().enumerate() {
        match slot.take() {
            Some(v) => out.push(v),
            None => {
                return Err(JoinError {
                    process: name.to_string(),
                    message: format!(
                        "fan_out job {} never produced a result (its worker \
                         died before running it)",
                        i
                    ),
                })
            }
        }
    }
    Ok(out)
}

/// Renders a panic payload (from [`catch_unwind_future`] or
/// `std::panic::catch_unwind`) into a human-readable message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
