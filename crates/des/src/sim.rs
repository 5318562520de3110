//! The simulation scheduler: owns the clock, event queue, resources and
//! process table, and runs the event loop to completion.

use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::task::{Context as PollContext, Poll, Waker};

use crate::events::{EventId, EventQueue, Wake};
use crate::flow::{FlowNet, LinkId};
use crate::inline::InlineList;
use crate::process::{
    panic_message, Ctx, JoinError, LocalBoxFuture, ProcName, ProcessId, ResumeMsg, Shared, YieldMsg,
};
use crate::resources::{LimiterId, RateLimiter, SemId, Semaphore};
use crate::units::{Bandwidth, SimTime};

/// Seed of the per-process random streams of a [`Sim::new`] simulation.
const DEFAULT_SEED: u64 = 0xFAA5_0001;

/// Error terminating a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A process panicked and nobody [`Ctx::join`]ed it to observe the
    /// failure.
    ProcessPanicked {
        /// Name of the failing process.
        process: String,
        /// Rendered panic payload.
        message: String,
    },
    /// The event queue drained while processes were still blocked.
    Deadlock {
        /// Names of the blocked processes.
        blocked: Vec<String>,
    },
    /// A rate recompute left a transfer frozen at a non-positive rate
    /// with bytes still to move. Max-min filling cannot produce this
    /// from a well-formed topology, so it means a rate-computation bug
    /// (or float pathology) that would otherwise hang the run silently.
    FlowStalled {
        /// Name of the process whose transfer starved.
        process: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ProcessPanicked { process, message } => {
                write!(f, "process '{}' panicked: {}", process, message)
            }
            SimError::Deadlock { blocked } => {
                write!(f, "simulation deadlocked; blocked processes: {:?}", blocked)
            }
            SimError::FlowStalled { process } => {
                write!(
                    f,
                    "transfer by process '{}' stalled at a non-positive rate",
                    process
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary statistics of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Virtual time at which the last event fired.
    pub end_time: SimTime,
    /// Total number of processes that ran.
    pub processes: usize,
    /// Total number of events dispatched.
    pub events: u64,
    /// Most processes simultaneously created-but-not-finished at any
    /// instant of the run.
    pub peak_live_processes: usize,
}

/// Where a process stands with respect to its wakes. A process has at
/// most one wake pending at a time, so a slot can be handed to a new
/// process the moment its old one finishes: no wake for the old one is
/// left to reach it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PState {
    /// Its one wake is in the event queue.
    Ready,
    /// Running, or waiting in a semaphore, limiter, flow or join with no
    /// wake queued.
    Blocked,
    Finished(Result<(), String>),
}

struct Slot {
    /// The pid of the process in this slot, or of the last one to leave
    /// it.
    pid: u32,
    name: ProcName,
    state: PState,
    /// What to send when this blocked process is next woken.
    resume_with: ResumeMsg,
    /// Processes joining this one; nearly always one or none.
    join_waiters: InlineList<u32, 1>,
    /// The process future, from spawn until the process finishes; `None`
    /// while it is being polled.
    future: Option<LocalBoxFuture<'static, ()>>,
    /// Whether the future has been polled yet.
    started: bool,
    /// Whether a panic in this process has been delivered to a joiner.
    panic_observed: bool,
}

/// A deterministic discrete-event simulation.
///
/// See the [crate docs](crate) for the execution model and an example.
pub struct Sim {
    /// Clock, op mailbox, seed, next pid and slot, and released links,
    /// shared with every [`Ctx`].
    shared: Rc<Shared>,
    queue: EventQueue,
    /// Process slots, indexed by [`ProcessId::slot`]: as many as were
    /// ever live at once. A process that finished normally leaves its
    /// slot on `free_slots` for the next spawn; one that panicked keeps
    /// it for the rest of the run, so joins and the end-of-run report
    /// still read its result and name.
    procs: Vec<Slot>,
    free_slots: Vec<u32>,
    sems: Vec<Semaphore>,
    limiters: Vec<RateLimiter>,
    limiter_events: Vec<Option<EventId>>,
    flownet: FlowNet,
    flow_event: Option<EventId>,
    /// Sequence number reserved for the flow tick by the latest flow start
    /// or finish; [`Sim::flush_flows`] schedules the tick with it.
    flow_seq: Option<u64>,
    /// Reusable buffer for the processes a flow tick, limiter tick or
    /// semaphore release wakes, so steady-state wakes do no per-event
    /// allocation.
    tick_woken: Vec<u32>,
    /// First fatal condition observed while dispatching (e.g. a stalled
    /// flow); checked after every event and terminates the run loudly.
    fatal: Option<SimError>,
    events_dispatched: u64,
    live_now: usize,
    peak_live: usize,
    finished: bool,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now())
            .field("processes", &self.shared.next_pid.get())
            .field("events_dispatched", &self.events_dispatched)
            .finish()
    }
}

impl Default for Sim {
    fn default() -> Self {
        Sim::new()
    }
}

impl Sim {
    /// Creates a simulation with the default seed.
    pub fn new() -> Self {
        Sim::with_seed(DEFAULT_SEED)
    }

    /// Creates a simulation whose per-process random streams derive from
    /// `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Sim {
            shared: Rc::new(Shared::new(seed)),
            queue: EventQueue::new(),
            procs: Vec::new(),
            free_slots: Vec::new(),
            sems: Vec::new(),
            limiters: Vec::new(),
            limiter_events: Vec::new(),
            flownet: FlowNet::new(),
            flow_event: None,
            flow_seq: None,
            tick_woken: Vec::new(),
            fatal: None,
            events_dispatched: 0,
            live_now: 0,
            peak_live: 0,
            finished: false,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.shared.clock.get())
    }

    /// Creates a semaphore before the run starts (services use this during
    /// setup; processes use [`Ctx::sem_create`]).
    pub fn create_semaphore(&mut self, permits: u64) -> SemId {
        let id = SemId(self.sems.len() as u32);
        self.sems.push(Semaphore::new(permits));
        id
    }

    /// Creates a rate limiter before the run starts.
    pub fn create_limiter(&mut self, rate: f64, burst: f64) -> LimiterId {
        let id = LimiterId(self.limiters.len() as u32);
        self.limiters.push(RateLimiter::new(rate, burst));
        self.limiter_events.push(None);
        id
    }

    /// Creates a bandwidth link before the run starts.
    pub fn create_link(&mut self, capacity: Bandwidth) -> LinkId {
        self.flownet.add_link(capacity)
    }

    /// Spawns a root process that starts at the current virtual time. `f`
    /// receives the process's owned [`Ctx`] and returns its future; the
    /// future is boxed once, polled on the scheduler thread from the
    /// process's first wake on, and costs no OS thread while suspended.
    pub fn spawn<F, Fut>(&mut self, name: impl Into<String>, f: F) -> ProcessId
    where
        F: FnOnce(Ctx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let future = self.shared.build_process(f);
        self.create_process(ProcName::Given(name.into()), future)
    }

    /// Puts a future built for the next pid and slot (see
    /// `Shared::build_process`) in its slot, and queues its first wake.
    /// The future is first polled then — see [`Sim::run_process`].
    fn create_process(&mut self, name: ProcName, future: LocalBoxFuture<'static, ()>) -> ProcessId {
        let pid = ProcessId {
            pid: self.shared.next_pid.get(),
            slot: self.free_slots.pop().unwrap_or(self.procs.len() as u32),
        };
        debug_assert_eq!(
            pid.slot,
            self.shared.next_slot.get(),
            "slot reserved out of order"
        );
        let next_pid = pid.pid.checked_add(1).expect("pids exhausted");
        self.shared.next_pid.set(next_pid);
        let slot = Slot {
            pid: pid.pid,
            name,
            state: PState::Blocked,
            resume_with: ResumeMsg::Go,
            join_waiters: InlineList::new(),
            future: Some(future),
            started: false,
            panic_observed: false,
        };
        match self.procs.get_mut(pid.slot as usize) {
            Some(free) => *free = slot,
            None => self.procs.push(slot),
        }
        self.publish_next_slot();
        self.live_now += 1;
        self.peak_live = self.peak_live.max(self.live_now);
        self.schedule_wake(pid.slot);
        pid
    }

    /// Publishes the slot the next process will take: the last one freed,
    /// or a new one.
    fn publish_next_slot(&self) {
        let next = self.free_slots.last().copied();
        self.shared
            .next_slot
            .set(next.unwrap_or(self.procs.len() as u32));
    }

    /// Runs the simulation until no events remain.
    ///
    /// # Errors
    /// Returns [`SimError::ProcessPanicked`] if any process panicked without
    /// a joiner observing it, and [`SimError::Deadlock`] if the event queue
    /// drained while processes were still blocked.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        loop {
            self.flush_flows();
            if let Some(err) = self.fatal.take() {
                self.teardown();
                return Err(err);
            }
            let Some((time, wake)) = self.queue.pop() else {
                break;
            };
            debug_assert!(time >= self.now(), "time must be monotone");
            self.shared.clock.set(time.as_nanos());
            self.events_dispatched += 1;
            match wake {
                Wake::Process(pidx) => self.run_process(pidx),
                Wake::FlowTick => {
                    self.flow_event = None;
                    let mut woken = std::mem::take(&mut self.tick_woken);
                    self.flownet.tick(time, &mut woken);
                    for &pidx in &woken {
                        self.procs[pidx as usize].resume_with = ResumeMsg::Go;
                        self.schedule_wake(pidx);
                    }
                    woken.clear();
                    self.tick_woken = woken;
                    self.flow_changed();
                }
                Wake::LimiterTick(li) => {
                    self.limiter_events[li as usize] = None;
                    let mut woken = std::mem::take(&mut self.tick_woken);
                    self.limiters[li as usize].tick_into(time, &mut woken);
                    for &pidx in &woken {
                        self.procs[pidx as usize].resume_with = ResumeMsg::Go;
                        self.schedule_wake(pidx);
                    }
                    woken.clear();
                    self.tick_woken = woken;
                    self.reschedule_limiter_tick(li);
                }
            }
        }
        self.finished = true;
        let end_time = self.now();
        // Surface the first unobserved panic, in pid order.
        let unobserved = self
            .procs
            .iter()
            .filter(|s| !s.panic_observed)
            .filter_map(|s| match &s.state {
                PState::Finished(Err(message)) => Some((s.pid, s, message)),
                _ => None,
            })
            .min_by_key(|&(pid, ..)| pid);
        if let Some((_, slot, message)) = unobserved {
            let err = SimError::ProcessPanicked {
                process: slot.name.to_string(),
                message: message.clone(),
            };
            self.teardown();
            return Err(err);
        }
        // Detect deadlock: blocked processes with no pending events.
        let mut blocked: Vec<(u32, String)> = self
            .procs
            .iter()
            .filter(|s| !matches!(s.state, PState::Finished(_)))
            .map(|s| (s.pid, s.name.to_string()))
            .collect();
        if !blocked.is_empty() {
            blocked.sort_unstable_by_key(|&(pid, _)| pid);
            let blocked = blocked.into_iter().map(|(_, name)| name).collect();
            self.teardown();
            return Err(SimError::Deadlock { blocked });
        }
        let report = SimReport {
            end_time,
            processes: self.shared.next_pid.get() as usize,
            events: self.events_dispatched,
            peak_live_processes: self.peak_live,
        };
        self.teardown();
        Ok(report)
    }

    /// Queues the one wake of the process in slot `pidx` at the current
    /// instant.
    fn schedule_wake(&mut self, pidx: u32) {
        self.wake_at(pidx, self.now());
    }

    /// Queues the one wake of the process in slot `pidx` at `at`.
    fn wake_at(&mut self, pidx: u32, at: SimTime) {
        let slot = &mut self.procs[pidx as usize];
        debug_assert_eq!(slot.state, PState::Blocked, "a second wake for one process");
        slot.state = PState::Ready;
        self.queue.schedule(at, Wake::Process(pidx));
    }

    /// Records a fatal error if the current rates starve a flow; the run
    /// loop terminates with it before the next event.
    fn check_flow_stall(&mut self) {
        if let Some(waker) = self.flownet.take_stalled() {
            if self.fatal.is_none() {
                self.fatal = Some(SimError::FlowStalled {
                    process: self.procs[waker as usize].name.to_string(),
                });
            }
        }
    }

    /// A flow started or finished, so the scheduled tick is stale: cancel
    /// it and reserve the sequence number its replacement takes. The tick
    /// is scheduled by [`Sim::flush_flows`], keeping the place among
    /// same-instant events it would have had if scheduled now.
    fn flow_changed(&mut self) {
        if let Some(ev) = self.flow_event.take() {
            self.queue.cancel(ev);
        }
        self.flow_seq = (self.flownet.active_flows() > 0).then(|| self.queue.reserve());
    }

    /// Solves the flow rates and schedules the tick reserved by the latest
    /// flow change, before the next event pops. Deferred while the next
    /// event is at the current instant and no flow can complete at it:
    /// the tick then falls after every event of this instant, so a burst
    /// of same-instant starts and finishes costs one rate solve.
    fn flush_flows(&mut self) {
        let Some(seq) = self.flow_seq else {
            return;
        };
        let now = self.now();
        if !self.flownet.may_complete_now() && self.queue.peek_time() == Some(now) {
            return;
        }
        self.flow_seq = None;
        let next = self.flownet.next_completion(now);
        self.check_flow_stall();
        if let Some(at) = next {
            self.flow_event = Some(self.queue.schedule_reserved(at, seq, Wake::FlowTick));
        }
    }

    fn reschedule_limiter_tick(&mut self, li: u32) {
        if let Some(ev) = self.limiter_events[li as usize].take() {
            self.queue.cancel(ev);
        }
        let now = self.now();
        if let Some(at) = self.limiters[li as usize].next_ready(now) {
            self.limiter_events[li as usize] = Some(self.queue.schedule(at, Wake::LimiterTick(li)));
        }
    }

    /// Resumes the process in slot `pidx` and services its requests until
    /// it blocks or finishes.
    ///
    /// A process's first wake polls its future for the first time; that
    /// is where its code starts to run. A process that is spawned but
    /// never scheduled costs only its slot and its boxed future.
    fn run_process(&mut self, pidx: u32) {
        let slot = &mut self.procs[pidx as usize];
        // The wake being delivered is the one `wake_at` queued for this
        // slot's process: it had no other, and cannot have finished (or
        // left the slot) while it was queued.
        debug_assert_eq!(
            slot.state,
            PState::Ready,
            "a wake reached slot {} with no wake queued",
            pidx
        );
        slot.state = PState::Blocked;
        if !slot.started {
            debug_assert!(
                matches!(slot.resume_with, ResumeMsg::Go),
                "first wake must be a plain Go"
            );
            slot.started = true;
            self.poll_task(pidx);
            return;
        }
        // A started, unfinished process is always suspended in exactly
        // one op; deliver the answer it is waiting for, then poll.
        let msg = std::mem::replace(&mut slot.resume_with, ResumeMsg::Go);
        self.reply(msg);
        self.poll_task(pidx);
    }

    /// Polls a process's future, servicing the op it deposits
    /// on each suspension, until it blocks in virtual time, finishes, or
    /// panics.
    fn poll_task(&mut self, pidx: u32) {
        let mut future = self.procs[pidx as usize]
            .future
            .take()
            .expect("poll_task on a finished process");
        loop {
            let mut cx = PollContext::from_waker(Waker::noop());
            let polled =
                std::panic::catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx)));
            // The mailbox is empty after every poll: the process consumed
            // any reply, and its request (if it made one) is taken here.
            let request = self.shared.request.take();
            let unread = self.shared.reply.take();
            debug_assert!(unread.is_none(), "a reply outlived the poll it was for");
            match polled {
                Ok(Poll::Pending) => {
                    let Some(msg) = request else {
                        // The future suspended without a simulation op
                        // pending — it awaited something the scheduler
                        // cannot resolve. Fail the process rather than
                        // hang the simulation.
                        drop(future);
                        self.finish_process(
                            pidx,
                            Err("process suspended outside a simulation op \
                                 (awaited a non-simulation future)"
                                .to_string()),
                        );
                        return;
                    };
                    if self.handle_yield(pidx, msg) == Flow::Blocked {
                        self.procs[pidx as usize].future = Some(future);
                        return;
                    }
                }
                Ok(Poll::Ready(())) => {
                    drop(future);
                    self.finish_process(pidx, Ok(()));
                    return;
                }
                Err(payload) => {
                    drop(future);
                    self.finish_process(pidx, Err(panic_message(payload.as_ref())));
                    return;
                }
            }
        }
    }

    /// Places a scheduler reply in the op mailbox, consumed by the poll
    /// that follows.
    fn reply(&self, msg: ResumeMsg) {
        let prev = self.shared.reply.replace(Some(msg));
        debug_assert!(prev.is_none(), "process replied to twice");
    }

    fn handle_yield(&mut self, pidx: u32, msg: YieldMsg) -> Flow {
        let now = self.now();
        match msg {
            YieldMsg::Sleep(d) => {
                self.procs[pidx as usize].resume_with = ResumeMsg::Go;
                self.wake_at(pidx, now + d);
                Flow::Blocked
            }
            YieldMsg::SemCreate(permits) => {
                let id = SemId(self.sems.len() as u32);
                self.sems.push(Semaphore::new(permits));
                self.reply(ResumeMsg::Sem(id));
                Flow::Continue
            }
            YieldMsg::SemAcquire(id, n) => {
                if self.sems[id.0 as usize].acquire(pidx, n) {
                    self.reply(ResumeMsg::Go);
                    Flow::Continue
                } else {
                    self.procs[pidx as usize].resume_with = ResumeMsg::Go;
                    Flow::Blocked
                }
            }
            YieldMsg::SemRelease(id, n) => {
                let mut woken = std::mem::take(&mut self.tick_woken);
                self.sems[id.0 as usize].release(n, &mut woken);
                for &w in &woken {
                    self.procs[w as usize].resume_with = ResumeMsg::Go;
                    self.schedule_wake(w);
                }
                woken.clear();
                self.tick_woken = woken;
                self.reply(ResumeMsg::Go);
                Flow::Continue
            }
            YieldMsg::LimiterAcquire(id, tokens) => {
                if self.limiters[id.0 as usize].acquire(now, pidx, tokens) {
                    self.reply(ResumeMsg::Go);
                    Flow::Continue
                } else {
                    self.procs[pidx as usize].resume_with = ResumeMsg::Go;
                    self.reschedule_limiter_tick(id.0);
                    Flow::Blocked
                }
            }
            YieldMsg::LinkCreate(bw) => {
                for link in self.shared.released_links.borrow_mut().drain(..) {
                    self.flownet.release_link(link);
                }
                let id = self.flownet.add_link(bw);
                self.reply(ResumeMsg::Link(id));
                Flow::Continue
            }
            YieldMsg::Transfer(spec) => {
                self.flownet.start(now, spec, pidx);
                self.procs[pidx as usize].resume_with = ResumeMsg::Go;
                self.flow_changed();
                Flow::Blocked
            }
            YieldMsg::Spawn { name, future } => {
                let pid = self.create_process(name, future);
                self.reply(ResumeMsg::Pid(pid));
                Flow::Continue
            }
            YieldMsg::Join(target) => {
                assert!(
                    target.pid < self.shared.next_pid.get(),
                    "join on unknown process {:?}",
                    target
                );
                let slot = &self.procs[target.slot as usize];
                let result = if slot.pid != target.pid {
                    // The slot has a new process: the target finished
                    // normally (a panicked one keeps its slot).
                    Some(Ok(()))
                } else {
                    match &slot.state {
                        PState::Finished(res) => Some(res.clone()),
                        _ => None,
                    }
                };
                match result {
                    Some(res) => {
                        let jr = self.join_result(target, res);
                        self.reply(ResumeMsg::JoinResult(jr));
                        Flow::Continue
                    }
                    None => {
                        self.procs[target.slot as usize].join_waiters.push(pidx);
                        Flow::Blocked
                    }
                }
            }
        }
    }

    /// Marks the process in slot `pidx` finished and wakes its joiners.
    /// The caller has already dropped the process future. A process that
    /// finished normally frees its slot for the next spawn.
    fn finish_process(&mut self, pidx: u32, result: Result<(), String>) {
        let slot = &mut self.procs[pidx as usize];
        slot.state = PState::Finished(result.clone());
        let target = ProcessId {
            pid: slot.pid,
            slot: pidx,
        };
        let waiters = std::mem::take(&mut slot.join_waiters);
        self.live_now -= 1;
        for &w in &waiters {
            let jr = self.join_result(target, result.clone());
            self.procs[w as usize].resume_with = ResumeMsg::JoinResult(jr);
            self.schedule_wake(w);
        }
        if result.is_ok() {
            // The name is the only heap state a finished slot still holds.
            self.procs[pidx as usize].name = ProcName::Given(String::new());
            self.free_slots.push(pidx);
            self.publish_next_slot();
        }
    }

    fn join_result(&mut self, target: ProcessId, res: Result<(), String>) -> Result<(), JoinError> {
        match res {
            Ok(()) => Ok(()),
            Err(message) => {
                let slot = &mut self.procs[target.slot as usize];
                slot.panic_observed = true;
                Err(JoinError {
                    process: slot.name.to_string(),
                    message,
                })
            }
        }
    }

    /// Drops every suspended or never-started process future. No process
    /// code runs again: a dropped future is never polled.
    fn teardown(&mut self) {
        for slot in &mut self.procs {
            slot.future = None;
        }
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        if !self.finished {
            self.teardown();
        }
    }
}

#[derive(PartialEq, Eq)]
enum Flow {
    Continue,
    Blocked,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Bandwidth, ByteSize, SimDuration};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn empty_sim_completes() {
        let report = Sim::new().run().expect("empty sim");
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.processes, 0);
    }

    #[test]
    fn sleep_advances_clock() {
        let mut sim = Sim::new();
        sim.spawn("sleeper", |ctx| async move {
            ctx.sleep(SimDuration::from_secs(5)).await;
            ctx.sleep(SimDuration::from_millis(250)).await;
        });
        let report = sim.run().expect("run");
        assert_eq!(report.end_time.as_nanos(), 5_250_000_000);
    }

    #[test]
    fn processes_interleave_deterministically() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        for i in 0..3u64 {
            let log = Arc::clone(&log);
            sim.spawn(format!("p{}", i), move |ctx| async move {
                ctx.sleep(SimDuration::from_millis(10 * (3 - i))).await;
                log.lock().unwrap().push(i);
            });
        }
        sim.run().expect("run");
        assert_eq!(*log.lock().unwrap(), vec![2, 1, 0]);
    }

    #[test]
    fn spawn_and_join_child() {
        let out = Arc::new(Mutex::new(0u64));
        let mut sim = Sim::new();
        let out2 = Arc::clone(&out);
        sim.spawn("parent", move |ctx| async move {
            let out3 = Arc::clone(&out2);
            let child = ctx
                .spawn("child", move |cctx| async move {
                    cctx.sleep(SimDuration::from_secs(1)).await;
                    *out3.lock().unwrap() = 42;
                })
                .await;
            ctx.join(child).await.expect("child ok");
            assert_eq!(ctx.now().as_secs_f64(), 1.0);
            assert_eq!(*out2.lock().unwrap(), 42);
        });
        sim.run().expect("run");
        assert_eq!(*out.lock().unwrap(), 42);
    }

    #[test]
    fn join_already_finished_child() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let child = ctx.spawn("quick", |_| async {}).await;
            ctx.sleep(SimDuration::from_secs(1)).await;
            ctx.join(child).await.expect("quick ok");
            assert_eq!(ctx.now().as_secs_f64(), 1.0, "join must not add time");
        });
        sim.run().expect("run");
    }

    #[test]
    fn join_observes_child_panic() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let child = ctx.spawn("bad", |_c| async move { panic!("boom") }).await;
            let err = ctx.join(child).await.expect_err("child panicked");
            assert_eq!(err.process, "bad");
            assert!(err.message.contains("boom"));
        });
        sim.run().expect("observed panic is not a sim error");
    }

    #[test]
    fn unobserved_panic_fails_run() {
        let mut sim = Sim::new();
        sim.spawn("bad", |_ctx| async move { panic!("kaboom") });
        let err = sim.run().expect_err("must fail");
        match err {
            SimError::ProcessPanicked { process, message } => {
                assert_eq!(process, "bad");
                assert!(message.contains("kaboom"));
            }
            other => panic!("unexpected error {:?}", other),
        }
    }

    #[test]
    fn semaphore_serializes_critical_section() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        let sem = sim.create_semaphore(1);
        for i in 0..4u64 {
            let log = Arc::clone(&log);
            sim.spawn(format!("w{}", i), move |ctx| async move {
                ctx.sem_acquire(sem, 1).await;
                log.lock().unwrap().push((i, ctx.now()));
                ctx.sleep(SimDuration::from_secs(1)).await;
                ctx.sem_release(sem, 1).await;
            });
        }
        sim.run().expect("run");
        let log = log.lock().unwrap();
        // FIFO: worker i enters at t = i seconds.
        for (i, (w, at)) in log.iter().enumerate() {
            assert_eq!(*w, i as u64);
            assert_eq!(at.as_secs_f64(), i as f64);
        }
    }

    #[test]
    fn limiter_throttles_ops() {
        let mut sim = Sim::new();
        let lim = sim.create_limiter(10.0, 1.0); // 10 ops/s, burst 1
        sim.spawn("client", move |ctx| async move {
            for _ in 0..5 {
                ctx.limiter_acquire(lim, 1.0).await;
            }
            // First op free (full bucket), remaining 4 at 0.1 s apart.
            assert!((ctx.now().as_secs_f64() - 0.4).abs() < 1e-6);
        });
        sim.run().expect("run");
    }

    #[test]
    fn transfer_times_follow_fair_share() {
        let mut sim = Sim::new();
        let link = sim.create_link(Bandwidth::bytes_per_sec(100.0));
        let done = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2u64 {
            let done = Arc::clone(&done);
            sim.spawn(format!("t{}", i), move |ctx| async move {
                ctx.transfer(ByteSize::new(100), &[link]).await;
                done.lock().unwrap().push((i, ctx.now()));
            });
        }
        sim.run().expect("run");
        let done = done.lock().unwrap();
        // Two 100-byte flows share 100 B/s: both complete at t=2s.
        assert_eq!(done.len(), 2);
        for (_, at) in done.iter() {
            assert!((at.as_secs_f64() - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn transfer_rebalances_after_completion() {
        let mut sim = Sim::new();
        let link = sim.create_link(Bandwidth::bytes_per_sec(100.0));
        let done = Arc::new(Mutex::new(HashMap::new()));
        let d1 = Arc::clone(&done);
        sim.spawn("small", move |ctx| async move {
            ctx.transfer(ByteSize::new(50), &[link]).await;
            d1.lock().unwrap().insert("small", ctx.now().as_secs_f64());
        });
        let d2 = Arc::clone(&done);
        sim.spawn("large", move |ctx| async move {
            ctx.transfer(ByteSize::new(500), &[link]).await;
            d2.lock().unwrap().insert("large", ctx.now().as_secs_f64());
        });
        sim.run().expect("run");
        let done = done.lock().unwrap();
        // Shared 50 B/s until small finishes at 1 s; large then runs at
        // 100 B/s for its remaining 450 B => 1 + 4.5 = 5.5 s.
        assert!((done["small"] - 1.0).abs() < 1e-6);
        assert!((done["large"] - 5.5).abs() < 1e-6);
    }

    #[test]
    fn deadlock_is_reported() {
        let mut sim = Sim::new();
        let sem = sim.create_semaphore(0);
        sim.spawn("stuck", move |ctx| async move {
            ctx.sem_acquire(sem, 1).await;
        });
        let err = sim.run().expect_err("deadlock");
        match err {
            SimError::Deadlock { blocked } => assert_eq!(blocked, vec!["stuck".to_string()]),
            other => panic!("unexpected error {:?}", other),
        }
    }

    #[test]
    fn rng_is_deterministic_across_runs() {
        fn draw() -> Vec<u64> {
            use rand::Rng;
            let out = Arc::new(Mutex::new(Vec::new()));
            let mut sim = Sim::new();
            let out2 = Arc::clone(&out);
            sim.spawn("r", move |mut ctx| async move {
                let v: Vec<u64> = (0..8).map(|_| ctx.rng().gen()).collect();
                out2.lock().unwrap().extend(v);
            });
            sim.run().expect("run");
            let v = out.lock().unwrap().clone();
            v
        }
        assert_eq!(draw().len(), 8);
        assert_eq!(draw(), draw());
    }

    #[test]
    fn join_all_aggregates() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let mut kids = Vec::new();
            for i in 0..4 {
                let kid = ctx
                    .spawn(format!("k{}", i), move |c| async move {
                        c.sleep(SimDuration::from_secs(i + 1)).await;
                    })
                    .await;
                kids.push(kid);
            }
            ctx.join_all(&kids).await.expect("all ok");
            assert_eq!(ctx.now().as_secs_f64(), 4.0);
        });
        sim.run().expect("run");
    }

    #[test]
    fn different_sim_seeds_change_random_streams() {
        fn draw(seed: u64) -> u64 {
            use rand::Rng;
            let out = Arc::new(Mutex::new(0u64));
            let mut sim = Sim::with_seed(seed);
            let out2 = Arc::clone(&out);
            sim.spawn("r", move |mut ctx| async move {
                *out2.lock().unwrap() = ctx.rng().gen();
            });
            sim.run().expect("run");
            let v = *out.lock().unwrap();
            v
        }
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn sibling_processes_draw_distinct_rng_streams() {
        // Two sequential children of one parent must draw from distinct,
        // pid-seeded random streams.
        use rand::Rng;
        let draws = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        let d = Arc::clone(&draws);
        sim.spawn("root", move |ctx| async move {
            for i in 0..2 {
                let d = Arc::clone(&d);
                let child = ctx
                    .spawn(format!("c{}", i), move |mut c| async move {
                        d.lock().unwrap().push(c.rng().gen::<u64>());
                    })
                    .await;
                ctx.join(child).await.expect("child ok");
            }
        });
        sim.run().expect("run");
        let draws = draws.lock().unwrap();
        assert_eq!(draws.len(), 2);
        assert_ne!(draws[0], draws[1], "streams must differ across processes");
    }

    #[test]
    fn deep_spawn_trees_work() {
        // Each process spawns a child, 50 levels deep, each sleeping 1 ms.
        fn spawn_level(ctx: &Ctx, level: u64) -> LocalBoxFuture<'_, ()> {
            Box::pin(async move {
                ctx.sleep(SimDuration::from_millis(1)).await;
                if level > 0 {
                    let child = ctx
                        .spawn(format!("level{}", level), move |c| async move {
                            spawn_level(&c, level - 1).await;
                        })
                        .await;
                    ctx.join(child).await.expect("child ok");
                }
            })
        }
        let mut sim = Sim::new();
        sim.spawn("root", |ctx| async move { spawn_level(&ctx, 50).await });
        let report = sim.run().expect("run");
        assert_eq!(report.processes, 51);
        assert_eq!(report.end_time.as_nanos(), 51 * 1_000_000);
        // Every level waits in a join while its child runs, so all 51
        // processes are live at the deepest point.
        assert_eq!(report.peak_live_processes, 51);
    }

    #[test]
    fn sleeping_zero_is_a_yield_not_a_noop() {
        // Two processes alternating zero-sleeps interleave fairly.
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        for who in 0..2u64 {
            let log = Arc::clone(&log);
            sim.spawn(format!("p{}", who), move |ctx| async move {
                for _ in 0..3 {
                    log.lock().unwrap().push(who);
                    ctx.sleep(SimDuration::ZERO).await;
                }
            });
        }
        sim.run().expect("run");
        let log = log.lock().unwrap();
        assert_eq!(
            *log,
            vec![0, 1, 0, 1, 0, 1],
            "zero-sleep yields round-robin"
        );
    }

    #[test]
    fn unstarted_and_suspended_processes_are_dropped_on_teardown() {
        // A deadlocked sim tears down cleanly, dropping the suspended
        // future of the stuck process and everything it captured.
        let held = Arc::new(());
        let mut sim = Sim::new();
        let sem = sim.create_semaphore(0);
        let held2 = Arc::clone(&held);
        sim.spawn("stuck", move |ctx| async move {
            let _child = ctx
                .spawn("child", |c| async move {
                    c.sleep(SimDuration::from_secs(1)).await;
                })
                .await;
            ctx.sem_acquire(sem, 1).await;
            drop(held2);
        });
        let err = sim.run().expect_err("deadlock");
        assert!(matches!(err, SimError::Deadlock { .. }));
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "the suspended future was dropped"
        );
        // A body spawned into a sim that never runs is dropped, not run.
        let mut sim = Sim::new();
        let held2 = Arc::clone(&held);
        sim.spawn("never-run", move |_ctx| async move {
            drop(held2);
            unreachable!("an unstarted body must never run");
        });
        drop(sim);
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "the unstarted body was dropped"
        );
    }

    #[test]
    fn fan_out_returns_results_in_job_order() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let jobs: Vec<_> = (0..6u64)
                .map(|i| {
                    async move |cctx: &mut Ctx| {
                        // Later jobs finish earlier; order must still hold.
                        cctx.sleep(SimDuration::from_millis(60 - 10 * i)).await;
                        i * 2
                    }
                })
                .collect();
            let out = ctx.fan_out("job", 6, jobs).await.expect("fan_out ok");
            assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
        });
        sim.run().expect("run");
    }

    #[test]
    fn fan_out_window_bounds_concurrency() {
        // 4 one-second jobs through a window of 2 take exactly 2 s, and
        // never more than 2 run at once.
        let inflight = Arc::new(Mutex::new((0u32, 0u32))); // (current, peak)
        let mut sim = Sim::new();
        let inflight2 = Arc::clone(&inflight);
        sim.spawn("parent", move |ctx| async move {
            let jobs: Vec<_> = (0..4)
                .map(|_| {
                    let inflight = Arc::clone(&inflight2);
                    async move |cctx: &mut Ctx| {
                        {
                            let mut g = inflight.lock().unwrap();
                            g.0 += 1;
                            g.1 = g.1.max(g.0);
                        }
                        cctx.sleep(SimDuration::from_secs(1)).await;
                        inflight.lock().unwrap().0 -= 1;
                    }
                })
                .collect();
            ctx.fan_out("bounded", 2, jobs).await.expect("fan_out ok");
            assert_eq!(ctx.now().as_secs_f64(), 2.0, "2 waves of 2 jobs");
        });
        sim.run().expect("run");
        assert_eq!(inflight.lock().unwrap().1, 2, "window caps concurrency");
    }

    #[test]
    fn fan_out_panic_surfaces_without_deadlocking_siblings() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            // Worker 0 pulls the panicking job and dies; worker 1 keeps
            // draining the queue, so the surviving job still runs and
            // the fan-out returns (first error) instead of hanging.
            let jobs: Vec<_> = (0..2u32)
                .map(|i| {
                    async move |cctx: &mut Ctx| {
                        if i == 0 {
                            panic!("job zero failed");
                        }
                        cctx.sleep(SimDuration::from_millis(5)).await;
                        7
                    }
                })
                .collect();
            let err = ctx
                .fan_out("mixed", 2, jobs)
                .await
                .expect_err("panic surfaces");
            assert_eq!(err.process, "mixed#0");
            assert!(err.message.contains("job zero failed"));
            assert!(
                ctx.now().as_secs_f64() >= 0.005,
                "sibling still ran to completion"
            );
        });
        sim.run().expect("observed panic is not a sim error");
    }

    #[test]
    fn fan_out_empty_and_zero_window() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let none: Vec<_> = (0..0u8).map(|i| async move |_: &mut Ctx| i).collect();
            assert_eq!(
                ctx.fan_out("empty", 4, none).await.expect("empty ok"),
                vec![]
            );
            // Window 0 is clamped to 1 rather than deadlocking.
            let jobs: Vec<_> = (0..2u8).map(|i| async move |_: &mut Ctx| i).collect();
            assert_eq!(
                ctx.fan_out("clamped", 0, jobs).await.expect("ok"),
                vec![0, 1]
            );
        });
        sim.run().expect("run");
    }

    #[test]
    fn many_processes_scale() {
        let mut sim = Sim::new();
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..2000u64 {
            let counter = Arc::clone(&counter);
            sim.spawn(format!("n{}", i), move |ctx| async move {
                ctx.sleep(SimDuration::from_millis(i % 50)).await;
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        let report = sim.run().expect("run");
        assert_eq!(counter.load(Ordering::SeqCst), 2000);
        assert_eq!(report.processes, 2000);
        assert_eq!(report.peak_live_processes, 2000);
    }

    #[test]
    fn finished_processes_hand_their_slots_to_later_spawns() {
        // 100,000 children one after another, never more than the root
        // and one child live: every child runs in slot 1, and each draws
        // the random stream of its own never-reused pid.
        use rand::Rng;
        const CHILDREN: u32 = 100_000;
        let seen = Arc::new(Mutex::new(Vec::with_capacity(CHILDREN as usize)));
        let mut sim = Sim::new();
        let seen2 = Arc::clone(&seen);
        sim.spawn("root", move |ctx| async move {
            for i in 0..CHILDREN {
                let seen = Arc::clone(&seen2);
                let child = ctx
                    .spawn(format!("c{}", i), move |mut c| async move {
                        let draw: u64 = c.rng().gen();
                        seen.lock().unwrap().push((c.pid(), draw));
                    })
                    .await;
                ctx.join(child).await.expect("child ok");
            }
        });
        let report = sim.run().expect("run");
        assert_eq!(report.processes, CHILDREN as usize + 1);
        assert_eq!(report.peak_live_processes, 2);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), CHILDREN as usize);
        let shared = Rc::new(Shared::new(DEFAULT_SEED));
        for (i, &(pid, draw)) in seen.iter().enumerate() {
            assert_eq!(pid.index(), i + 1, "pids are handed out in spawn order");
            assert_eq!(pid.slot, 1, "the slot table stays at the live count");
            let mut fresh = Ctx::new(pid, Rc::clone(&shared));
            assert_eq!(
                draw,
                fresh.rng().gen::<u64>(),
                "pid {} drew another stream",
                pid
            );
        }
    }

    #[test]
    fn join_on_a_process_whose_slot_was_reused_returns_its_own_result() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let first = ctx.spawn("quick", |_| async {}).await;
            ctx.sleep(SimDuration::from_secs(1)).await;
            let second = ctx
                .spawn("doomed", |c| async move {
                    c.sleep(SimDuration::from_secs(1)).await;
                    panic!("second occupant failed");
                })
                .await;
            assert_eq!(
                second.slot, first.slot,
                "the finished process's slot is reused"
            );
            assert_ne!(second, first);
            ctx.join(first)
                .await
                .expect("the first occupant finished normally");
            let err = ctx.join(second).await.expect_err("second panicked");
            assert_eq!(err.process, "doomed");
        });
        sim.run().expect("every panic is observed");
    }

    #[test]
    fn join_on_an_earlier_panicked_process_returns_its_join_error() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let bad = ctx.spawn("bad", |_| async { panic!("boom") }).await;
            for i in 0..10 {
                let child = ctx.spawn(format!("c{}", i), |_| async {}).await;
                assert_ne!(child.slot, bad.slot, "a panicked process keeps its slot");
                ctx.join(child).await.expect("child ok");
            }
            for _ in 0..2 {
                let err = ctx.join(bad).await.expect_err("bad panicked");
                assert_eq!(err.process, "bad");
                assert!(err.message.contains("boom"));
            }
        });
        sim.run().expect("the panic is observed");
    }

    #[test]
    fn end_of_run_reports_name_processes_in_pid_order_across_reused_slots() {
        // "early-bad" (pid 3) panics in slot 2, "late-bad" (pid 4) in slot
        // 1: the report names the earlier pid, not the lower slot.
        let mut sim = Sim::new();
        sim.spawn("root", |ctx| async move {
            ctx.spawn(
                "a",
                |c| async move { c.sleep(SimDuration::from_secs(1)).await },
            )
            .await;
            ctx.spawn("b", |_| async {}).await;
            ctx.sleep(SimDuration::from_millis(1)).await;
            let early = ctx.spawn("early-bad", |_| async { panic!("early") }).await;
            ctx.sleep(SimDuration::from_secs(2)).await;
            let late = ctx.spawn("late-bad", |_| async { panic!("late") }).await;
            assert!(early < late && early.slot > late.slot);
        });
        match sim.run().expect_err("unobserved panics") {
            SimError::ProcessPanicked { process, message } => {
                assert_eq!(process, "early-bad");
                assert!(message.contains("early"));
            }
            other => panic!("unexpected error {:?}", other),
        }

        // "b" (pid 2) blocks in slot 2 and "c" (pid 3) in slot 1.
        let mut sim = Sim::new();
        let sem = sim.create_semaphore(0);
        sim.spawn("root", move |ctx| async move {
            ctx.spawn("a", |_| async {}).await;
            ctx.spawn("b", move |c| async move { c.sem_acquire(sem, 1).await })
                .await;
            ctx.sleep(SimDuration::from_millis(1)).await;
            ctx.spawn("c", move |c| async move { c.sem_acquire(sem, 1).await })
                .await;
        });
        match sim.run().expect_err("deadlock") {
            SimError::Deadlock { blocked } => assert_eq!(blocked, vec!["b", "c"]),
            other => panic!("unexpected error {:?}", other),
        }
    }

    #[test]
    fn closed_connections_keep_the_link_table_at_a_constant_size() {
        // 10,000 owned links, each carrying one transfer and dropped
        // before the next is made, cycle through the same few slots.
        let ids = Arc::new(Mutex::new(std::collections::BTreeSet::new()));
        let mut sim = Sim::new();
        let backbone = sim.create_link(Bandwidth::bytes_per_sec(1_000.0));
        let ids2 = Arc::clone(&ids);
        sim.spawn("client", move |ctx| async move {
            for _ in 0..10_000 {
                let conn = ctx.link_create_owned(Bandwidth::bytes_per_sec(100.0)).await;
                ctx.transfer(ByteSize::new(100), &[conn.id(), backbone])
                    .await;
                ids2.lock().unwrap().insert(conn.id().0);
            }
        });
        let report = sim.run().expect("run");
        assert_eq!(report.end_time.as_nanos(), 10_000 * 1_000_000_001);
        assert_eq!(*ids.lock().unwrap(), [1, 2].into_iter().collect());
    }

    #[test]
    fn a_panicking_kernel_fails_its_process_with_its_message() {
        // A kernel runs inline after its compute charge; its panic fails
        // the process that ran it, with the kernel's message, at the
        // instant the charge ends.
        fn kernel(input: &[u64]) -> u64 {
            assert!(input.is_empty(), "kernel died");
            0
        }
        let seen = Arc::new(Mutex::new(None));
        let seen2 = Arc::clone(&seen);
        let mut sim = Sim::new();
        sim.spawn("parent", move |ctx| async move {
            let child = ctx
                .spawn("kern", |cctx| async move {
                    cctx.compute(SimDuration::from_millis(1)).await;
                    kernel(&[1]);
                })
                .await;
            let err = ctx.join(child).await.expect_err("kernel panic");
            *seen2.lock().unwrap() = Some((err, ctx.now()));
        });
        sim.run().expect("observed panic is fine");
        let (err, at) = seen.lock().unwrap().take().expect("joined");
        assert_eq!(err.process, "kern");
        assert!(err.message.contains("kernel died"), "{}", err.message);
        assert_eq!(at.as_nanos(), 1_000_000);
    }

    #[test]
    fn same_instant_transfers_resume_in_a_pinned_order() {
        // Processes wake together and, at one instant, start a zero-byte
        // transfer, a transfer over UNLIMITED links only and normal
        // transfers, while a neighbour yields with zero-length sleeps in
        // between. The second burst (t = 3 s) starts only normal transfers
        // around the zero sleeps, then one zero-byte transfer. At t = 9 s a
        // transfer starts and a neighbour sleeps to exactly its completion
        // instant, then yields. At t = 12 s an UNLIMITED-only transfer
        // starts alone before zero sleeps. At t = 16 s + 1 ns a transfer
        // starts at the instant another one runs out of bytes, before its
        // tick, with zero sleeps after. Every resume is logged as (virtual
        // time, pid); the order pins where flow ticks fall among
        // same-instant events.
        enum Step {
            Sleep(u64),
            Send(u64, Vec<LinkId>),
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        let link = sim.create_link(Bandwidth::bytes_per_sec(100.0));
        let open = sim.create_link(Bandwidth::UNLIMITED);
        const MS: u64 = 1_000_000;
        let scripts = vec![
            vec![
                Step::Sleep(MS),
                Step::Send(0, vec![link]),
                Step::Send(0, vec![link]),
            ],
            vec![
                Step::Sleep(MS),
                Step::Sleep(0),
                Step::Sleep(0),
                Step::Sleep(0),
                Step::Sleep(0),
                Step::Sleep(0),
                Step::Sleep(0),
            ],
            vec![Step::Sleep(MS), Step::Send(1 << 30, vec![open, open])],
            vec![
                Step::Sleep(MS),
                Step::Sleep(0),
                Step::Send(50, vec![link, open]),
            ],
            vec![Step::Sleep(MS), Step::Send(100, vec![link])],
            vec![Step::Sleep(3_000 * MS), Step::Send(100, vec![link])],
            vec![Step::Sleep(3_000 * MS), Step::Sleep(0), Step::Sleep(0)],
            vec![Step::Sleep(3_000 * MS), Step::Send(200, vec![link])],
            vec![
                Step::Sleep(3_000 * MS),
                Step::Sleep(0),
                Step::Send(0, vec![link]),
            ],
            vec![Step::Sleep(9_000 * MS), Step::Send(100, vec![link])],
            vec![
                Step::Sleep(9_000 * MS),
                Step::Sleep(1_000 * MS + 1),
                Step::Sleep(0),
                Step::Sleep(0),
            ],
            vec![Step::Sleep(12_000 * MS), Step::Send(1 << 20, vec![open])],
            vec![
                Step::Sleep(12_000 * MS),
                Step::Sleep(0),
                Step::Sleep(0),
                Step::Sleep(0),
            ],
            vec![
                Step::Sleep(15_000 * MS),
                Step::Sleep(1_000 * MS + 1),
                Step::Send(100, vec![link]),
            ],
            vec![Step::Sleep(15_000 * MS), Step::Send(100, vec![link])],
            vec![
                Step::Sleep(15_000 * MS),
                Step::Sleep(1_000 * MS + 1),
                Step::Sleep(0),
                Step::Sleep(0),
            ],
        ];
        for (i, script) in scripts.into_iter().enumerate() {
            let log = Arc::clone(&log);
            sim.spawn(format!("p{}", i), move |ctx| async move {
                for step in script {
                    match step {
                        Step::Sleep(ns) => ctx.sleep(SimDuration::from_nanos(ns)).await,
                        Step::Send(b, links) => ctx.transfer(ByteSize::new(b), &links).await,
                    }
                    log.lock()
                        .unwrap()
                        .push((ctx.now().as_nanos(), ctx.pid().index()));
                }
            });
        }
        let report = sim.run().expect("run");
        assert_eq!(
            *log.lock().unwrap(),
            vec![
                (MS, 0),
                (MS, 1),
                (MS, 2),
                (MS, 3),
                (MS, 4),
                (MS, 1),
                (MS, 3),
                (MS, 1),
                (MS, 1),
                (MS, 0),
                (MS, 2),
                (MS, 1),
                (MS, 1),
                (MS, 0),
                (MS, 1),
                (1_001 * MS + 1, 3),
                (1_501 * MS + 2, 4),
                (3_000 * MS, 5),
                (3_000 * MS, 6),
                (3_000 * MS, 7),
                (3_000 * MS, 8),
                (3_000 * MS, 6),
                (3_000 * MS, 8),
                (3_000 * MS, 6),
                (3_000 * MS, 8),
                (5_000 * MS + 1, 5),
                (6_000 * MS + 2, 7),
                (9_000 * MS, 9),
                (9_000 * MS, 10),
                (10_000 * MS + 1, 10),
                (10_000 * MS + 1, 9),
                (10_000 * MS + 1, 10),
                (10_000 * MS + 1, 10),
                (12_000 * MS, 11),
                (12_000 * MS, 12),
                (12_000 * MS, 12),
                (12_000 * MS, 11),
                (12_000 * MS, 12),
                (12_000 * MS, 12),
                (15_000 * MS, 13),
                (15_000 * MS, 14),
                (15_000 * MS, 15),
                (16_000 * MS + 1, 13),
                (16_000 * MS + 1, 15),
                (16_000 * MS + 1, 15),
                (16_000 * MS + 1, 14),
                (16_000 * MS + 1, 15),
                (17_000 * MS + 2, 13),
            ]
        );
        assert_eq!(report.events, 75);
    }
}
