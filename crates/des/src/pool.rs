//! The offload pool: OS threads that run CPU-heavy host kernels beside
//! the event loop, without perturbing the virtual-time schedule.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::process::{OffloadJob, OffloadOutcome};

/// Shared state between the scheduler and offload worker threads.
struct OffloadShared {
    /// Pending `(token, kernel)` jobs, run in submission order.
    queue: Mutex<VecDeque<(u64, OffloadJob)>>,
    /// Finished results keyed by token.
    results: Mutex<HashMap<u64, OffloadOutcome>>,
    job_ready: Condvar,
    result_ready: Condvar,
    shutdown: AtomicBool,
}

/// A small pool of OS threads that run genuinely CPU-heavy host kernels
/// (sort/merge/encode) *concurrently with the event loop*.
///
/// Determinism: the scheduler submits a kernel when the process yields
/// [`YieldMsg::Offload`], schedules the process's wake at `now + d`
/// exactly as a sleep would, and collects the result (blocking the host
/// if the kernel is still running) only when that wake fires. Host
/// completion order therefore never influences the event schedule —
/// only wall clock, which is the point.
pub(crate) struct OffloadPool {
    shared: Arc<OffloadShared>,
    threads: Vec<JoinHandle<()>>,
    max_threads: usize,
    next_token: u64,
}

impl OffloadPool {
    pub(crate) fn new() -> Self {
        let max_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        OffloadPool {
            shared: Arc::new(OffloadShared {
                queue: Mutex::new(VecDeque::new()),
                results: Mutex::new(HashMap::new()),
                job_ready: Condvar::new(),
                result_ready: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            threads: Vec::new(),
            max_threads,
            next_token: 0,
        }
    }

    /// Number of offload threads spawned so far (lazy, capped).
    pub(crate) fn worker_count(&self) -> usize {
        self.threads.len()
    }

    /// Enqueues `job` for background execution and returns its token.
    pub(crate) fn submit(&mut self, job: OffloadJob) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        {
            let mut queue = self.shared.queue.lock().expect("offload queue");
            queue.push_back((token, job));
        }
        self.shared.job_ready.notify_one();
        // Grow lazily: one thread per outstanding job until the cap.
        if self.threads.len() < self.max_threads {
            let depth = self.shared.queue.lock().expect("offload queue").len();
            if depth > 0 && self.threads.len() < depth.min(self.max_threads) {
                self.spawn_thread();
            }
        }
        token
    }

    /// Blocks the host until the job behind `token` has finished and
    /// returns its outcome (result or panic payload).
    pub(crate) fn wait(&self, token: u64) -> OffloadOutcome {
        let mut results = self.shared.results.lock().expect("offload results");
        loop {
            if let Some(outcome) = results.remove(&token) {
                return outcome;
            }
            results = self
                .shared
                .result_ready
                .wait(results)
                .expect("offload results");
        }
    }

    fn spawn_thread(&mut self) {
        let idx = self.threads.len();
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("sim-offl{}", idx))
            .spawn(move || offload_main(&shared))
            .expect("failed to spawn offload worker thread");
        self.threads.push(handle);
    }

    /// Signals all offload threads to exit and joins them. In-flight
    /// kernels run to completion; unclaimed results are dropped.
    pub(crate) fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.job_ready.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for OffloadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn offload_main(shared: &OffloadShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("offload queue");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.job_ready.wait(queue).expect("offload queue");
            }
        };
        let Some((token, job)) = job else { return };
        let outcome = catch_unwind(AssertUnwindSafe(job));
        shared
            .results
            .lock()
            .expect("offload results")
            .insert(token, outcome);
        shared.result_ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::panic_message;

    #[test]
    fn offload_pool_runs_jobs_and_reports_panics() {
        let mut pool = OffloadPool::new();
        let t1 = pool.submit(Box::new(|| {
            Box::new(21u64 * 2) as Box<dyn std::any::Any + Send>
        }));
        let t2 = pool.submit(Box::new(|| panic!("kernel exploded")));
        let ok = pool.wait(t1).expect("job ok");
        assert_eq!(*ok.downcast::<u64>().expect("u64"), 42);
        let err = pool.wait(t2).expect_err("panic captured");
        assert!(panic_message(err.as_ref()).contains("kernel exploded"));
        assert!(pool.worker_count() >= 1);
        pool.shutdown();
    }
}
