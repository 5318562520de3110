//! Kernel-owned blocking resources: FIFO semaphores and token-bucket rate
//! limiters that operate in virtual time.
//!
//! Both types are plain state machines driven by the scheduler; processes
//! reach them through [`Ctx`](crate::Ctx) methods. Grant order is strictly
//! FIFO, which keeps simulations deterministic and starvation-free.

use std::collections::VecDeque;

use crate::units::{SimDuration, SimTime};

/// Identifies a semaphore created in a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SemId(pub(crate) u32);

/// Identifies a rate limiter created in a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LimiterId(pub(crate) u32);

/// A counting semaphore with FIFO wait queue.
///
/// Used to model bounded resources: function-platform concurrency slots, VM
/// cores, connection pools.
#[derive(Debug)]
pub struct Semaphore {
    permits: u64,
    waiters: VecDeque<(u32, u64)>, // (process slot, permits wanted)
}

impl Semaphore {
    /// Creates a semaphore holding `permits` initial permits.
    pub fn new(permits: u64) -> Self {
        Semaphore {
            permits,
            waiters: VecDeque::new(),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> u64 {
        self.permits
    }

    /// Number of processes waiting.
    pub fn queue_len(&self) -> usize {
        self.waiters.len()
    }

    /// Attempts to take `n` permits for process `pid`. Returns `true` if
    /// granted immediately; otherwise the process is queued and must block.
    /// A request joins the queue if anyone is already waiting, preserving
    /// FIFO order even when permits are available for smaller requests.
    pub fn acquire(&mut self, pid: u32, n: u64) -> bool {
        if self.waiters.is_empty() && self.permits >= n {
            self.permits -= n;
            true
        } else {
            self.waiters.push_back((pid, n));
            false
        }
    }

    /// Returns `n` permits and grants queued requests in FIFO order,
    /// writing the processes to resume into `woken` (cleared first). The
    /// caller owns the buffer, so the scheduler reuses one across
    /// releases, as it does for [`RateLimiter::tick_into`].
    pub fn release(&mut self, n: u64, woken: &mut Vec<u32>) {
        woken.clear();
        self.permits += n;
        while let Some(&(pid, want)) = self.waiters.front() {
            if self.permits >= want {
                self.permits -= want;
                self.waiters.pop_front();
                woken.push(pid);
            } else {
                break;
            }
        }
    }
}

/// A token bucket that refills in **virtual time**, used to model request
/// throttling (e.g. the object store's "few thousand operations/s").
#[derive(Debug)]
pub struct RateLimiter {
    rate: f64,  // tokens per second
    burst: f64, // bucket capacity
    tokens: f64,
    last_refill: SimTime,
    waiters: VecDeque<(u32, f64)>, // (process slot, tokens wanted)
}

impl RateLimiter {
    /// Creates a limiter that refills at `rate` tokens/sec up to `burst`
    /// tokens, starting full.
    ///
    /// # Panics
    /// Panics if `rate` or `burst` is non-positive or not finite.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        assert!(burst > 0.0 && burst.is_finite(), "burst must be positive");
        RateLimiter {
            rate,
            burst,
            tokens: burst,
            last_refill: SimTime::ZERO,
            waiters: VecDeque::new(),
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now
            .saturating_duration_since(self.last_refill)
            .as_secs_f64();
        self.last_refill = now;
        if dt > 0.0 {
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        }
    }

    /// Attempts to take `n` tokens for process `pid` at virtual time `now`.
    /// Returns `true` if granted immediately, otherwise queues the request.
    ///
    /// # Panics
    /// Panics if `n` exceeds the burst capacity (the request could never be
    /// satisfied).
    pub fn acquire(&mut self, now: SimTime, pid: u32, n: f64) -> bool {
        assert!(
            n <= self.burst,
            "requested {} tokens but burst capacity is {}",
            n,
            self.burst
        );
        self.refill(now);
        if self.waiters.is_empty() && self.tokens >= n {
            self.tokens -= n;
            true
        } else {
            self.waiters.push_back((pid, n));
            false
        }
    }

    /// Grants queued requests whose tokens have accrued by `now`. Returns
    /// the processes to resume. A tiny epsilon absorbs float residue from
    /// incremental refills.
    pub fn tick(&mut self, now: SimTime) -> Vec<u32> {
        let mut woken = Vec::new();
        self.tick_into(now, &mut woken);
        woken
    }

    /// [`RateLimiter::tick`] into a caller-owned buffer (cleared first),
    /// so the scheduler can amortise the allocation across ticks.
    pub fn tick_into(&mut self, now: SimTime, woken: &mut Vec<u32>) {
        woken.clear();
        self.refill(now);
        while let Some(&(pid, want)) = self.waiters.front() {
            if self.tokens >= want - 1e-9 {
                self.tokens -= want;
                self.waiters.pop_front();
                woken.push(pid);
            } else {
                break;
            }
        }
    }

    /// When the head-of-line request will be satisfiable, if anyone waits.
    pub fn next_ready(&mut self, now: SimTime) -> Option<SimTime> {
        self.refill(now);
        let &(_, want) = self.waiters.front()?;
        if self.tokens >= want - 1e-9 {
            return Some(now);
        }
        // Round *up* with a 1 ns pad so the scheduled tick always finds
        // the tokens accrued (see the analogous fix in flow.rs).
        let deficit = want - self.tokens;
        let ns = (deficit / self.rate * 1e9).ceil();
        let pad = if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration::from_nanos((ns as u64).saturating_add(1))
        };
        Some(now + pad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn release(s: &mut Semaphore, n: u64) -> Vec<u32> {
        let mut woken = vec![u32::MAX];
        s.release(n, &mut woken);
        woken
    }

    #[test]
    fn semaphore_grants_and_blocks() {
        let mut s = Semaphore::new(2);
        assert!(s.acquire(0, 1));
        assert!(s.acquire(1, 1));
        assert!(!s.acquire(2, 1));
        assert_eq!(s.queue_len(), 1);
        assert_eq!(release(&mut s, 1), vec![2]);
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn semaphore_fifo_no_overtaking() {
        let mut s = Semaphore::new(2);
        assert!(s.acquire(0, 2));
        assert!(!s.acquire(1, 2)); // waits for 2
        assert!(!s.acquire(2, 1)); // must not overtake pid 1
        let woken = release(&mut s, 2);
        assert_eq!(woken, vec![1]);
        let woken = release(&mut s, 2);
        assert_eq!(woken, vec![2]);
        assert_eq!(s.available(), 1);
    }

    #[test]
    fn semaphore_release_wakes_multiple() {
        let mut s = Semaphore::new(0);
        assert!(!s.acquire(0, 1));
        assert!(!s.acquire(1, 1));
        assert!(!s.acquire(2, 3));
        assert_eq!(release(&mut s, 2), vec![0, 1]);
        assert_eq!(release(&mut s, 3), vec![2]);
    }

    #[test]
    fn limiter_starts_full_and_throttles() {
        let mut l = RateLimiter::new(10.0, 5.0);
        assert!(l.acquire(t(0), 0, 5.0));
        assert!(!l.acquire(t(0), 1, 3.0));
        // 3 tokens accrue in 0.3 s.
        let ready = l.next_ready(t(0)).expect("waiter queued");
        assert!(
            ready.as_nanos().abs_diff(t(300).as_nanos()) <= 2,
            "ready {:?}",
            ready
        );
        assert_eq!(l.tick(t(300)), vec![1]);
        assert!(l.next_ready(t(300)).is_none());
    }

    #[test]
    fn limiter_refill_caps_at_burst() {
        let mut l = RateLimiter::new(100.0, 10.0);
        assert!(l.acquire(t(0), 0, 10.0));
        // A long wait should not accrue more than burst: the full burst
        // is granted at once, and not a token more.
        assert!(l.acquire(t(60_000), 1, 10.0));
        assert!(!l.acquire(t(60_000), 2, 1.0));
    }

    #[test]
    fn limiter_fifo_order() {
        let mut l = RateLimiter::new(1.0, 2.0);
        assert!(l.acquire(t(0), 0, 2.0)); // drains bucket
        assert!(!l.acquire(t(0), 1, 2.0));
        assert!(!l.acquire(t(0), 2, 0.5));
        // After 2 s, head (pid 1) is satisfiable but pid 2's smaller
        // request must not jump the queue before that.
        assert_eq!(l.tick(t(1_000)), Vec::<u32>::new());
        let woken = l.tick(t(2_000));
        assert_eq!(woken, vec![1]);
        assert_eq!(l.tick(t(2_500)), vec![2]);
    }

    #[test]
    #[should_panic(expected = "burst capacity")]
    fn limiter_rejects_oversized_request() {
        let mut l = RateLimiter::new(1.0, 1.0);
        l.acquire(t(0), 0, 2.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn limiter_rejects_bad_rate() {
        RateLimiter::new(0.0, 1.0);
    }
}
