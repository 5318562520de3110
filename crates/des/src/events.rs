//! The simulation event queue.
//!
//! A thin priority queue keyed by `(time, sequence)` with O(log n) insert
//! and pop and O(1) cancellation. Cancellation is implemented by tombstoning:
//! a cancelled entry stays in the heap and is skipped when popped. Sequence
//! numbers make the ordering of simultaneous events FIFO and therefore
//! deterministic.
//!
//! Inside the crate a sequence number can also be reserved before its
//! event's time is known and used later (`reserve`, `schedule_reserved`):
//! the event then fires where it would have, had it been scheduled at the
//! moment of reservation.
//!
//! Payload slots are recycled through a free list instead of growing a
//! dense vector for the life of the run: an [`EventId`] packs a slot index
//! with a per-slot generation, so a handle to an event that already fired
//! (or was cancelled) can never alias a later event that reused its slot.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::units::SimTime;

/// A handle to a scheduled event, usable to cancel it.
///
/// Packs `generation << 32 | slot`; stale handles are detected by a
/// generation mismatch and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> Self {
        EventId((gen as u64) << 32 | slot as u64)
    }

    fn slot(self) -> usize {
        self.0 as u32 as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// What the scheduler should do when an event fires.
///
/// The set of wake targets is deliberately small: processes resume, and the
/// kernel-owned resources (flow network, rate limiters) get ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Resume the process in this scheduler slot.
    Process(u32),
    /// Re-evaluate the fluid-flow network (a flow is due to complete).
    FlowTick,
    /// Re-evaluate a token-bucket rate limiter's wait queue.
    LimiterTick(u32),
}

#[derive(Debug)]
struct Entry {
    time: SimTime,
    seq: u64,
    id: EventId,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

#[derive(Debug)]
struct Slot {
    gen: u32,
    wake: Option<Wake>,
}

/// Deterministic, cancellable event queue.
///
/// ```
/// use faaspipe_des::events::{EventQueue, Wake};
/// use faaspipe_des::SimTime;
///
/// let mut q = EventQueue::new();
/// let a = q.schedule(SimTime::from_nanos(10), Wake::Process(0));
/// q.schedule(SimTime::from_nanos(10), Wake::Process(1));
/// q.cancel(a);
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), Wake::Process(1))));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `wake` to fire at `time`. Events scheduled for the same
    /// instant fire in scheduling order.
    pub fn schedule(&mut self, time: SimTime, wake: Wake) -> EventId {
        let seq = self.reserve();
        self.schedule_reserved(time, seq, wake)
    }

    /// Takes the next sequence number without scheduling anything, for an
    /// event whose time is not known yet.
    pub(crate) fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `wake` at `time` with a sequence number from
    /// [`EventQueue::reserve`]: among events at `time` it fires where an
    /// event scheduled at the moment of reservation would have.
    pub(crate) fn schedule_reserved(&mut self, time: SimTime, seq: u64, wake: Wake) -> EventId {
        debug_assert!(seq < self.next_seq, "sequence number was never reserved");
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot { gen: 0, wake: None });
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[slot as usize].wake = Some(wake);
        let id = EventId::new(slot, self.slots[slot as usize].gen);
        self.heap.push(Reverse(Entry { time, seq, id }));
        self.live += 1;
        id
    }

    /// Releases `slot` for reuse, bumping its generation so any
    /// still-circulating handle (or heap entry) for it goes stale.
    fn release(&mut self, slot: usize) {
        self.slots[slot].gen = self.slots[slot].gen.wrapping_add(1);
        self.free.push(slot as u32);
        self.live -= 1;
    }

    /// Cancels a previously scheduled event. Cancelling an event that has
    /// already fired (or was already cancelled) is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        let slot = id.slot();
        if self.slots[slot].gen == id.generation() && self.slots[slot].wake.take().is_some() {
            self.release(slot);
        }
    }

    /// The time of the next live event, discarding tombstones ahead of it.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(Reverse(entry)) = self.heap.peek() {
            if self.slots[entry.id.slot()].gen == entry.id.generation() {
                return Some(entry.time);
            }
            self.heap.pop();
        }
        None
    }

    /// Pops the next live event, skipping tombstones.
    pub fn pop(&mut self) -> Option<(SimTime, Wake)> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            let slot = entry.id.slot();
            if self.slots[slot].gen != entry.id.generation() {
                continue; // cancelled; slot already recycled
            }
            let wake = self.slots[slot]
                .wake
                .take()
                .expect("live generation with empty slot");
            self.release(slot);
            return Some((entry.time, wake));
        }
        None
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EventQueue {
        /// The number of live (non-cancelled) events still queued.
        fn live_len(&self) -> usize {
            self.live
        }
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), Wake::Process(3));
        q.schedule(t(10), Wake::Process(1));
        q.schedule(t(20), Wake::Process(2));
        assert_eq!(q.pop(), Some((t(10), Wake::Process(1))));
        assert_eq!(q.pop(), Some((t(20), Wake::Process(2))));
        assert_eq!(q.pop(), Some((t(30), Wake::Process(3))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), Wake::Process(i));
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), Wake::Process(i))));
        }
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), Wake::Process(0));
        let b = q.schedule(t(2), Wake::FlowTick);
        q.cancel(a);
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.pop(), Some((t(2), Wake::FlowTick)));
        // Cancelling after fire is a no-op.
        q.cancel(b);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_twice_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), Wake::LimiterTick(7));
        q.cancel(a);
        q.cancel(a);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), Wake::Process(1));
        assert_eq!(q.pop(), Some((t(10), Wake::Process(1))));
        q.schedule(t(5), Wake::Process(2));
        q.schedule(t(15), Wake::Process(3));
        assert_eq!(q.pop(), Some((t(5), Wake::Process(2))));
        assert_eq!(q.pop(), Some((t(15), Wake::Process(3))));
    }

    #[test]
    fn slots_are_recycled_not_grown() {
        let mut q = EventQueue::new();
        for round in 0..1_000u64 {
            let id = q.schedule(t(round), Wake::Process(0));
            if round % 2 == 0 {
                q.cancel(id);
            } else {
                assert_eq!(q.pop(), Some((t(round), Wake::Process(0))));
            }
        }
        assert!(q.is_empty());
        assert!(
            q.slots.len() <= 2,
            "steady-state churn must reuse slots, got {}",
            q.slots.len()
        );
    }

    #[test]
    fn stale_handle_does_not_cancel_slot_reuser() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), Wake::Process(1));
        assert_eq!(q.pop(), Some((t(1), Wake::Process(1))));
        // `b` reuses a's slot with a bumped generation.
        let b = q.schedule(t(2), Wake::Process(2));
        q.cancel(a); // stale: must be a no-op
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.pop(), Some((t(2), Wake::Process(2))));
        let _ = b;
    }

    #[test]
    fn reserved_sequence_keeps_its_place_among_same_instant_events() {
        let mut q = EventQueue::new();
        q.schedule(t(5), Wake::Process(0));
        let seq = q.reserve();
        q.schedule(t(5), Wake::Process(2));
        let a = q.schedule(t(1), Wake::Process(3));
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(5)), "tombstone is skipped");
        q.schedule_reserved(t(5), seq, Wake::FlowTick);
        assert_eq!(q.pop(), Some((t(5), Wake::Process(0))));
        assert_eq!(q.pop(), Some((t(5), Wake::FlowTick)));
        assert_eq!(q.pop(), Some((t(5), Wake::Process(2))));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn cancelled_slot_reused_before_stale_heap_entry_pops() {
        let mut q = EventQueue::new();
        // Cancel frees the slot immediately; the tombstoned heap entry for
        // `a` must not fire the reuser scheduled at an earlier time.
        let a = q.schedule(t(10), Wake::Process(1));
        q.cancel(a);
        q.schedule(t(5), Wake::Process(2));
        assert_eq!(q.pop(), Some((t(5), Wake::Process(2))));
        assert_eq!(q.pop(), None);
    }
}
