//! Pins the simulator's host heap allocations per simulated event.
//!
//! A counting global allocator wraps the system allocator for this test
//! binary only. It counts allocations and reallocations made by the
//! calling thread, so the test harness's own threads do not disturb the
//! count. The pipeline below runs every kernel inline (each is below
//! `INLINE_KERNEL_BYTES`), so all of its work happens on that thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use faaspipe::core::{run_methcomp_pipeline, PipelineConfig, WorkerChoice};
use faaspipe::exchange::ExchangeKind;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations per simulated event above which the test fails. The
/// control-plane-heavy run below makes 1.26 (23,846 allocations and
/// reallocations over 18,954 events); before the simulator stopped
/// allocating per store request and per process name it made 4.54.
const CEILING_PER_EVENT: f64 = 1.35;

/// Allocations made by one pipeline run on this thread, and its events.
fn allocations_of_one_run(cfg: &PipelineConfig) -> (u64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let outcome = run_methcomp_pipeline(cfg).expect("pipeline runs");
    (ALLOCATIONS.with(Cell::get) - before, outcome.sim.events)
}

#[test]
fn allocations_per_event_stay_under_the_ceiling() {
    // A small `fanout`: many functions, few records each.
    let mut cfg = PipelineConfig::paper_table1();
    cfg.physical_records = 2_000;
    cfg.workers = WorkerChoice::Fixed(256);
    cfg.exchange = ExchangeKind::Coalesced;
    cfg.io_concurrency = 4;
    // The first run pays one-time lazy initialisation.
    allocations_of_one_run(&cfg);
    let (first, events) = allocations_of_one_run(&cfg);
    let (second, _) = allocations_of_one_run(&cfg);
    assert_eq!(first, second, "a repeated run allocates exactly as often");
    let per_event = first as f64 / events as f64;
    println!("{first} allocations over {events} events: {per_event:.3} per event");
    assert!(
        per_event <= CEILING_PER_EVENT,
        "{first} allocations over {events} events is {per_event:.3} per event, \
         above the ceiling of {CEILING_PER_EVENT}"
    );
}
