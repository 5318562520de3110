//! Pins the simulator's host heap allocations per simulated event.
//!
//! A counting global allocator wraps the system allocator for this test
//! binary only. It counts allocations and reallocations made by the
//! calling thread, so the test harness's own threads do not disturb the
//! count. A simulation runs every process and kernel on the thread that
//! calls it, so that count holds all of a run's allocations.

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

/// Allocations per simulated event above which the `fanout` run fails.
/// The control-plane-heavy run below makes 1.26 (23,841 allocations and
/// reallocations over 18,954 events); before the simulator stopped
/// allocating per store request and per process name it made 4.54.
const FANOUT_CEILING_PER_EVENT: f64 = 1.35;

/// Allocations per simulated event above which the `sharded_relay` run
/// fails. It makes 0.57 (4,503 over 7,901 events); while every windowed
/// relay job cloned its shard (three strings plus the fleet's scope
/// string) it made 1.35 (10,645).
const SHARDED_RELAY_CEILING_PER_EVENT: f64 = 0.62;

/// Allocations made by one pipeline run on this thread, and its events.
fn allocations_of_one_run(cfg: &PipelineConfig) -> (u64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let outcome = run_methcomp_pipeline(cfg).expect("pipeline runs");
    (ALLOCATIONS.with(Cell::get) - before, outcome.sim.events)
}

/// Runs `cfg` three times (the first pays one-time lazy initialisation),
/// checks the last two allocate equally often, and fails above
/// `ceiling` allocations per event.
fn check_allocations_per_event(label: &str, cfg: &PipelineConfig, ceiling: f64) {
    allocations_of_one_run(cfg);
    let (first, events) = allocations_of_one_run(cfg);
    let (second, _) = allocations_of_one_run(cfg);
    assert_eq!(
        first, second,
        "{label}: a repeated run allocates exactly as often"
    );
    let per_event = first as f64 / events as f64;
    println!("{label}: {first} allocations over {events} events: {per_event:.3} per event");
    assert!(
        per_event <= ceiling,
        "{label}: {first} allocations over {events} events is {per_event:.3} per event, \
         above the ceiling of {ceiling}"
    );
}

/// A small pipeline: 2,000 records over `workers` functions, I/O window 4.
fn small_pipeline(workers: usize, exchange: ExchangeKind) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.physical_records = 2_000;
    cfg.workers = WorkerChoice::Fixed(workers);
    cfg.exchange = exchange;
    cfg.io_concurrency = 4;
    cfg
}

#[test]
fn allocations_per_event_stay_under_the_ceiling() {
    // A small `fanout`: many functions, few records each.
    let cfg = small_pipeline(256, ExchangeKind::Coalesced);
    check_allocations_per_event("fanout", &cfg, FANOUT_CEILING_PER_EVENT);
}

#[test]
fn sharded_relay_allocations_per_event_stay_under_the_ceiling() {
    // The relay path `cluster` runs: two pre-warmed relay VMs, windowed
    // puts and gets.
    let cfg = small_pipeline(
        32,
        ExchangeKind::ShardedRelay {
            shards: 2,
            prewarm: true,
        },
    );
    check_allocations_per_event("sharded_relay", &cfg, SHARDED_RELAY_CEILING_PER_EVENT);
}
