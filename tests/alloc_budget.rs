//! Pins the simulator's host heap allocations per simulated event, and
//! the high-water mark of the heap bytes a cluster run holds.
//!
//! A counting global allocator wraps the system allocator for this test
//! binary only. It counts allocations and reallocations made by the
//! calling thread, and the bytes that thread holds live and their peak,
//! so the test harness's own threads do not disturb the counts. A
//! simulation runs every process and kernel on the thread that calls it,
//! so those counts hold all of a run's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use faaspipe::cluster::{run_cluster, Arrival, ArrivalProcess, ClusterConfig, TenantSpec};
use faaspipe::core::{run_methcomp_pipeline, PipelineConfig, WorkerChoice};
use faaspipe::des::SimTime;
use faaspipe::exchange::ExchangeKind;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread. Signed: a thread
    /// may free what another one allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since a measurement last set it to `LIVE`.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Books one allocation or reallocation that changes the live bytes by
/// `delta`.
fn count(delta: i64) {
    // `try_with`: a thread being torn down has no counters left.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    grow(delta);
}

/// Changes this thread's live bytes by `delta`, raising their peak.
fn grow(delta: i64) {
    let Ok(live) = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        live.get()
    }) else {
        return;
    };
    let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live)));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations per simulated event above which the `fanout` run fails.
/// The control-plane-heavy run below makes 1.21 (22,842 allocations and
/// reallocations over 18,954 events); before the simulator stopped
/// allocating per store request and per process name it made 4.54.
const FANOUT_CEILING_PER_EVENT: f64 = 1.35;

/// Allocations per simulated event above which the `sharded_relay` run
/// fails. It makes 0.52 (4,088 over 7,901 events); while every windowed
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

/// Live heap bytes above which the 32-run `cluster` below fails at its
/// peak. It peaks at 605,324 bytes (0.58 MiB) above what the thread held
/// before the run. While the simulator kept a slot for every process and
/// a link for every store connection ever made, it peaked at 2,481,343
/// bytes (2.37 MiB); while every run's bucket (inputs, sorted runs and
/// archives) also stayed in the store until the cluster ended, at
/// 7,297,635 bytes (6.96 MiB).
const CLUSTER_PEAK_CEILING_BYTES: i64 = 635_000;

/// Bytes by which the `cluster` peak may grow per earlier run. It grows
/// by 11,370 (423,390 bytes with 16 runs): each run cold-starts its 32
/// functions, whose NIC links stay for the whole simulation, and leaves
/// its invocation records, its functions' CPU semaphores and its store
/// metrics tags behind. While every process slot and connection link
/// stayed too, it grew by 70 kB.
const CLUSTER_GROWTH_PER_RUN_BYTES: i64 = 12_000;

/// The highest live heap bytes of one cluster run on this thread, above
/// what the thread held when the run began.
fn peak_live_bytes_of_one_run(cfg: &ClusterConfig) -> i64 {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let report = run_cluster(cfg).expect("cluster runs");
    assert_eq!(report.completed, report.submitted, "every run completes");
    PEAK.with(Cell::get) - before
}

/// One tenant, `runs` verified runs of 2,000 records, 1,000 s apart: the
/// runs never overlap, so the peak is one run's live data plus what the
/// cluster keeps of the runs before it.
fn one_tenant_cluster(runs: u64) -> ClusterConfig {
    let arrivals = (0..runs)
        .map(|i| Arrival {
            at: SimTime::from_nanos(i * 1_000_000_000_000),
            tenant: 0,
        })
        .collect();
    let tenant = TenantSpec::new("t0");
    let mut cfg = ClusterConfig::new(vec![tenant], ArrivalProcess::Trace(arrivals));
    cfg.physical_records = 2_000;
    cfg.verify = true;
    cfg
}

/// The peak of a `runs`-run [`one_tenant_cluster`], after a warm-up run,
/// checked to repeat exactly.
fn cluster_peak(runs: u64) -> i64 {
    let cfg = one_tenant_cluster(runs);
    peak_live_bytes_of_one_run(&cfg);
    let first = peak_live_bytes_of_one_run(&cfg);
    let second = peak_live_bytes_of_one_run(&cfg);
    assert_eq!(first, second, "a repeated run reaches the same peak");
    println!(
        "cluster, {runs} runs: peak {first} live bytes ({:.2} MiB)",
        first as f64 / (1024.0 * 1024.0)
    );
    first
}

#[test]
fn cluster_peak_live_bytes_stay_under_the_ceiling() {
    let peak = cluster_peak(32);
    let half = cluster_peak(16);
    assert!(
        peak <= CLUSTER_PEAK_CEILING_BYTES,
        "cluster: peak of {peak} live bytes is above the ceiling of \
         {CLUSTER_PEAK_CEILING_BYTES}"
    );
    let per_run = (peak - half) / 16;
    println!("cluster: {per_run} live bytes more per earlier run");
    assert!(
        per_run <= CLUSTER_GROWTH_PER_RUN_BYTES,
        "cluster: the peak grows by {per_run} bytes per earlier run, above \
         {CLUSTER_GROWTH_PER_RUN_BYTES}"
    );
}
