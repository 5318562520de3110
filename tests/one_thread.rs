//! No simulation starts an OS thread: every process and every kernel runs
//! on the thread that calls `Sim::run`.
//!
//! A Table-1-sized pipeline (W=8 over 150,000 records, so each sort,
//! merge and encode kernel reads about 430 KB) and a W=256 fan-out
//! (kernels of a few hundred bytes) each run beside a sampler process
//! that reads the process's `Threads:` count every simulated 100 ms until
//! the pipeline finishes. Every reading must equal the count before the
//! run.
//!
//! This binary holds this one test, so no other test's harness thread
//! starts or exits while it samples.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;

use faaspipe::core::executor::{Executor, Services};
use faaspipe::core::spec::PipelineSpec;
use faaspipe::core::tracker::Tracker;
use faaspipe::des::{Sim, SimDuration};
use faaspipe::faas::{FaasConfig, FunctionPlatform};
use faaspipe::methcomp::synth::Synthesizer;
use faaspipe::shuffle::{SortRecord, WorkModel};
use faaspipe::store::{ObjectStore, StoreConfig};
use faaspipe::vm::VmFleet;

/// Current `Threads:` count of this process, from /proc/self/status.
/// `None` off-Linux, where the check degrades to a no-op.
fn host_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// What one sampled run saw.
struct Sampled {
    /// `Threads:` just before `Sim::run`.
    before: Option<usize>,
    /// `Threads:` at every sample taken during the run.
    during: Vec<Option<usize>>,
    /// Size of the smallest sorted run, the input of one merge and one
    /// encode kernel.
    smallest_run: usize,
}

/// Sorts (coalesced exchange) and encodes `records` synthetic records
/// with `workers` functions per stage, sampling the thread count while
/// the simulation runs.
fn sampled_run(workers: usize, records: usize) -> Sampled {
    let spec = format!(
        r#"{{"name": "one-thread", "bucket": "data", "stages": [
            {{ "name": "sort", "kind": "shuffle_sort", "workers": {workers},
               "exchange": "coalesced", "input": "in/", "output": "sorted/" }},
            {{ "name": "encode", "kind": "encode", "codec": "methcomp",
               "workers": {workers}, "input": "sorted/", "output": "enc/",
               "deps": ["sort"] }} ]}}"#
    );
    let dag = PipelineSpec::from_json(&spec)
        .expect("parse")
        .to_dag()
        .expect("dag");
    let mut sim = Sim::new();
    let store = ObjectStore::install(&mut sim, StoreConfig::default());
    let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
    store.create_bucket("data").expect("bucket");
    let dataset = Synthesizer::new(7).generate_shuffled(records);
    for (i, chunk) in dataset.records.chunks(records / workers).enumerate() {
        store
            .put_untimed(
                "data",
                &format!("in/{:04}", i),
                Bytes::from(SortRecord::write_all(chunk)),
            )
            .expect("stage input");
    }
    let executor = Executor::new(
        Services {
            store: store.clone(),
            faas,
            fleet: VmFleet::new(),
        },
        WorkModel::default(),
        Tracker::new(),
    );
    let handle = executor.spawn_dag(&mut sim, &dag);
    let root = handle.root;
    let done = Rc::new(Cell::new(false));
    let during = Rc::new(RefCell::new(Vec::new()));
    let watch_done = Rc::clone(&done);
    sim.spawn("dag-watch", move |ctx| async move {
        let _ = ctx.join(root).await;
        watch_done.set(true);
    });
    let samples = Rc::clone(&during);
    sim.spawn("thread-sampler", move |ctx| async move {
        while !done.get() {
            samples.borrow_mut().push(host_threads());
            ctx.sleep(SimDuration::from_millis(100)).await;
        }
    });
    let before = host_threads();
    sim.run().expect("sim");
    handle.ok_results().expect("stages ok");
    let smallest_run = store
        .keys_untimed("data", "sorted/")
        .iter()
        .map(|key| store.peek("data", key).expect("run").len())
        .min()
        .expect("sorted runs");
    let during = during.take();
    Sampled {
        before,
        during,
        smallest_run,
    }
}

#[test]
fn pipeline_runs_leave_the_thread_count_unchanged() {
    for (workers, records, kernel_floor) in [(8, 150_000, 400_000), (256, 2_000, 0)] {
        let run = sampled_run(workers, records);
        assert!(
            run.smallest_run >= kernel_floor,
            "W={workers}: a {} B run is below the {kernel_floor} B kernel floor",
            run.smallest_run
        );
        assert!(
            run.during.len() > 10,
            "W={workers}: only {} samples",
            run.during.len()
        );
        for reading in &run.during {
            assert_eq!(
                *reading, run.before,
                "W={workers}: the thread count changed while the simulation ran"
            );
        }
    }
}
