//! Property-based tests of the shuffle operator: partitioner laws, the
//! end-to-end "sort is a sorted permutation" invariant under random data
//! and worker counts, and agreement between the serverless and VM paths.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use proptest::collection::vec;
use proptest::prelude::*;

use faaspipe::des::{Sim, SimDuration};
use faaspipe::faas::{FaasConfig, FunctionPlatform};
use faaspipe::shuffle::{
    serverless_sort, vm_sort, RangePartitioner, SortConfig, SortRecord, VmSortConfig,
};
use faaspipe::store::{ObjectStore, StoreConfig};
use faaspipe::vm::VmFleet;

proptest! {
    #[test]
    fn partitioner_is_monotone_and_total(
        sample in vec(any::<u64>(), 0..2_000),
        parts in 1usize..64,
        probes in vec(any::<u64>(), 0..500),
    ) {
        let p = RangePartitioner::from_sample(sample, parts);
        prop_assert!(p.parts() >= 1 && p.parts() <= parts);
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        let mut last = 0;
        for k in &sorted {
            let part = p.part(k);
            prop_assert!(part < p.parts());
            prop_assert!(part >= last, "monotone routing");
            last = part;
        }
        // Equal keys always land in the same partition.
        for k in &probes {
            prop_assert_eq!(p.part(k), p.part(k));
        }
    }
}

fn serverless_output(values: &[u64], chunks: usize, workers: usize) -> Vec<u64> {
    let mut sim = Sim::new();
    let store = ObjectStore::install(&mut sim, StoreConfig::default());
    let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
    store.create_bucket("data").expect("bucket");
    let per = values.len().div_ceil(chunks).max(1);
    for (i, chunk) in values.chunks(per).enumerate() {
        store
            .put_untimed(
                "data",
                &format!("in/{:04}", i),
                Bytes::from(SortRecord::write_all(chunk)),
            )
            .expect("stage");
    }
    let out: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
    let store2 = Arc::clone(&store);
    sim.spawn("driver", move |mut ctx| async move {
        let ctx = &mut ctx;
        let cfg = SortConfig {
            workers,
            ..SortConfig::default()
        };
        let stats = serverless_sort::<u64>(ctx, &faas, &store2, &cfg)
            .await
            .expect("sort");
        let client = store2.connect(ctx, "verify").await;
        for run in &stats.runs {
            let data = client.get(ctx, "data", run).await.expect("run");
            out2.lock()
                .extend(<u64 as SortRecord>::read_all(&data).expect("decode"));
        }
    });
    sim.run().expect("sim ok");
    let v = out.lock().clone();
    v
}

fn vm_output(values: &[u64], chunks: usize, runs: usize) -> Vec<u64> {
    let mut sim = Sim::new();
    let store = ObjectStore::install(&mut sim, StoreConfig::default());
    let fleet = VmFleet::new();
    store.create_bucket("data").expect("bucket");
    let per = values.len().div_ceil(chunks).max(1);
    for (i, chunk) in values.chunks(per).enumerate() {
        store
            .put_untimed(
                "data",
                &format!("in/{:04}", i),
                Bytes::from(SortRecord::write_all(chunk)),
            )
            .expect("stage");
    }
    let out: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
    let store2 = Arc::clone(&store);
    sim.spawn("driver", move |mut ctx| async move {
        let ctx = &mut ctx;
        let cfg = VmSortConfig {
            runs,
            ..VmSortConfig::default()
        };
        let stats = vm_sort::<u64>(ctx, &fleet, &store2, &cfg)
            .await
            .expect("sort");
        let client = store2.connect(ctx, "verify").await;
        for run in &stats.runs {
            let data = client.get(ctx, "data", run).await.expect("run");
            out2.lock()
                .extend(<u64 as SortRecord>::read_all(&data).expect("decode"));
        }
    });
    sim.run().expect("sim ok");
    let v = out.lock().clone();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The serverless sort is a *sorted permutation* of its input for any
    /// data, chunking, and worker count.
    #[test]
    fn serverless_sort_is_a_sorted_permutation(
        values in vec(any::<u64>(), 1..3_000),
        chunks in 1usize..6,
        workers in 1usize..10,
    ) {
        let got = serverless_output(&values, chunks, workers);
        let mut expect = values.clone();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// The VM path computes the identical answer.
    #[test]
    fn vm_sort_agrees_with_serverless(
        values in vec(any::<u64>(), 1..2_000),
        chunks in 1usize..4,
    ) {
        let a = serverless_output(&values, chunks, 4);
        let b = vm_output(&values, chunks, 4);
        prop_assert_eq!(a, b);
    }
}

/// Timing sanity under the default model: more workers strictly help a
/// bandwidth-bound shuffle at this size.
#[test]
fn more_workers_reduce_latency_when_bandwidth_bound() {
    fn latency(workers: usize) -> SimDuration {
        let values: Vec<u64> = (0..60_000u64).map(|i| (i * 48_271) % 1_000_003).collect();
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default().with_size_scale(1_000.0));
        let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
        store.create_bucket("data").expect("bucket");
        for (i, chunk) in values.chunks(7_500).enumerate() {
            store
                .put_untimed(
                    "data",
                    &format!("in/{:04}", i),
                    Bytes::from(SortRecord::write_all(chunk)),
                )
                .expect("stage");
        }
        let out: Arc<Mutex<Option<SimDuration>>> = Arc::new(Mutex::new(None));
        let out2 = Arc::clone(&out);
        let store2 = Arc::clone(&store);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let cfg = SortConfig {
                workers,
                work: faaspipe::shuffle::WorkModel::default().with_size_scale(1_000.0),
                ..SortConfig::default()
            };
            let stats = serverless_sort::<u64>(ctx, &faas, &store2, &cfg)
                .await
                .expect("sort");
            *out2.lock() = Some(stats.total_duration());
        });
        sim.run().expect("sim ok");
        let d = out.lock().take().expect("ran");
        d
    }
    let two = latency(2);
    let eight = latency(8);
    assert!(
        eight < two,
        "8 workers ({}) must beat 2 workers ({}) on a bandwidth-bound shuffle",
        eight,
        two
    );
}
