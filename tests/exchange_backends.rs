//! Cross-backend properties of the data-exchange subsystem: every
//! exchange backend must produce byte-identical sorted output for the
//! same input, and every backend must be trace-deterministic — two runs
//! with the same seed export byte-identical traces.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use proptest::collection::vec;
use proptest::prelude::*;

use faaspipe::core::dag::WorkerChoice;
use faaspipe::core::pipeline::{run_methcomp_pipeline, PipelineConfig, PipelineMode};
use faaspipe::des::{Money, Sim};
use faaspipe::exchange::{
    DataExchange, DirectConfig, DirectExchange, ExchangeKind, RelayConfig, ShardedRelayConfig,
    ShardedRelayExchange,
};
use faaspipe::faas::{FaasConfig, FunctionPlatform};
use faaspipe::shuffle::{serverless_sort, SortConfig, SortRecord};
use faaspipe::store::{ObjectStore, StoreConfig};
use faaspipe::trace::{chrome_trace_json, counters_csv, Category};
use faaspipe::vm::VmFleet;

/// Runs the serverless sort through `kind` with the default I/O window
/// and returns the raw bytes of every sorted-run object, in run order.
fn run_bytes(kind: ExchangeKind, values: &[u64], chunks: usize, workers: usize) -> Vec<Bytes> {
    run_bytes_k(
        kind,
        values,
        chunks,
        workers,
        SortConfig::default().io_concurrency,
    )
}

/// [`run_bytes`] with an explicit per-function I/O window.
fn run_bytes_k(
    kind: ExchangeKind,
    values: &[u64],
    chunks: usize,
    workers: usize,
    io_concurrency: usize,
) -> Vec<Bytes> {
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
    let backend: Option<Arc<dyn DataExchange>> = match kind {
        ExchangeKind::Scatter | ExchangeKind::Coalesced => None,
        ExchangeKind::Direct => Some(Arc::new(DirectExchange::new(DirectConfig::default()))),
        ExchangeKind::VmRelay | ExchangeKind::ShardedRelay { .. } => {
            let (shards, prewarm) = kind.relay_shards().expect("a relay backend");
            Some(Arc::new(ShardedRelayExchange::new(
                VmFleet::new(),
                ShardedRelayConfig {
                    relay: RelayConfig::default(),
                    shards,
                    prewarm,
                },
            )))
        }
        ExchangeKind::Auto => {
            unreachable!("auto resolves to a concrete backend before the sort runs")
        }
    };
    let out: Arc<Mutex<Vec<Bytes>>> = Arc::new(Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
    let store2 = Arc::clone(&store);
    sim.spawn("driver", move |mut ctx| async move {
        let ctx = &mut ctx;
        let cfg = SortConfig {
            workers,
            exchange: kind.layout(),
            backend,
            io_concurrency,
            ..SortConfig::default()
        };
        let stats = serverless_sort::<u64>(ctx, &faas, &store2, &cfg)
            .await
            .expect("sort");
        let client = store2.connect(ctx, "verify").await;
        for run in &stats.runs {
            let data = client.get(ctx, "data", run).await.expect("run");
            out2.lock().push(data);
        }
    });
    sim.run().expect("sim ok");
    let v = out.lock().clone();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any input, chunking, and worker count, every backend —
    /// sharded relays included, warm or cold — produces byte-identical
    /// sorted-run objects: the exchange is a pure transport, never a
    /// transform.
    #[test]
    fn all_backends_produce_byte_identical_sorted_output(
        values in vec(any::<u64>(), 1..2_000),
        chunks in 1usize..5,
        workers in 2usize..8,
    ) {
        let reference = run_bytes(ExchangeKind::Scatter, &values, chunks, workers);
        let mut expect = values.clone();
        expect.sort_unstable();
        let decoded: Vec<u64> = reference
            .iter()
            .flat_map(|b| <u64 as SortRecord>::read_all(b).expect("decode"))
            .collect();
        prop_assert_eq!(&decoded, &expect, "scatter output is a sorted permutation");
        for kind in [
            ExchangeKind::Coalesced,
            ExchangeKind::VmRelay,
            ExchangeKind::Direct,
            ExchangeKind::ShardedRelay { shards: 3, prewarm: false },
            ExchangeKind::ShardedRelay { shards: 2, prewarm: true },
        ] {
            let got = run_bytes(kind, &values, chunks, workers);
            prop_assert_eq!(
                &got,
                &reference,
                "{} must match the scatter byte stream",
                kind
            );
        }
    }
}

/// The I/O window is a schedule knob, not a data transform: whatever
/// `io_concurrency` each function runs with — strictly sequential,
/// moderately windowed, or far past saturation — every backend must
/// emit byte-identical sorted runs. Covers the windowed store reads,
/// the chunked mapper downloads, the fan-out exchange writes, and the
/// streaming reduce gather in one sweep.
#[test]
fn io_window_never_changes_output_bytes() {
    let values: Vec<u64> = (0..3_000u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    for kind in [
        ExchangeKind::Scatter,
        ExchangeKind::Coalesced,
        ExchangeKind::VmRelay,
        ExchangeKind::Direct,
        ExchangeKind::ShardedRelay {
            shards: 3,
            prewarm: false,
        },
        ExchangeKind::ShardedRelay {
            shards: 2,
            prewarm: true,
        },
    ] {
        let sequential = run_bytes_k(kind, &values, 4, 4, 1);
        for k in [4usize, 16] {
            let windowed = run_bytes_k(kind, &values, 4, 4, k);
            assert_eq!(
                windowed, sequential,
                "{}: K={} output differs from the sequential data plane",
                kind, k
            );
        }
    }
}

/// Two identically-seeded pipeline runs must export byte-identical
/// traces, whichever exchange backend carries the shuffle — the sharded
/// fleet's hashed routing and background boots included.
#[test]
fn same_seed_runs_are_trace_deterministic_for_every_backend() {
    let kinds = ExchangeKind::ALL.into_iter().chain([
        ExchangeKind::ShardedRelay {
            shards: 4,
            prewarm: false,
        },
        ExchangeKind::ShardedRelay {
            shards: 4,
            prewarm: true,
        },
    ]);
    for kind in kinds {
        let traced = || {
            let mut cfg = PipelineConfig::paper_table1();
            cfg.mode = PipelineMode::PureServerless;
            cfg.physical_records = 15_000;
            cfg.exchange = kind;
            // Pin a parallel data plane: determinism must hold with
            // windowed I/O, not just the sequential fallback.
            cfg.io_concurrency = 4;
            cfg.trace = true;
            run_methcomp_pipeline(&cfg).expect("pipeline ok")
        };
        let a = traced();
        let b = traced();
        assert!(a.verified, "{}: output must verify", kind);
        assert_eq!(
            chrome_trace_json(&a.trace),
            chrome_trace_json(&b.trace),
            "{}: chrome export must be byte-identical",
            kind
        );
        assert_eq!(
            counters_csv(&a.trace),
            counters_csv(&b.trace),
            "{}: counter export must be byte-identical",
            kind
        );
        assert_eq!(a.latency, b.latency, "{}: same-seed latency", kind);
        assert_eq!(a.cost.total(), b.cost.total(), "{}: same-seed cost", kind);
    }
}

/// An end-to-end sharded run provisions (and bills) one VM per shard,
/// and a pre-warmed run is strictly faster than a cold one of the same
/// shape — the boot overlaps the sample phase instead of serializing in
/// front of it.
#[test]
fn sharded_pipeline_bills_every_shard_and_prewarm_is_faster() {
    let run = |prewarm: bool| {
        let mut cfg = PipelineConfig::paper_table1();
        cfg.mode = PipelineMode::PureServerless;
        cfg.physical_records = 15_000;
        cfg.exchange = ExchangeKind::ShardedRelay { shards: 2, prewarm };
        cfg.trace = true;
        run_methcomp_pipeline(&cfg).expect("pipeline ok")
    };
    let cold = run(false);
    let warm = run(true);
    assert!(cold.verified && warm.verified, "both runs verify");
    for outcome in [&cold, &warm] {
        let vms = outcome
            .trace
            .spans
            .iter()
            .filter(|s| s.category == Category::VmTask)
            .count();
        assert_eq!(vms, 2, "one VM task (and billing span) per shard");
    }
    assert!(
        warm.cost.vm > Money::ZERO,
        "shard VM seconds land in the cost report"
    );
    assert!(
        warm.latency < cold.latency,
        "prewarm must hide boot time: warm {:?} vs cold {:?}",
        warm.latency,
        cold.latency
    );
}

/// `vm_relay` is a cold one-shard relay fleet. These Table-1
/// pure-serverless runs (15,000 records) pin its simulated latency,
/// event count and bill to the values the dedicated single-relay
/// backend produced, and `sharded_relay:1` must give the same triple.
///
/// Re-capture (after an *intentional* model change only) with:
/// `FAASPIPE_PRINT_GOLDEN=1 cargo test --release --test exchange_backends vm_relay -- --nocapture`
#[test]
fn vm_relay_is_a_cold_single_shard_relay() {
    // (W, K, latency ns, events, bill in micro-dollars)
    let goldens: [(usize, usize, u64, u64, i64); 3] = [
        (8, 1, 128_480_272_944, 609, 23_959),
        (8, 4, 125_851_523_579, 999, 23_012),
        (32, 4, 106_641_803_295, 8_136, 22_473),
    ];
    let print = std::env::var_os("FAASPIPE_PRINT_GOLDEN").is_some();
    for (workers, k, latency_ns, events, bill) in goldens {
        for kind in [
            ExchangeKind::VmRelay,
            ExchangeKind::ShardedRelay {
                shards: 1,
                prewarm: false,
            },
        ] {
            let mut cfg = PipelineConfig::paper_table1();
            cfg.mode = PipelineMode::PureServerless;
            cfg.physical_records = 15_000;
            cfg.exchange = kind;
            cfg.workers = WorkerChoice::Fixed(workers);
            cfg.io_concurrency = k;
            let out = run_methcomp_pipeline(&cfg).expect("pipeline ok");
            assert!(out.verified, "{} W={} K={} must verify", kind, workers, k);
            let got = (
                out.latency.as_nanos(),
                out.sim.events,
                out.cost.total().as_micros(),
            );
            if print {
                println!("{} W={} K={}: {:?}", kind, workers, k, got);
                continue;
            }
            assert_eq!(
                got,
                (latency_ns, events, bill),
                "{} W={} K={}: (latency ns, events, bill µ$) drifted",
                kind,
                workers,
                k
            );
        }
    }
}
