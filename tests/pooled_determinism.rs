//! Cross-layer determinism suite for the pooled DES scheduler and the
//! zero-copy shuffle kernels.
//!
//! The golden constants below were captured from the tree immediately
//! before the parked worker pool and the wire-record kernels landed
//! (thread-per-process scheduler, decode-then-sort data plane). The
//! pooled scheduler and the zero-copy kernels are host-side rewrites
//! only: same seed ⇒ the same virtual-time trajectory, byte-identical
//! trace exports, and byte-identical sorted-run objects. Any drift here
//! means host execution leaked into simulation outcomes.
//!
//! The fault-injected sort (`examples/failure_injection.rs` at a 5 %
//! error rate) is pinned here too: every injected failure is drawn from
//! a pid-seeded random stream, so a change to how pids are handed out
//! moves its latency, event count and failure count.
//!
//! Re-capture (after an *intentional* model change only) with:
//! `FAASPIPE_PRINT_GOLDEN=1 cargo test --release --test pooled_determinism -- --nocapture`

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use faaspipe::codec::checksum::Crc32;
use faaspipe::core::pipeline::{run_methcomp_pipeline, PipelineConfig, PipelineMode};
use faaspipe::des::{Ctx, Sim};
use faaspipe::exchange::{DataExchange, RelayConfig, ShardedRelayConfig, ShardedRelayExchange};
use faaspipe::faas::{FaasConfig, FunctionPlatform};
use faaspipe::shuffle::{serverless_sort, with_retry, SortConfig, SortRecord};
use faaspipe::store::{FailurePolicy, ObjectStore, StoreConfig};
use faaspipe::trace::chrome_trace_json;
use faaspipe::vm::VmFleet;

fn print_golden() -> bool {
    std::env::var("FAASPIPE_PRINT_GOLDEN").is_ok()
}

/// Digest of a traced Table-1 pipeline run: `(latency ns, trace crc32)`.
fn table1_digest(mode: PipelineMode) -> (u64, u32) {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.mode = mode;
    cfg.physical_records = 15_000;
    cfg.trace = true;
    let out = run_methcomp_pipeline(&cfg).expect("pipeline ok");
    assert!(out.verified, "{:?} must verify", mode);
    let mut crc = Crc32::new();
    crc.update(chrome_trace_json(&out.trace).as_bytes());
    (out.latency.as_nanos(), crc.finish())
}

/// Digest of E16's worst case at the sort level: W=128 through a
/// pre-warmed 8-shard relay fleet. Returns `(end ns, events, runs crc32)`
/// where the crc folds every sorted-run object *and its length*, so run
/// boundaries are pinned, not just the concatenation.
fn e16_worst_digest() -> (u64, u64, u32) {
    let values: Vec<u64> = (0..40_000u64)
        .map(|i| (i.wrapping_mul(2_654_435_761)) % 10_000_000)
        .collect();
    let mut sim = Sim::new();
    let store = ObjectStore::install(&mut sim, StoreConfig::default());
    let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
    store.create_bucket("data").expect("bucket");
    for (i, chunk) in values.chunks(values.len().div_ceil(16)).enumerate() {
        store
            .put_untimed(
                "data",
                &format!("in/{:04}", i),
                Bytes::from(SortRecord::write_all(chunk)),
            )
            .expect("stage");
    }
    let backend: Arc<dyn DataExchange> = Arc::new(ShardedRelayExchange::new(
        VmFleet::new(),
        ShardedRelayConfig {
            relay: RelayConfig::default(),
            shards: 8,
            prewarm: true,
        },
    ));
    let out: Arc<Mutex<Vec<Bytes>>> = Arc::new(Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
    let store2 = Arc::clone(&store);
    sim.spawn("driver", move |mut ctx| async move {
        let ctx = &mut ctx;
        let cfg = SortConfig {
            workers: 128,
            backend: Some(backend),
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
    let report = sim.run().expect("sim ok");
    let runs = out.lock().clone();
    assert_eq!(runs.len(), 128);
    let mut crc = Crc32::new();
    for run in &runs {
        crc.update(&(run.len() as u64).to_le_bytes());
        crc.update(run);
    }
    (report.end_time.as_nanos(), report.events, crc.finish())
}

/// Digest of `examples/failure_injection.rs`'s run at `error_rate`: an
/// 8-worker sort of 40,000 records with 10 retries against a store that
/// fails requests at that rate, then a verified read-back of every run.
/// Returns `(sort latency ns, events, injected failures)`.
fn failure_injection_digest(error_rate: f64) -> (u64, u64, u64) {
    let mut sim = Sim::new();
    let store_cfg = StoreConfig::default().with_failure(FailurePolicy::with_error_rate(error_rate));
    let store = ObjectStore::install(&mut sim, store_cfg);
    let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
    store.create_bucket("data").expect("bucket");
    let values: Vec<u64> = (0..40_000u64)
        .map(|i| (i * 2_654_435_761) % 10_000_000)
        .collect();
    for (i, chunk) in values.chunks(10_000).enumerate() {
        store
            .put_untimed(
                "data",
                &format!("in/{:04}", i),
                Bytes::from(SortRecord::write_all(chunk)),
            )
            .expect("stage");
    }
    let latency = Arc::new(Mutex::new(None));
    let latency2 = Arc::clone(&latency);
    let store2 = Arc::clone(&store);
    sim.spawn("driver", move |mut ctx| async move {
        let ctx = &mut ctx;
        let cfg = SortConfig {
            workers: 8,
            retries: 10,
            ..SortConfig::default()
        };
        let stats = serverless_sort::<u64>(ctx, &faas, &store2, &cfg)
            .await
            .expect("sort survives injected faults");
        let client = store2.connect(ctx, "verify").await;
        let mut all = Vec::new();
        for run in &stats.runs {
            let data = with_retry(ctx, 10, async |c: &mut Ctx| {
                client.get(c, "data", run).await
            })
            .await
            .expect("run readable");
            let records: Vec<u64> = SortRecord::read_all(&data).expect("decode");
            all.extend(records);
        }
        assert!(all.windows(2).all(|w| w[0] <= w[1]), "globally sorted");
        assert_eq!(all.len(), 40_000);
        *latency2.lock() = Some(stats.total_duration());
    });
    let report = sim.run().expect("sim ok");
    let latency = latency.lock().take().expect("driver ran");
    (
        latency.as_nanos(),
        report.events,
        store.metrics().total().errors,
    )
}

#[test]
fn table1_pure_matches_pre_pool_golden_digests() {
    let (latency, trace_crc) = table1_digest(PipelineMode::PureServerless);
    if print_golden() {
        println!(
            "GOLDEN table1 pure: latency_ns={} trace_crc=0x{:08X}",
            latency, trace_crc
        );
        return;
    }
    assert_eq!(latency, GOLDEN_PURE_LATENCY_NS, "pure latency drifted");
    assert_eq!(trace_crc, GOLDEN_PURE_TRACE_CRC, "pure trace bytes drifted");
}

#[test]
fn table1_hybrid_matches_pre_pool_golden_digests() {
    let (latency, trace_crc) = table1_digest(PipelineMode::VmHybrid);
    if print_golden() {
        println!(
            "GOLDEN table1 hybrid: latency_ns={} trace_crc=0x{:08X}",
            latency, trace_crc
        );
        return;
    }
    assert_eq!(latency, GOLDEN_HYBRID_LATENCY_NS, "hybrid latency drifted");
    assert_eq!(
        trace_crc, GOLDEN_HYBRID_TRACE_CRC,
        "hybrid trace bytes drifted"
    );
}

#[test]
fn e16_worst_case_matches_pre_pool_golden_digests() {
    let (end_ns, events, runs_crc) = e16_worst_digest();
    if print_golden() {
        println!(
            "GOLDEN e16 worst: end_ns={} events={} runs_crc=0x{:08X}",
            end_ns, events, runs_crc
        );
        return;
    }
    assert_eq!(end_ns, GOLDEN_E16_END_NS, "E16 end time drifted");
    assert_eq!(events, GOLDEN_E16_EVENTS, "E16 event count drifted");
    assert_eq!(
        runs_crc, GOLDEN_E16_RUNS_CRC,
        "E16 sorted-run bytes drifted"
    );
}

#[test]
fn fault_injected_sort_matches_its_golden_digest() {
    let (latency, events, failures) = failure_injection_digest(0.05);
    if print_golden() {
        println!(
            "GOLDEN failure injection 0.05: latency_ns={} events={} failures={}",
            latency, events, failures
        );
        return;
    }
    assert_eq!(
        latency, GOLDEN_FAULTS_LATENCY_NS,
        "fault-injected latency drifted"
    );
    assert_eq!(
        events, GOLDEN_FAULTS_EVENTS,
        "fault-injected event count drifted"
    );
    assert_eq!(
        failures, GOLDEN_FAULTS_INJECTED,
        "injected failure count drifted"
    );
}

const GOLDEN_PURE_LATENCY_NS: u64 = 81_903_523_580;
const GOLDEN_PURE_TRACE_CRC: u32 = 0x1A76_939B;
const GOLDEN_HYBRID_LATENCY_NS: u64 = 147_367_241_163;
const GOLDEN_HYBRID_TRACE_CRC: u32 = 0x5744_349C;
const GOLDEN_E16_END_NS: u64 = 48_291_304_023;
const GOLDEN_E16_EVENTS: u64 = 97_432;
const GOLDEN_E16_RUNS_CRC: u32 = 0x3810_DC00;
const GOLDEN_FAULTS_LATENCY_NS: u64 = 1_910_183_765;
const GOLDEN_FAULTS_EVENTS: u64 = 886;
const GOLDEN_FAULTS_INJECTED: u64 = 6;
