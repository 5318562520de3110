//! Bit-identity pins for the O(active)-free flow network (PR 9).
//!
//! The flow-network rewrite (incremental bottleneck search, indexed
//! completions, link-membership lists) and the coalesced-exchange
//! restructuring (sparse offsets, empty-fetch elision) are host-side
//! optimisations only: same seed ⇒ byte-identical virtual time, event
//! counts, and trace exports. These goldens pin the BENCH_host
//! trajectory itself — the coalesced pure-serverless sort at W ∈
//! {64, 256, 1024} traced, and at W ∈ {4096, 8192, 16384} untraced —
//! which the `pooled_determinism` suite (scatter / relay modes) does not
//! cover, and `bench_sim_wallclock`'s cluster row. Every row pins the
//! values `bench_sim_wallclock --check` compares with
//! `results/BENCH_host.json`: virtual latency, events and peak live
//! processes.
//!
//! The constants were captured from the tree immediately before the
//! flow-network rewrite landed. Re-capture (after an *intentional*
//! model change only) with:
//! `FAASPIPE_PRINT_GOLDEN=1 cargo test --release --test flow_scale_goldens -- --nocapture`

use faaspipe::cluster::{run_cluster, ArrivalProcess, ClusterConfig, TenantSpec};
use faaspipe::codec::checksum::Crc32;
use faaspipe::core::dag::WorkerChoice;
use faaspipe::core::pipeline::{run_methcomp_pipeline, PipelineConfig, PipelineMode};
use faaspipe::des::{SimDuration, SimReport};
use faaspipe::shuffle::ExchangeKind;
use faaspipe::trace::chrome_trace_json;

fn print_golden() -> bool {
    std::env::var("FAASPIPE_PRINT_GOLDEN").is_ok()
}

/// `(latency ns, events, peak live processes)` of one run.
type Digest = (u64, u64, usize);

fn digest(latency: SimDuration, sim: &SimReport) -> Digest {
    (latency.as_nanos(), sim.events, sim.peak_live_processes)
}

/// One BENCH_host-shaped run, the coalesced pure-serverless sort of
/// 8,000 records at W = `workers`: its digest, and the crc32 of its
/// trace export (0 untraced). The trace crc folds every span the run
/// emitted, so any drift in virtual-time trajectory, pid assignment, or
/// span attribution shows up there.
fn coalesced_digest(workers: usize, trace: bool) -> (Digest, u32) {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.mode = PipelineMode::PureServerless;
    cfg.physical_records = 8_000;
    cfg.workers = WorkerChoice::Fixed(workers);
    cfg.exchange = ExchangeKind::Coalesced;
    cfg.trace = trace;
    let out = run_methcomp_pipeline(&cfg).expect("pipeline ok");
    assert!(out.verified, "W={} run must verify", workers);
    let crc = if trace {
        let mut crc = Crc32::new();
        crc.update(chrome_trace_json(&out.trace).as_bytes());
        crc.finish()
    } else {
        0
    };
    (digest(out.latency, &out.sim), crc)
}

fn check_digest(row: &str, got: Digest, golden: Digest) {
    if print_golden() {
        println!(
            "GOLDEN {}: latency_ns={} events={} peak_live={}",
            row, got.0, got.1, got.2
        );
        return;
    }
    assert_eq!(got.0, golden.0, "{} sim latency drifted", row);
    assert_eq!(got.1, golden.1, "{} event count drifted", row);
    assert_eq!(got.2, golden.2, "{} peak live processes drifted", row);
}

/// A traced coalesced row: its digest and its trace bytes.
fn check(workers: usize, golden: Digest, golden_crc: u32) {
    let (got, crc) = coalesced_digest(workers, true);
    let row = format!("coalesced W={}", workers);
    check_digest(&row, got, golden);
    if print_golden() {
        println!("GOLDEN {}: trace_crc=0x{:08X}", row, crc);
        return;
    }
    assert_eq!(crc, golden_crc, "{} trace bytes drifted", row);
}

/// An untraced coalesced row, as `bench_sim_wallclock` runs it.
fn check_untraced(workers: usize, golden: Digest) {
    let (got, _) = coalesced_digest(workers, false);
    check_digest(&format!("coalesced W={} untraced", workers), got, golden);
}

#[test]
fn coalesced_w64_matches_pre_rewrite_goldens() {
    check(
        64,
        (
            GOLDEN_W64_LATENCY_NS,
            GOLDEN_W64_EVENTS,
            GOLDEN_W64_PEAK_LIVE,
        ),
        GOLDEN_W64_TRACE_CRC,
    );
}

#[test]
fn coalesced_w256_matches_pre_rewrite_goldens() {
    check(
        256,
        (
            GOLDEN_W256_LATENCY_NS,
            GOLDEN_W256_EVENTS,
            GOLDEN_W256_PEAK_LIVE,
        ),
        GOLDEN_W256_TRACE_CRC,
    );
}

#[test]
fn coalesced_w1024_matches_pre_rewrite_goldens() {
    check(
        1024,
        (
            GOLDEN_W1024_LATENCY_NS,
            GOLDEN_W1024_EVENTS,
            GOLDEN_W1024_PEAK_LIVE,
        ),
        GOLDEN_W1024_TRACE_CRC,
    );
}

#[test]
fn coalesced_w4096_untraced_matches_bench_host() {
    check_untraced(4096, GOLDEN_W4096);
}

#[test]
fn coalesced_w8192_untraced_matches_bench_host() {
    check_untraced(8192, GOLDEN_W8192);
}

#[test]
fn coalesced_w16384_untraced_matches_bench_host() {
    check_untraced(16384, GOLDEN_W16384);
}

/// `bench_sim_wallclock`'s untraced cluster row: four Table-1-shaped
/// tenants fed by Poisson arrivals at 0.05/s over 240 s, 4,000 records a
/// run, the default seed. The latency is the makespan.
#[test]
fn cluster_row_matches_bench_host() {
    let tenants = (0..4).map(|i| TenantSpec::new(format!("t{}", i))).collect();
    let arrivals = ArrivalProcess::Poisson {
        rate_per_sec: 0.05,
        horizon: SimDuration::from_secs(240),
    };
    let mut cfg = ClusterConfig::new(tenants, arrivals);
    cfg.physical_records = 4_000;
    let report = run_cluster(&cfg).expect("cluster run");
    assert_eq!(report.failed, 0, "every cluster run completes");
    check_digest(
        "cluster",
        digest(report.makespan, &report.sim),
        GOLDEN_CLUSTER,
    );
}

const GOLDEN_W64_LATENCY_NS: u64 = 58_488_927_061;
const GOLDEN_W64_EVENTS: u64 = 14_311;
const GOLDEN_W64_PEAK_LIVE: usize = 323;
const GOLDEN_W64_TRACE_CRC: u32 = 0xB462_75BA;
const GOLDEN_W256_LATENCY_NS: u64 = 58_600_069_029;
const GOLDEN_W256_EVENTS: u64 = 43_169;
const GOLDEN_W256_PEAK_LIVE: usize = 1_283;
const GOLDEN_W256_TRACE_CRC: u32 = 0x1B81_EA7B;
const GOLDEN_W1024_LATENCY_NS: u64 = 65_987_114_080;
const GOLDEN_W1024_EVENTS: u64 = 111_327;
const GOLDEN_W1024_PEAK_LIVE: usize = 5_027;
const GOLDEN_W1024_TRACE_CRC: u32 = 0x9003_F2B7;
const GOLDEN_W4096: Digest = (90_907_446_697, 212_769, 8_099);
const GOLDEN_W8192: Digest = (123_797_072_102, 336_480, 12_195);
const GOLDEN_W16384: Digest = (189_853_188_667, 598_624, 20_387);
const GOLDEN_CLUSTER: Digest = (280_265_823_802, 14_305, 249);
