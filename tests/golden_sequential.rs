//! `io_concurrency = 1` pins the window-of-one schedule: every phase
//! runs its requests on one helper process, one request at a time, and
//! a mapper downloads its assignment as two record-aligned chunks (the
//! ~2·K chunks of every window). These Table-1 pure runs (15,000
//! records) fix its latency to the nanosecond, so any drift in the
//! sequential end of the I/O-window curve is caught.
//!
//! Re-capture only after an *intentional* model change, and write the
//! delta down (EXPERIMENTS.md E17 records the last one).

use faaspipe::core::pipeline::{run_methcomp_pipeline, PipelineConfig, PipelineMode};
use faaspipe::exchange::ExchangeKind;

#[test]
fn window_of_one_latency_matches_its_goldens() {
    for (kind, golden_latency_ns) in [
        (ExchangeKind::Scatter, 84_924_272_945u64),
        (ExchangeKind::Coalesced, 84_728_272_935u64),
    ] {
        let mut cfg = PipelineConfig::paper_table1();
        cfg.mode = PipelineMode::PureServerless;
        cfg.physical_records = 15_000;
        cfg.exchange = kind;
        cfg.io_concurrency = 1;
        cfg.trace = true;
        let out = run_methcomp_pipeline(&cfg).expect("pipeline ok");
        assert!(out.verified, "{}: output verification failed", kind);
        assert_eq!(
            out.latency.as_nanos(),
            golden_latency_ns,
            "{}: K=1 latency drifted from its golden value",
            kind
        );
    }
}
