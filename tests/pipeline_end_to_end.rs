//! Cross-crate integration tests: the full METHCOMP pipeline through the
//! public API, both Figure-1 incarnations, driven natively and from JSON
//! specs.

use faaspipe::core::pipeline::{
    run_methcomp_pipeline, run_pipeline, PipelineConfig, PipelineMode, PipelineOutcome,
};
use faaspipe::core::spec::PipelineSpec;
use faaspipe::core::WorkerChoice;
use faaspipe::des::Money;
use faaspipe::methcomp::MethRecord;
use faaspipe::shuffle::SortRecord;

fn quick(mode: PipelineMode) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.mode = mode;
    cfg.physical_records = 15_000;
    cfg
}

#[test]
fn table1_shape_holds_end_to_end() {
    let pure = run_methcomp_pipeline(&quick(PipelineMode::PureServerless)).expect("pure");
    let hybrid = run_methcomp_pipeline(&quick(PipelineMode::VmHybrid)).expect("hybrid");
    // The paper's headline: serverless wins clearly on latency, costs are
    // the same order of magnitude with the VM slightly more expensive.
    assert!(pure.latency.as_secs_f64() * 1.4 < hybrid.latency.as_secs_f64());
    assert!(pure.cost.total() < hybrid.cost.total());
    assert!(hybrid.cost.total() < pure.cost.total() * 3);
    assert!(pure.verified && hybrid.verified);
}

#[test]
fn outputs_decode_to_the_sorted_input_via_public_codec() {
    let cfg = quick(PipelineMode::PureServerless);
    let outcome = run_methcomp_pipeline(&cfg).expect("pipeline");
    assert!(outcome.verified);
    assert!(outcome.compression_ratio_text > 10.0);
    assert!(outcome.modeled_output_bytes < outcome.modeled_input_bytes / 4);
}

#[test]
fn autotuned_pipeline_runs() {
    let mut cfg = quick(PipelineMode::PureServerless);
    cfg.workers = WorkerChoice::Auto;
    let outcome = run_methcomp_pipeline(&cfg).expect("pipeline");
    assert!(outcome.verified);
    assert!(outcome.sort_workers >= 1);
    // The planner picks W with the stage's backend and window pinned.
    assert!(
        outcome.tracker_log.contains("planner picked W="),
        "{}",
        outcome.tracker_log
    );
    assert!(outcome.tracker_log.contains("K=4, scatter"));
}

#[test]
fn identical_configs_are_bit_identical() {
    let a = run_methcomp_pipeline(&quick(PipelineMode::VmHybrid)).expect("a");
    let b = run_methcomp_pipeline(&quick(PipelineMode::VmHybrid)).expect("b");
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.cost.total(), b.cost.total());
    assert_eq!(a.tracker_log, b.tracker_log);
}

/// Runs `spec` through [`run_pipeline`] with verification on:
/// `records` synthesized records from `seed`, staged in 2,000-record
/// chunks, at size scale 1 (the modelled bytes are the physical ones).
/// Verification checks that the sorted runs concatenate to the sorted
/// input and that each run's archive decodes back to it.
fn run_spec(spec: &str, records: usize, seed: u64) -> PipelineOutcome {
    let dag = PipelineSpec::from_json(spec)
        .expect("parse")
        .to_dag()
        .expect("dag");
    let mut cfg = PipelineConfig::paper_table1();
    cfg.physical_records = records;
    cfg.parallelism = records / 2_000;
    cfg.modeled_bytes = (records * MethRecord::WIRE_SIZE) as u64;
    cfg.seed = seed;
    let outcome = run_pipeline(&cfg, &dag).expect("stages ok and outputs verify");
    assert!(outcome.verified);
    assert_eq!(outcome.stages.len(), 2);
    // The cost report is itemized per stage, named from the spec.
    assert!(outcome.cost.by_stage.contains_key("sort"));
    assert!(outcome.cost.by_stage.contains_key("encode"));
    assert!(outcome.cost.total() > Money::ZERO);
    outcome
}

#[test]
fn json_spec_drives_the_same_pipeline() {
    const SPEC: &str = r#"{
        "name": "methcomp-from-json",
        "bucket": "data",
        "stages": [
            { "name": "sort", "kind": "shuffle_sort", "workers": 4,
              "input": "in/", "output": "sorted/" },
            { "name": "encode", "kind": "encode", "codec": "methcomp",
              "workers": 4, "input": "sorted/", "output": "enc/",
              "deps": ["sort"] }
        ]
    }"#;
    run_spec(SPEC, 8_000, 99);
}

/// The JSON Figure-1 specs the `methcomp_pipeline` example runs and the
/// built-in Figure-1 pipeline are one run: the same latency, bill and
/// event count, and both verify.
#[test]
fn json_figure1_specs_and_the_builtin_pipeline_are_one_run() {
    for (mode, json) in [
        (
            PipelineMode::PureServerless,
            include_str!("../examples/methcomp-serverless.json"),
        ),
        (
            PipelineMode::VmHybrid,
            include_str!("../examples/methcomp-hybrid.json"),
        ),
    ] {
        let cfg = quick(mode);
        let dag = PipelineSpec::from_json(json)
            .expect("parse")
            .to_dag()
            .expect("dag");
        let spec = run_pipeline(&cfg, &dag).expect("spec run");
        let builtin = run_methcomp_pipeline(&cfg).expect("built-in run");
        assert!(spec.verified && builtin.verified, "{mode}");
        assert_eq!(spec.mode, mode);
        assert_eq!(
            spec.latency.as_nanos(),
            builtin.latency.as_nanos(),
            "{mode}"
        );
        assert_eq!(spec.cost.total(), builtin.cost.total(), "{mode}");
        assert_eq!(spec.sim.events, builtin.sim.events, "{mode}");
    }
}

#[test]
fn gzip_encode_pipeline_spec_also_runs() {
    const SPEC: &str = r#"{
        "name": "gzip-baseline",
        "bucket": "data",
        "stages": [
            { "name": "sort", "kind": "shuffle_sort", "workers": 2,
              "input": "in/", "output": "sorted/" },
            { "name": "encode", "kind": "encode", "codec": "gzipish",
              "workers": 2, "input": "sorted/", "output": "enc/",
              "deps": ["sort"] }
        ]
    }"#;
    // The gzipish archives decompress to the sorted runs' text.
    let outcome = run_spec(SPEC, 4_000, 5);
    assert!(outcome.compression_ratio_text > 1.0);
}
