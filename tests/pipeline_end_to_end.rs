//! Cross-crate integration tests: the full METHCOMP pipeline through the
//! public API, both Figure-1 incarnations, driven natively and from JSON
//! specs.

use bytes::Bytes;

use faaspipe::core::executor::{Executor, Services};
use faaspipe::core::pipeline::{run_methcomp_pipeline, run_pipeline, PipelineConfig, PipelineMode};
use faaspipe::core::pricing::PriceBook;
use faaspipe::core::spec::PipelineSpec;
use faaspipe::core::tracker::Tracker;
use faaspipe::core::WorkerChoice;
use faaspipe::des::{Money, Sim};
use faaspipe::faas::{FaasConfig, FunctionPlatform};
use faaspipe::methcomp::codec as mc;
use faaspipe::methcomp::synth::Synthesizer;
use faaspipe::methcomp::MethRecord;
use faaspipe::shuffle::{SortRecord, WorkModel};
use faaspipe::store::{ObjectStore, StoreConfig};
use faaspipe::vm::VmFleet;

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
    let dag = PipelineSpec::from_json(SPEC)
        .expect("parse")
        .to_dag()
        .expect("dag");

    let mut sim = Sim::new();
    let store = ObjectStore::install(&mut sim, StoreConfig::default());
    let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
    let fleet = VmFleet::new();
    store.create_bucket("data").expect("bucket");
    let dataset = Synthesizer::new(99).generate_shuffled(8_000);
    for (i, chunk) in dataset.records.chunks(2_000).enumerate() {
        store
            .put_untimed(
                "data",
                &format!("in/{:04}", i),
                Bytes::from(SortRecord::write_all(chunk)),
            )
            .expect("stage input");
    }
    let tracker = Tracker::new();
    let executor = Executor::new(
        Services {
            store: store.clone(),
            faas: faas.clone(),
            fleet: fleet.clone(),
        },
        WorkModel::default(),
        tracker.clone(),
    );
    let handle = executor.spawn_dag(&mut sim, &dag);
    let report = sim.run().expect("sim");
    handle.ok_results().expect("stages ok");

    // Verify: every archive decodes, concatenation equals sorted input.
    let mut expect = dataset.clone();
    expect.sort();
    let mut all: Vec<MethRecord> = Vec::new();
    for key in store.keys_untimed("data", "sorted/") {
        let run = store.peek("data", &key).expect("run");
        let records: Vec<MethRecord> = SortRecord::read_all(&run).expect("decode");
        let leaf = key.trim_start_matches("sorted/");
        let archive = store
            .peek("data", &format!("enc/{}", leaf))
            .expect("archive");
        let decoded = mc::decompress(&archive).expect("lossless");
        assert_eq!(decoded.records, records);
        all.extend(records);
    }
    assert_eq!(all, expect.records);

    // Cost report is itemized per stage, named from the spec.
    let cost = PriceBook::default().assemble(
        &faas.records(),
        &store.metrics(),
        &fleet.records(),
        report.end_time,
    );
    assert!(cost.by_stage.contains_key("sort"));
    assert!(cost.by_stage.contains_key("encode"));
    assert!(cost.total() > Money::ZERO);
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
    let dag = PipelineSpec::from_json(SPEC)
        .expect("parse")
        .to_dag()
        .expect("dag");
    let mut sim = Sim::new();
    let store = ObjectStore::install(&mut sim, StoreConfig::default());
    let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
    store.create_bucket("data").expect("bucket");
    let dataset = Synthesizer::new(5).generate_shuffled(4_000);
    for (i, chunk) in dataset.records.chunks(2_000).enumerate() {
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
    sim.run().expect("sim");
    handle.ok_results().expect("stages ok");
    // gzipish archives decompress to the sorted runs' text.
    for key in store.keys_untimed("data", "sorted/") {
        let run = store.peek("data", &key).expect("run");
        let records: Vec<MethRecord> = SortRecord::read_all(&run).expect("decode");
        let text = faaspipe::methcomp::Dataset::new(records).to_text();
        let leaf = key.trim_start_matches("sorted/");
        let archive = store
            .peek("data", &format!("enc/{}", leaf))
            .expect("archive");
        let unpacked = faaspipe::codec::gzipish::decompress(&archive).expect("gz");
        assert_eq!(unpacked, text.as_bytes());
    }
}
