//! Integration tests of the `faaspipe` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_faaspipe"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("faaspipe-cli-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn synth_compress_decompress_round_trip() {
    let bed = tmp("rt.bed");
    let mc = tmp("rt.mc");
    let back = tmp("rt.back.bed");
    let out = bin()
        .args(["synth", "--records", "5000", "--out"])
        .arg(&bed)
        .args(["--seed", "3"])
        .output()
        .expect("synth");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .arg("compress")
        .arg(&bed)
        .arg(&mc)
        .output()
        .expect("compress");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let packed = std::fs::metadata(&mc).expect("archive").len();
    let original = std::fs::metadata(&bed).expect("bed").len();
    assert!(
        packed * 5 < original,
        "must compress well: {} vs {}",
        packed,
        original
    );

    let out = bin()
        .arg("decompress")
        .arg(&mc)
        .arg(&back)
        .output()
        .expect("decompress");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let a = std::fs::read(&bed).expect("bed");
    let b = std::fs::read(&back).expect("back");
    assert_eq!(a, b, "byte-exact text round trip");
}

#[test]
fn compress_rejects_malformed_bed() {
    let bad = tmp("bad.bed");
    std::fs::write(&bad, "this is not bed\n").expect("write");
    let out = bin()
        .arg("compress")
        .arg(&bad)
        .arg(tmp("bad.mc"))
        .output()
        .expect("compress");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn decompress_rejects_a_crafted_record_count() {
    // "MC01", the varint of 2^33 records, then nine zero bytes: a count
    // far beyond what the body holds must fail cleanly, not exhaust memory.
    let crafted = tmp("crafted.mc");
    let mut bytes = b"MC01".to_vec();
    bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x20]);
    bytes.extend_from_slice(&[0; 9]);
    std::fs::write(&crafted, &bytes).expect("write");
    let out = bin()
        .arg("decompress")
        .arg(&crafted)
        .arg(tmp("crafted.bed"))
        .output()
        .expect("decompress");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: unexpected end of input"),
        "{}",
        stderr
    );
}

#[test]
fn index_and_query_round_trip() {
    let bed = tmp("iq.bed");
    let mcx = tmp("iq.mcx");
    let out = bin()
        .args(["synth", "--records", "20000", "--out"])
        .arg(&bed)
        .args(["--seed", "9"])
        .output()
        .expect("synth");
    assert!(out.status.success());
    let out = bin()
        .arg("index")
        .arg(&bed)
        .arg(&mcx)
        .output()
        .expect("index");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .arg("query")
        .arg(&mcx)
        .args(["chr1", "0", "400000"])
        .output()
        .expect("query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let hits = text.lines().count();
    assert!(hits > 0, "window must contain records");
    assert!(text.lines().all(|l| l.starts_with("chr1\t")));
    // Records are valid bedMethyl and inside the window.
    for line in text.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        let start: u64 = cols[1].parse().expect("start");
        assert!(start < 400_000);
    }
    // Unknown chromosome errors cleanly.
    let out = bin()
        .arg("query")
        .arg(&mcx)
        .args(["chrMT", "0", "10"])
        .output()
        .expect("query");
    assert!(!out.status.success());
}

#[test]
fn tune_recommends_workers() {
    // An absurd ceiling costs nothing: the planner walks a fixed worker
    // ladder instead of enumerating every count up to the ceiling.
    let cases: [&[&str]; 2] = [
        &["--gb", "3.5"],
        &["--gb", "1", "--max-workers", "100000000000"],
    ];
    for flags in cases {
        let out = bin().arg("tune").args(flags).output().expect("tune");
        assert!(
            out.status.success(),
            "tune {:?}: {}",
            flags,
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("recommended workers"), "{}", text);
        assert!(text.contains("(scatter, K=4)"), "{}", text);
        assert!(text.contains("modelled makespan"), "{}", text);
    }
}

#[test]
fn tune_rejects_unusable_sizes_and_budgets() {
    const GB: &str = "--gb must be a finite, positive size";
    const BUDGET: &str = "--budget must be a finite, positive amount";
    let cases: [(&[&str], &str); 9] = [
        (&["--gb", "nan"], GB),
        (&["--gb", "inf"], GB),
        (&["--gb", "-2"], GB),
        // Finite as an f64, but not as a byte count (1e309 bytes).
        (&["--gb", "1e300"], "--gb 1e300 is too large to model"),
        (
            &["--gb", "1", "--chunks", "0"],
            "--chunks must be at least 1",
        ),
        (&["--gb", "1", "--budget", "nan"], BUDGET),
        (&["--gb", "1", "--budget", "-1"], BUDGET),
        (&["--gb", "1", "--budget", "0"], BUDGET),
        (
            &["--gb", "1", "--max-workers", "0"],
            "--max-workers must be at least 1",
        ),
    ];
    for (flags, message) in cases {
        let out = bin().arg("tune").args(flags).output().expect("tune");
        assert_eq!(out.status.code(), Some(1), "tune {:?} must exit 1", flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "tune {:?}: {}", flags, stderr);
        assert!(out.stdout.is_empty(), "tune {:?} printed a plan", flags);
    }
}

#[test]
fn run_rejects_worker_counts_above_the_stage_ceiling() {
    // A count past the ceiling used to abort (exit 134) on a 400 GB
    // per-mapper allocation inside the run; it is now a spec error.
    let cases = [
        r#"{ "name": "sort", "kind": "shuffle_sort", "workers": 100000000000,
             "input": "in/", "output": "sorted/" }"#,
        r#"{ "name": "encode", "kind": "encode", "codec": "methcomp",
             "workers": 100000000000, "input": "in/", "output": "enc/" }"#,
    ];
    for (i, stage) in cases.iter().enumerate() {
        let spec = tmp(&format!("oversized-workers-{}.json", i));
        std::fs::write(
            &spec,
            format!(
                r#"{{"name": "wide", "bucket": "data", "stages": [ {} ]}}"#,
                stage
            ),
        )
        .expect("write spec");
        let out = bin()
            .arg("run")
            .arg(&spec)
            .args(["--records", "2000"])
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(1), "{}", stage);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("workers 100000000000 exceeds the ceiling of 65536"),
            "{}",
            stderr
        );
        assert!(out.stdout.is_empty(), "{}", stage);
    }
}

#[test]
fn run_rejects_a_decode_stage() {
    // A stage is a shuffle_sort, a vm_sort or an encode; a "decode"
    // stage is a spec error (exit 1), not a panic.
    let spec = tmp("decode-spec.json");
    std::fs::write(
        &spec,
        r#"{"name": "dec", "bucket": "data", "stages": [
            { "name": "decode", "kind": "decode", "workers": 2,
              "input": "enc/", "output": "dec/" } ]}"#,
    )
    .expect("write spec");
    let out = bin()
        .arg("run")
        .arg(&spec)
        .args(["--records", "2000"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown stage kind 'decode'"), "{}", stderr);
    assert!(!stderr.contains("panicked"), "{}", stderr);
    assert!(out.stdout.is_empty());
}

#[test]
fn oversized_record_counts_exit_with_an_error() {
    // 2^64 − 1 records cannot be sized in memory, and 10^15 (24 PB)
    // exceed any host's; every command that synthesizes records rejects
    // the count instead of panicking or aborting.
    let spec = tmp("oversized-records-spec.json");
    std::fs::write(
        &spec,
        r#"{"name": "big", "bucket": "data", "stages": [
            { "name": "encode", "kind": "encode", "codec": "methcomp",
              "workers": 1, "input": "in/", "output": "enc/" } ]}"#,
    )
    .expect("write spec");
    let out_file = tmp("oversized.bed");
    let spec = spec.to_str().expect("utf-8 path");
    let out_file = out_file.to_str().expect("utf-8 path");
    for huge in ["18446744073709551615", "1000000000000000"] {
        let commands: [&[&str]; 4] = [
            &["table1", "--records", huge],
            &["run", spec, "--records", huge],
            &["synth", "--records", huge, "--out", out_file],
            &["cluster", "--records", huge],
        ];
        for args in commands {
            let out = bin().args(args).output().expect("run");
            assert_eq!(out.status.code(), Some(1), "{:?} must exit 1", args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("--records {huge} is too large")),
                "{:?}: {}",
                args,
                stderr
            );
            assert!(!stderr.contains("panicked"), "{:?}: {}", args, stderr);
        }
    }
}

#[test]
fn run_executes_a_spec_file() {
    let spec = tmp("spec.json");
    std::fs::write(
        &spec,
        r#"{
            "name": "cli-test", "bucket": "data",
            "stages": [
                { "name": "sort", "kind": "shuffle_sort", "workers": 2,
                  "exchange": "coalesced", "input": "in/", "output": "sorted/" },
                { "name": "encode", "kind": "encode", "codec": "methcomp",
                  "workers": 2, "input": "sorted/", "output": "enc/",
                  "deps": ["sort"] }
            ]
        }"#,
    )
    .expect("write spec");
    let out = bin()
        .arg("run")
        .arg(&spec)
        .args(["--records", "4000"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stage 'sort'"));
    assert!(text.contains("stage 'encode'"));
    assert!(text.contains("TOTAL"));
}

#[test]
fn table1_accepts_an_exchange_backend() {
    let out = bin()
        .args(["table1", "--records", "4000", "--exchange", "vm_relay"])
        .output()
        .expect("table1");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Purely"));

    let out = bin()
        .args(["table1", "--exchange", "carrier_pigeon"])
        .output()
        .expect("table1");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--exchange"));
}

#[test]
fn table1_jobs_flag_is_output_invariant() {
    // The two pipeline modes run as sweep cells; the rendered table
    // (stdout) must not depend on the job count.
    let serial = bin()
        .args(["table1", "--records", "4000", "--jobs", "1"])
        .output()
        .expect("table1 --jobs 1");
    assert!(
        serial.status.success(),
        "{}",
        String::from_utf8_lossy(&serial.stderr)
    );
    let parallel = bin()
        .args(["table1", "--records", "4000", "--jobs", "4"])
        .output()
        .expect("table1 --jobs 4");
    assert!(
        parallel.status.success(),
        "{}",
        String::from_utf8_lossy(&parallel.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "table must be byte-identical at any --jobs"
    );

    let out = bin()
        .args(["table1", "--jobs", "0"])
        .output()
        .expect("table1 --jobs 0");
    assert!(!out.status.success(), "--jobs 0 must be rejected");
    assert!(String::from_utf8_lossy(&out.stderr).contains("jobs"));
}

#[test]
fn table1_accepts_a_parameterized_sharded_exchange() {
    let out = bin()
        .args([
            "table1",
            "--records",
            "4000",
            "--exchange",
            "sharded_relay:2:prewarm",
        ])
        .output()
        .expect("table1");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Purely"));

    let out = bin()
        .args(["table1", "--exchange", "sharded_relay:0"])
        .output()
        .expect("table1");
    assert!(!out.status.success(), "zero shards must be rejected");
}

#[test]
fn oversized_relay_shard_counts_exit_with_an_error() {
    // A shard count past the ceiling used to build one relay per shard
    // and abort (exit 134) on an 800 GB allocation; as a CLI flag and as
    // a spec's `"exchange"` it is now a parse error naming the ceiling.
    let want = "100000000000 shards exceeds the ceiling of 1024";
    let spec = tmp("oversized-shards.json");
    std::fs::write(
        &spec,
        r#"{"name": "wide", "bucket": "data", "stages": [
            { "name": "sort", "kind": "shuffle_sort", "workers": 2,
              "exchange": "sharded_relay:100000000000",
              "input": "in/", "output": "sorted/" } ]}"#,
    )
    .expect("write spec");
    let spec = spec.to_str().expect("utf-8 path");
    let commands: [&[&str]; 2] = [
        &[
            "table1",
            "--records",
            "2000",
            "--exchange",
            "sharded_relay:100000000000",
        ],
        &["run", spec, "--records", "2000"],
    ];
    for args in commands {
        let out = bin().args(args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{:?}: {}", args, stderr);
        assert!(stderr.contains(want), "{:?}: {}", args, stderr);
        assert!(out.stdout.is_empty(), "{:?}", args);
    }
}

#[test]
fn run_executes_a_spec_with_a_direct_exchange() {
    let spec = tmp("spec-direct.json");
    std::fs::write(
        &spec,
        r#"{
            "name": "cli-direct", "bucket": "data",
            "stages": [
                { "name": "sort", "kind": "shuffle_sort", "workers": 2,
                  "exchange": "direct", "input": "in/", "output": "sorted/" }
            ]
        }"#,
    )
    .expect("write spec");
    let out = bin()
        .arg("run")
        .arg(&spec)
        .args(["--records", "4000"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("stage 'sort'"));
}

#[test]
fn run_rejects_bad_spec() {
    let spec = tmp("bad-spec.json");
    std::fs::write(&spec, "{\"name\": \"x\"").expect("write");
    let out = bin().arg("run").arg(&spec).output().expect("run");
    assert!(!out.status.success());
    // Nesting past the parser's depth bound is a clean error, not a
    // stack overflow (which would abort with a signal instead of exit 1).
    let deep = tmp("deep-spec.json");
    std::fs::write(&deep, "[".repeat(200_000)).expect("write");
    let out = bin().arg("run").arg(&deep).output().expect("run");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("nesting deeper than 128 levels at byte 128"),
        "{}",
        stderr
    );
}

#[test]
fn cluster_runs_a_small_multi_tenant_simulation() {
    let out = bin()
        .args([
            "cluster",
            "--tenants",
            "2",
            "--rate",
            "0.02",
            "--horizon",
            "150",
            "--records",
            "2000",
        ])
        .output()
        .expect("cluster");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cluster:"));
    assert!(stdout.contains("t0"));
    assert!(stdout.contains("t1"));
    assert!(stdout.contains("TOTAL"));
}

#[test]
fn cluster_accepts_an_arrival_trace_and_streams_a_trace_file() {
    let arrivals = tmp("arrivals.txt");
    std::fs::write(&arrivals, "# t tenant\n0 0\n2.5 1\n5 0\n").expect("write arrivals");
    let trace = tmp("cluster-trace.jsonl");
    let out = bin()
        .arg("cluster")
        .args(["--tenants", "2", "--records", "2000", "--arrivals"])
        .arg(&arrivals)
        .arg("--stream-trace")
        .arg(&trace)
        .output()
        .expect("cluster");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("3 submitted"));
    let streamed = std::fs::read_to_string(&trace).expect("trace file");
    assert!(streamed.lines().count() > 10, "trace must hold JSONL lines");
    assert!(streamed.contains("\"t0/r0\""));
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn cluster_rejects_unusable_limits_and_arrival_times_with_an_error() {
    let fails_with = |args: &[&str], want: &str| {
        let out = bin().arg("cluster").args(args).output().expect("cluster");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{:?}: {}", args, stderr);
        assert!(stderr.contains(want), "{:?}: {}", args, stderr);
    };
    for ops in ["0", "-1", "nan", "inf", "0.5"] {
        fails_with(
            &["--store-ops", ops],
            "store_ops needs a finite positive rate",
        );
    }
    fails_with(
        &["--max-concurrent", "0"],
        "max_concurrent_runs must be positive",
    );
    // A count past the ceiling used to size a 20.8 TB tenant list and
    // abort (exit 134).
    fails_with(
        &["--tenants", "100000000000"],
        "--tenants 100000000000 exceeds the ceiling of 1024",
    );
    // A rate × horizon past the arrival ceiling used to grow a
    // billion-row schedule and abort (exit 134).
    fails_with(
        &["--rate", "1e9", "--horizon", "1"],
        "more than 1000000 runs, the ceiling on arrivals",
    );
    // Horizons past 2^62 ns, including ones whose nanoseconds would
    // overflow `u64` (and wrapped in release builds).
    for horizon in ["4611686019", "18446744074", "20000000000"] {
        fails_with(&["--horizon", horizon], "at most 4611686018 s (2^62 ns)");
    }
    for (name, row, want) in [
        ("inf", "inf 0", "line 2: time inf s is not below 2^62 ns"),
        (
            "huge",
            "1e300 0",
            "line 2: time 1e300 s is not below 2^62 ns",
        ),
        ("nan", "nan 0", "line 2: time is not a number"),
    ] {
        let arrivals = tmp(&format!("arrivals-{}.txt", name));
        std::fs::write(&arrivals, format!("0 0\n{}\n", row)).expect("write arrivals");
        let path = arrivals.to_str().expect("utf-8 temp path");
        fails_with(&["--tenants", "1", "--arrivals", path], want);
        let _ = std::fs::remove_file(&arrivals);
    }
}

#[test]
fn cluster_rejects_bad_flags() {
    let out = bin()
        .args(["cluster", "--tenants", "0"])
        .output()
        .expect("cluster");
    assert!(!out.status.success());

    let out = bin()
        .args(["cluster", "--max-concurrent", "banana"])
        .output()
        .expect("cluster");
    assert!(!out.status.success());
}
