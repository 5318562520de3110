//! Host-time benchmark of faaspipe, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     [--workload fanout|table1|cluster|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs the workload untraced for `--seconds` and reports the
//! end-to-end metrics; `--trace 1` runs traced rounds and reports the
//! per-layer metrics. Human-readable lines go to stderr; raw samples and
//! (with `--trace 1`) the host-time span trace go to `hostbench/out/`;
//! the last line of stdout is the JSON result. See README.md.

mod bench;
mod host;
mod layers;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use faaspipe_json::Json;

use bench::{Measured, Settings};
use stats::Metric;
use workload::{Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => v.parse(),
    };
    parsed.map_err(|e| format!("invalid --seed '{v}': {e}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                out.workloads = match value {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name)?],
                }
            }
            "--seed" => out.seed = parse_seed(value)?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("invalid --seconds '{value}'"))?
            }
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid --trace '{value}' (expected 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn metrics_json(metrics: &[Metric], to_json: impl Fn(&Metric) -> Json) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| (m.name.to_string(), to_json(m)))
            .collect(),
    )
}

/// Writes the raw samples (and, traced, the host span trace) of one
/// workload measurement.
fn write_outputs(args: &Args, w: Workload, m: &Measured) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let raw = Json::Object(vec![
        ("workload".into(), Json::Str(w.name().into())),
        ("seed".into(), Json::UInt(args.seed)),
        ("seconds".into(), Json::Float(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("host".into(), host::fingerprint()),
        ("attempted".into(), Json::UInt(m.tally.attempted)),
        ("failed".into(), Json::UInt(m.tally.failed)),
        (
            "failures".into(),
            Json::Array(
                m.tally
                    .causes
                    .iter()
                    .map(|c| Json::Str(c.clone()))
                    .collect(),
            ),
        ),
        (
            "metrics".into(),
            metrics_json(&m.metrics, Metric::to_summary_json),
        ),
        (
            "extra".into(),
            metrics_json(&m.extra, Metric::to_summary_json),
        ),
    ]);
    std::fs::write(dir.join(format!("{stem}.json")), raw.to_pretty())?;
    if args.trace {
        let path = dir.join(format!("{}-seed{}.host-trace.json", w.name(), args.seed));
        std::fs::write(&path, m.spans.chrome_json(&m.runs))?;
        eprintln!("{} host spans: {}", m.spans.len(), path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: hostbench [--workload fanout|table1|cluster|all] [--seed N] \
                 [--seconds S] [--trace 0|1]\n\
                 default seed {DEFAULT_SEED:#x} (the paper's); held-out seed {HELD_OUT_SEED:#x}"
            );
            return ExitCode::from(2);
        }
    };
    let prefixed = args.workloads.len() > 1;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut result: Vec<(String, Json)> = Vec::new();
    for &w in &args.workloads {
        let settings = Settings {
            workload: w,
            seed: args.seed,
            seconds: args.seconds,
            smoke: false,
        };
        eprintln!(
            "== {} seed {} ({}) ==",
            w.name(),
            args.seed,
            if args.trace {
                "per layer, traced"
            } else {
                "end to end"
            }
        );
        let m = if args.trace {
            bench::per_layer(settings)
        } else {
            bench::end_to_end(settings)
        };
        for metric in m.metrics.iter().chain(&m.extra) {
            eprintln!("{}", metric.render());
        }
        if let Err(e) = write_outputs(&args, w, &m) {
            eprintln!("error: writing outputs: {e}");
            return ExitCode::FAILURE;
        }
        attempted += m.tally.attempted;
        failed += m.tally.failed;
        for metric in &m.metrics {
            let name = if prefixed {
                format!("{}.{}", w.name(), metric.name)
            } else {
                metric.name.to_string()
            };
            result.push((name, metric.to_value_json()));
        }
    }
    let correct = failed == 0 && attempted > 0;
    let line = Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(attempted)),
        ("failed".into(), Json::UInt(failed)),
        ("metrics".into(), Json::Object(result)),
    ]);
    println!("{}", line.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "table1",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workloads, vec![Workload::Table1]);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn defaults_to_every_workload_at_the_paper_seed() {
        let a = args(&[]).expect("valid");
        assert_eq!(a.workloads, Workload::ALL.to_vec());
        assert_eq!(a.seed, DEFAULT_SEED);
        assert_eq!(parse_seed("0xE0C0_FF88"), Ok(DEFAULT_SEED));
    }

    #[test]
    fn rejects_bad_flags() {
        for bad in [
            &["--trace", "2"][..],
            &["--seconds", "-1"],
            &["--seed", "x"],
            &["--workload", "sweep"],
            &["--seed"],
            &["--frobnicate", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
