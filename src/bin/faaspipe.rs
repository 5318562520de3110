//! The `faaspipe` command-line tool.
//!
//! ```text
//! faaspipe table1 [--records N] [--exchange B] [--io-concurrency K] [--trace-out F] [--jobs N]
//!                                         reproduce the paper's Table 1
//! faaspipe run <spec.json> [--records N] [--seed S] [--io-concurrency K] [--trace-out F]
//!                                         execute a JSON workflow spec
//! faaspipe synth --records N --out F      generate synthetic WGBS bedMethyl
//! faaspipe compress <in.bed> <out.mc>     METHCOMP-compress a bedMethyl file
//! faaspipe decompress <in.mc> <out.bed>   decompress a METHCOMP archive
//! faaspipe tune --gb X [--chunks N]       plan a shuffle's worker count
//! faaspipe cluster [--tenants N] [--rate R] [--horizon S]
//!                                         multi-tenant cluster simulation
//! ```
//!
//! Exit status is non-zero on any error; messages go to stderr.

use std::process::ExitCode;

use faaspipe::cluster::{
    run_cluster, AdmissionPolicy, ArrivalProcess, ClusterConfig, TenantSpec, TraceMode,
    MAX_ARRIVAL_NS, MAX_TENANTS,
};
use faaspipe::core::dag::WorkerChoice;
use faaspipe::core::executor::DEFAULT_MAX_AUTO_WORKERS;
use faaspipe::core::pipeline::{run_methcomp_pipeline, run_pipeline, PipelineConfig, PipelineMode};
use faaspipe::core::report::{render_table1, Table1Row};
use faaspipe::core::spec::PipelineSpec;
use faaspipe::exchange::ExchangeKind;
use faaspipe::methcomp::codec as mc;
use faaspipe::methcomp::synth::{reserve_records, Synthesizer};
use faaspipe::methcomp::{Dataset, MethRecord};
use faaspipe::plan::{Estimate, ModelParams, Planner, SearchSpace, Workload};
use faaspipe::shuffle::{SortConfig, SortRecord};
use faaspipe::trace::{chrome_trace_json, critical_path, TraceData};

const USAGE: &str = "usage:
  faaspipe table1 [--records N] [--exchange scatter|coalesced|vm_relay|direct|sharded_relay[:N][:prewarm]|auto] [--io-concurrency K] [--trace-out <trace.json>] [--jobs N]
                  (--exchange auto plans workers, I/O window, backend, and shards from the cost model;
                   --jobs runs the two pipeline modes concurrently, default FAASPIPE_JOBS / core count)
  faaspipe run <spec.json> [--records N] [--seed S] [--io-concurrency K] [--trace-out <trace.json>]
  faaspipe synth --records N --out <file.bed> [--shuffled] [--seed S]
  faaspipe compress <input.bed> <output.mc>
  faaspipe decompress <input.mc> <output.bed>
  faaspipe index <input.bed> <output.mcx>
  faaspipe query <archive.mcx> <chrom> <start> <end>
  faaspipe tune --gb <size> [--chunks N] [--max-workers N] [--budget $]
                 (plans W for a scatter stage at the default I/O window, as \"workers\": \"auto\" does;
                  --max-workers defaults to the executor's \"workers\": \"auto\" ceiling)
  faaspipe cluster [--tenants N] [--rate R] [--horizon S] [--records N] [--seed S]
                   [--exchange B] [--arrivals <trace.txt>] [--max-concurrent N]
                   [--store-ops OPS] [--stream-trace <out.jsonl>] [--verify]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("table1") => cmd_table1(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("compress") => cmd_compress(&args[1..]),
        Some("decompress") => cmd_decompress(&args[1..]),
        Some("index") => cmd_index(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("tune") => cmd_tune(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("--help") | Some("-h") | None => {
            println!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{}'\n{}", other, USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {}", message);
            ExitCode::FAILURE
        }
    }
}

/// Pulls `--flag value` out of an argument list; a trailing flag with no
/// value is an error rather than silently ignored.
fn flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.clone())),
            None => Err(format!("{} requires a value", name)),
        },
    }
}

fn flag_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flag(args, name)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|e| format!("invalid value '{}' for {}: {}", v, name, e)),
    }
}

/// Parses `--records`, rejecting a count whose record buffer the host
/// cannot hold: the buffer is reserved fallibly, as synthesis reserves
/// it, and released at once, so the command fails here instead of
/// panicking or aborting mid-run.
fn records_flag(args: &[String], default: usize) -> Result<usize, String> {
    let records: usize = flag_parse(args, "--records", default)?;
    match reserve_records(records) {
        Ok(_) => Ok(records),
        Err(e) => Err(format!("--records {} is too large: {}", records, e)),
    }
}

// A record is at least as wide in memory as on the wire, so a count whose
// in-memory buffer `records_flag` could reserve fits its wire buffers in
// the address space too.
const _: () = assert!(std::mem::size_of::<MethRecord>() >= MethRecord::WIRE_SIZE);

fn cmd_table1(args: &[String]) -> Result<(), String> {
    let records = records_flag(args, 150_000)?;
    let exchange: ExchangeKind = flag_parse(args, "--exchange", ExchangeKind::Scatter)?;
    let io_concurrency: usize = flag_parse(
        args,
        "--io-concurrency",
        SortConfig::default().io_concurrency,
    )?;
    if io_concurrency == 0 {
        return Err("--io-concurrency must be at least 1".into());
    }
    let trace_out = flag(args, "--trace-out")?;
    let jobs = faaspipe::sweep::jobs_from_args(args)?;
    let traced = trace_out.is_some();
    // The two pipeline modes are independent sims; run them through the
    // sweep engine (they land back in mode order, so the table and the
    // merged trace are identical at any job count).
    let mut sweep = faaspipe::sweep::Sweep::new();
    for mode in [PipelineMode::PureServerless, PipelineMode::VmHybrid] {
        sweep.push(mode.to_string(), move || {
            let mut cfg = PipelineConfig::paper_table1();
            cfg.mode = mode;
            cfg.physical_records = records;
            cfg.exchange = exchange;
            cfg.io_concurrency = io_concurrency;
            // `auto` opens the worker count too: the planner picks W
            // along with K, backend, and shards instead of the paper's
            // fixed 8.
            if exchange == ExchangeKind::Auto {
                cfg.workers = WorkerChoice::Auto;
            }
            cfg.trace = traced;
            run_methcomp_pipeline(&cfg).map_err(|e| e.to_string())
        });
    }
    let outcomes = sweep.run_expect(jobs);
    let mut rows = Vec::new();
    let mut traces: Vec<(String, TraceData)> = Vec::new();
    for (mode, outcome) in [PipelineMode::PureServerless, PipelineMode::VmHybrid]
        .into_iter()
        .zip(outcomes)
    {
        let outcome = outcome?;
        eprintln!("--- {} ---\n{}", mode, outcome.tracker_log);
        if traced {
            let breakdown =
                critical_path(&outcome.trace).ok_or("traced run produced no breakdown")?;
            eprintln!("{}", breakdown.render());
            traces.push((mode.to_string(), outcome.trace.clone()));
        }
        rows.push(Table1Row::from_outcome(&outcome));
    }
    println!("{}", render_table1(&rows));
    if let Some(path) = trace_out {
        let labelled: Vec<(&str, &TraceData)> = traces
            .iter()
            .map(|(label, data)| (label.as_str(), data))
            .collect();
        let chrome = chrome_trace_json(&TraceData::merged(&labelled));
        std::fs::write(&path, chrome).map_err(|e| format!("{}: {}", path, e))?;
        eprintln!("wrote {}", path);
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("run requires a spec file")?;
    let records = records_flag(args, 50_000)?;
    let seed: u64 = flag_parse(args, "--seed", 7)?;
    let io_concurrency: usize = flag_parse(
        args,
        "--io-concurrency",
        SortConfig::default().io_concurrency,
    )?;
    if io_concurrency == 0 {
        return Err("--io-concurrency must be at least 1".into());
    }
    let trace_out = flag(args, "--trace-out")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {}", path, e))?;
    let spec = PipelineSpec::from_json(&text).map_err(|e| e.to_string())?;
    let dag = spec.to_dag().map_err(|e| e.to_string())?;

    // Synthetic input in 8 chunks under the first stage's input prefix,
    // at size scale 1: every wire byte and compute charge is physical.
    let mut cfg = PipelineConfig::paper_table1();
    cfg.physical_records = records;
    cfg.modeled_bytes = (records * MethRecord::WIRE_SIZE) as u64;
    cfg.seed = seed;
    cfg.io_concurrency = io_concurrency;
    cfg.verify = false;
    cfg.trace = trace_out.is_some();
    let outcome = run_pipeline(&cfg, &dag).map_err(|e| e.to_string())?;
    println!("{}", outcome.tracker_log);
    for s in &outcome.stages {
        println!(
            "stage '{}': {} ({} workers, {} output bytes)",
            s.stage,
            s.finished.saturating_duration_since(s.started),
            s.workers_used,
            s.output_bytes
        );
    }
    println!("{}", outcome.cost.render());
    if let Some(path) = trace_out {
        if let Some(breakdown) = critical_path(&outcome.trace) {
            println!("{}", breakdown.render());
        }
        std::fs::write(&path, chrome_trace_json(&outcome.trace))
            .map_err(|e| format!("{}: {}", path, e))?;
        eprintln!("wrote {}", path);
    }
    Ok(())
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let records = records_flag(args, 0)?;
    if records == 0 {
        return Err("synth requires --records N".into());
    }
    let out = flag(args, "--out")?.ok_or("synth requires --out <file>")?;
    let seed: u64 = flag_parse(args, "--seed", 7)?;
    let shuffled = args.iter().any(|a| a == "--shuffled");
    let mut synth = Synthesizer::new(seed);
    let ds = if shuffled {
        synth.generate_shuffled(records)
    } else {
        synth.generate_records(records)
    };
    std::fs::write(&out, ds.to_text()).map_err(|e| format!("{}: {}", out, e))?;
    eprintln!(
        "wrote {} records ({} bytes) to {}",
        ds.len(),
        ds.to_text().len(),
        out
    );
    Ok(())
}

fn cmd_compress(args: &[String]) -> Result<(), String> {
    let [input, output] = two_paths(args, "compress")?;
    let text = std::fs::read_to_string(&input).map_err(|e| format!("{}: {}", input, e))?;
    let ds = Dataset::from_text(&text).map_err(|e| e.to_string())?;
    let packed = mc::compress(&ds);
    std::fs::write(&output, &packed).map_err(|e| format!("{}: {}", output, e))?;
    eprintln!(
        "{} records: {} -> {} bytes ({:.1}x)",
        ds.len(),
        text.len(),
        packed.len(),
        text.len() as f64 / packed.len() as f64
    );
    Ok(())
}

fn cmd_decompress(args: &[String]) -> Result<(), String> {
    let [input, output] = two_paths(args, "decompress")?;
    let packed = std::fs::read(&input).map_err(|e| format!("{}: {}", input, e))?;
    let ds = mc::decompress(&packed).map_err(|e| e.to_string())?;
    std::fs::write(&output, ds.to_text()).map_err(|e| format!("{}: {}", output, e))?;
    eprintln!("restored {} records to {}", ds.len(), output);
    Ok(())
}

fn cmd_index(args: &[String]) -> Result<(), String> {
    let [input, output] = two_paths(args, "index")?;
    let text = std::fs::read_to_string(&input).map_err(|e| format!("{}: {}", input, e))?;
    let mut ds = Dataset::from_text(&text).map_err(|e| e.to_string())?;
    ds.sort();
    let packed = faaspipe::methcomp::index::compress_indexed(
        &ds,
        faaspipe::methcomp::index::DEFAULT_BLOCK_RECORDS,
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(&output, &packed).map_err(|e| format!("{}: {}", output, e))?;
    let idx = faaspipe::methcomp::index::read_index(&packed).map_err(|e| e.to_string())?;
    eprintln!(
        "{} records in {} blocks: {} -> {} bytes ({:.1}x)",
        ds.len(),
        idx.blocks.len(),
        text.len(),
        packed.len(),
        text.len() as f64 / packed.len() as f64
    );
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [archive_path, chrom_name, start, end] = positional.as_slice() else {
        return Err("query requires <archive.mcx> <chrom> <start> <end>".into());
    };
    let chrom = faaspipe::methcomp::bed::chrom_id(chrom_name)
        .ok_or_else(|| format!("unknown chromosome '{}'", chrom_name))?;
    let start: u64 = start
        .parse()
        .map_err(|_| format!("bad start '{}'", start))?;
    let end: u64 = end.parse().map_err(|_| format!("bad end '{}'", end))?;
    let archive =
        std::fs::read(archive_path.as_str()).map_err(|e| format!("{}: {}", archive_path, e))?;
    let (hits, decoded) = faaspipe::methcomp::index::query_region(&archive, chrom, start, end)
        .map_err(|e| e.to_string())?;
    for r in &hits {
        println!("{}", r.to_line());
    }
    eprintln!(
        "{} records in {}:{}..{} ({} blocks decoded)",
        hits.len(),
        chrom_name,
        start,
        end,
        decoded
    );
    Ok(())
}

fn two_paths(args: &[String], cmd: &str) -> Result<[String; 2], String> {
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    match paths.as_slice() {
        [a, b] => Ok([(*a).clone(), (*b).clone()]),
        _ => Err(format!("{} requires <input> <output>", cmd)),
    }
}

fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let tenants: usize = flag_parse(args, "--tenants", 2)?;
    if tenants == 0 {
        return Err("--tenants must be at least 1".into());
    }
    if tenants > MAX_TENANTS {
        return Err(format!(
            "--tenants {} exceeds the ceiling of {}",
            tenants, MAX_TENANTS
        ));
    }
    let rate: f64 = flag_parse(args, "--rate", 0.02)?;
    let horizon: u64 = flag_parse(args, "--horizon", 300)?;
    let max_horizon_s = MAX_ARRIVAL_NS / 1_000_000_000;
    if horizon > max_horizon_s {
        return Err(format!(
            "--horizon {} is too large: at most {} s (2^62 ns)",
            horizon, max_horizon_s
        ));
    }
    let records = records_flag(args, 20_000)?;
    let exchange: ExchangeKind = flag_parse(args, "--exchange", ExchangeKind::Scatter)?;
    let max_concurrent: Option<String> = flag(args, "--max-concurrent")?;
    let store_ops: Option<String> = flag(args, "--store-ops")?;

    let mut admission = AdmissionPolicy::unlimited();
    if let Some(v) = max_concurrent {
        let n: u64 = v
            .parse()
            .map_err(|_| format!("invalid value '{}' for --max-concurrent", v))?;
        admission = admission.with_max_concurrent(n);
    }
    if let Some(v) = store_ops {
        let ops: f64 = v
            .parse()
            .map_err(|_| format!("invalid value '{}' for --store-ops", v))?;
        admission = admission.with_store_ops(ops, ops);
    }

    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|i| {
            let mut t = TenantSpec::new(format!("t{}", i));
            t.exchange = exchange;
            t.admission = admission.clone();
            t
        })
        .collect();

    let arrivals = match flag(args, "--arrivals")? {
        Some(path) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {}", path, e))?;
            ArrivalProcess::from_trace_str(&text)?
        }
        None => ArrivalProcess::Poisson {
            rate_per_sec: rate,
            horizon: faaspipe::des::SimDuration::from_secs(horizon),
        },
    };

    let mut cfg = ClusterConfig::new(specs, arrivals);
    cfg.physical_records = records;
    cfg.seed = flag_parse(args, "--seed", cfg.seed)?;
    cfg.verify = args.iter().any(|a| a == "--verify");
    if let Some(path) = flag(args, "--stream-trace")? {
        cfg.trace = TraceMode::Stream(path.into());
    }

    let report = run_cluster(&cfg).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    println!("--- cost ---\n{}", report.cost.render());
    if let TraceMode::Stream(path) = &cfg.trace {
        eprintln!("streamed trace to {}", path.display());
    }
    Ok(())
}

/// Plans what a `"workers": "auto"` scatter stage plans at the default
/// I/O window: the planner's cost model over the worker-count ladder,
/// with default service configurations and no encode tail.
fn cmd_tune(args: &[String]) -> Result<(), String> {
    let Some(raw) = flag(args, "--gb")? else {
        return Err("tune requires --gb <size>".into());
    };
    let gb: f64 = flag_parse(args, "--gb", 0.0)?;
    if !(gb.is_finite() && gb > 0.0) {
        return Err(format!("--gb must be a finite, positive size, got {}", gb));
    }
    let too_large = || format!("--gb {} is too large to model", raw);
    let data_bytes = gb * 1e9;
    if !data_bytes.is_finite() {
        return Err(too_large());
    }
    let chunks: usize = flag_parse(args, "--chunks", 8)?;
    if chunks == 0 {
        return Err("--chunks must be at least 1".into());
    }
    let max_workers: usize = flag_parse(args, "--max-workers", DEFAULT_MAX_AUTO_WORKERS)?;
    if max_workers == 0 {
        return Err("--max-workers must be at least 1".into());
    }
    let k = SortConfig::default().io_concurrency;
    let planner = Planner::new(ModelParams::default()).with_space(
        SearchSpace::default()
            .cap_workers(max_workers)
            .pin_backend(ExchangeKind::Scatter)
            .pin_io(k),
    );
    let wl = Workload::new(data_bytes, chunks, 1.0, 0);
    let plan = match flag(args, "--budget")? {
        None => planner.plan(&wl),
        Some(v) => {
            let budget: f64 = v
                .parse()
                .map_err(|_| format!("invalid value '{}' for --budget", v))?;
            if !(budget.is_finite() && budget > 0.0) {
                return Err(format!(
                    "--budget must be a finite, positive amount, got {}",
                    budget
                ));
            }
            planner.plan_within_budget(&wl, budget)
        }
    };
    let frontier = planner.pareto(&wl);
    let finite = |e: &Estimate| e.makespan_s.is_finite() && e.cost_dollars.is_finite();
    if !finite(&plan.predicted) || !frontier.iter().all(|(_, e)| finite(e)) {
        return Err(too_large());
    }
    let e = &plan.predicted;
    println!(
        "recommended workers for a {:.1} GB shuffle: {} (scatter, K={})",
        gb, plan.workers, k
    );
    println!(
        "modelled makespan {:.1}s (prepare {:.1}, sample {:.1}, map {:.1}, reduce {:.1})",
        e.makespan_s, e.prepare_s, e.sample_s, e.map_s, e.reduce_s
    );
    println!("modelled cost ${:.4}", e.cost_dollars);
    println!("pareto frontier (workers, latency s, cost $):");
    for (c, e) in &frontier {
        println!(
            "  {:>4}  {:>7.1}  {:>8.4}",
            c.workers, e.makespan_s, e.cost_dollars
        );
    }
    Ok(())
}
