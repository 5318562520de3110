//! E16 — the sharded relay fleet: scaling the VM-driven data plane out
//! instead of up.
//!
//! The paper's Table-1 comparison pits coalesced object storage against
//! a *single* relay VM, whose one NIC is the bottleneck at high W. This
//! sweep runs the purely-serverless pipeline over W ∈ {8..128} ×
//! shards ∈ {1,2,4,8}, cold and pre-warmed, against the coalesced-COS
//! and single-relay baselines — turning the paper's two-point comparison
//! into a scaling frontier: how many relay VMs (and how many dollars of
//! per-second billing) does it take to close the latency gap, and what
//! does pre-warming the fleet under the sample phase buy on the critical
//! path?
//!
//! ```text
//! cargo run --release -p faaspipe-bench --bin repro_relay_sharding [-- --quick] [--jobs N]
//! ```
//!
//! `--quick` shrinks the sweep to a CI smoke run (small W, few records,
//! no frontier assertions). The W × shards × prewarm grid runs through
//! the [`faaspipe_sweep`] engine (`--jobs` worker threads, default
//! `FAASPIPE_JOBS` / core count); output is byte-identical to serial.

use faaspipe_bench::{write_json, SWEEP_RECORDS};
use faaspipe_core::dag::WorkerChoice;
use faaspipe_core::pipeline::{run_methcomp_pipeline, PipelineConfig, PipelineMode};
use faaspipe_shuffle::ExchangeKind;
use faaspipe_sweep::Sweep;
use faaspipe_trace::critical_path;

struct Row {
    workers: usize,
    backend: String,
    shards: usize,
    prewarm: bool,
    latency_s: f64,
    sort_latency_s: f64,
    cost_dollars: f64,
    compute_s: f64,
    store_io_s: f64,
    cold_start_s: f64,
    queueing_s: f64,
    other_s: f64,
}

faaspipe_json::json_object! {
    Row {
        req workers,
        req backend,
        req shards,
        req prewarm,
        req latency_s,
        req sort_latency_s,
        req cost_dollars,
        req compute_s,
        req store_io_s,
        req cold_start_s,
        req queueing_s,
        req other_s,
    }
}

const SHARDS: [usize; 4] = [1, 2, 4, 8];

fn run(workers: usize, records: usize, backend: ExchangeKind) -> Row {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.mode = PipelineMode::PureServerless;
    cfg.physical_records = records;
    cfg.workers = WorkerChoice::Fixed(workers);
    cfg.exchange = backend;
    cfg.trace = true;
    let outcome = run_methcomp_pipeline(&cfg).expect("pipeline run");
    assert!(outcome.verified, "{} W={} must verify", backend, workers);
    let sort = outcome
        .stages
        .iter()
        .find(|s| s.stage == "sort")
        .expect("sort stage");
    let b = critical_path(&outcome.trace).expect("breakdown");
    let (shards, prewarm) = backend.relay_shards().unwrap_or((0, false));
    Row {
        workers,
        backend: backend.to_string(),
        shards,
        prewarm,
        latency_s: outcome.latency.as_secs_f64(),
        sort_latency_s: sort
            .finished
            .saturating_duration_since(sort.started)
            .as_secs_f64(),
        cost_dollars: outcome.cost.total().as_dollars(),
        compute_s: b.compute.as_secs_f64(),
        store_io_s: b.store_io.as_secs_f64(),
        cold_start_s: b.cold_start.as_secs_f64(),
        queueing_s: b.queueing.as_secs_f64(),
        other_s: b.other.as_secs_f64(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = faaspipe_sweep::jobs_from_args_or_exit(&args);
    let (worker_sweep, shard_sweep, records): (&[usize], &[usize], usize) = if quick {
        (&[8], &[1, 2], 8_000)
    } else {
        (&[8, 16, 32, 64, 128], &SHARDS, SWEEP_RECORDS)
    };

    // Every (W, backend[, shards, prewarm]) point is an independent sim;
    // cells are pushed in row order so the returned vector *is* `rows`.
    let mut sweep: Sweep<Row> = Sweep::new();
    for &w in worker_sweep {
        sweep.push(format!("W={} coalesced", w), move || {
            run(w, records, ExchangeKind::Coalesced)
        });
        sweep.push(format!("W={} vm_relay", w), move || {
            run(w, records, ExchangeKind::VmRelay)
        });
        for &n in shard_sweep {
            for prewarm in [false, true] {
                let kind = ExchangeKind::ShardedRelay { shards: n, prewarm };
                sweep.push(format!("W={} {}", w, kind), move || run(w, records, kind));
            }
        }
    }
    let rows: Vec<Row> = sweep.run_expect(jobs);

    let mut ordered = rows.iter();
    println!("makespan seconds (cost $); relay shards cold → prewarm:");
    for &w in worker_sweep {
        let cos = ordered.next().expect("coalesced row");
        let relay = ordered.next().expect("relay row");
        println!(
            "W={:<3}  coalesced {:.2}s (${:.4})   vm_relay {:.2}s (${:.4})",
            w, cos.latency_s, cos.cost_dollars, relay.latency_s, relay.cost_dollars
        );
        for &n in shard_sweep {
            let cold = ordered.next().expect("cold shard row");
            let warm = ordered.next().expect("warm shard row");
            println!(
                "       shards={:<2} {:.2}s (${:.4}, cold-start {:.1}s) → {:.2}s (${:.4}, cold-start {:.1}s)",
                n,
                cold.latency_s,
                cold.cost_dollars,
                cold.cold_start_s,
                warm.latency_s,
                warm.cost_dollars,
                warm.cold_start_s
            );
        }
    }

    let sharded = |w: usize, n: usize, prewarm: bool| -> &Row {
        rows.iter()
            .find(|r| {
                r.workers == w
                    && r.shards == n
                    && r.prewarm == prewarm
                    && r.backend.starts_with("sharded")
            })
            .expect("swept config")
    };

    // Pre-warming must (a) never lose to a cold boot of the same shape
    // and (b) take provisioning off the critical path: the residual
    // relay-wait is what sampling could not hide, strictly less than
    // the full boot.
    for &w in worker_sweep {
        for &n in shard_sweep {
            let cold = sharded(w, n, false);
            let warm = sharded(w, n, true);
            assert!(
                cold.cold_start_s >= 44.0,
                "W={} shards={}: a cold fleet pays full provisioning on the critical path, got {:.2}s",
                w, n, cold.cold_start_s
            );
            assert!(
                warm.cold_start_s < cold.cold_start_s,
                "W={} shards={}: prewarm must shrink critical-path cold start ({:.2}s vs {:.2}s)",
                w,
                n,
                warm.cold_start_s,
                cold.cold_start_s
            );
            assert!(
                warm.latency_s < cold.latency_s,
                "W={} shards={}: prewarm must cut the makespan ({:.2}s vs {:.2}s)",
                w,
                n,
                warm.latency_s,
                cold.latency_s
            );
        }
    }

    if !quick {
        // The frontier: at the highest fan-in, more shards = more
        // aggregate relay NIC bandwidth = monotonically better makespan.
        let top_w = *worker_sweep.last().expect("sweep");
        for pair in shard_sweep.windows(2) {
            let (fewer, more) = (
                sharded(top_w, pair[0], false),
                sharded(top_w, pair[1], false),
            );
            assert!(
                more.latency_s <= fewer.latency_s + 0.5,
                "W={}: {} shards ({:.2}s) must not lose to {} shards ({:.2}s)",
                top_w,
                pair[1],
                more.latency_s,
                pair[0],
                fewer.latency_s
            );
        }
        let one = sharded(top_w, 1, false);
        let eight = sharded(top_w, 8, false);
        assert!(
            eight.latency_s < one.latency_s,
            "W={}: the full fleet ({:.2}s) must beat a single shard ({:.2}s)",
            top_w,
            eight.latency_s,
            one.latency_s
        );
        println!(
            "\nfrontier at W={}: 1 shard {:.2}s/${:.4} → 8 shards {:.2}s/${:.4}",
            top_w, one.latency_s, one.cost_dollars, eight.latency_s, eight.cost_dollars
        );
    }

    write_json("relay_sharding", &rows);
}
