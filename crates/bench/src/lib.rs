//! # faaspipe-bench — experiment harness
//!
//! One binary per paper artifact / claim (see `DESIGN.md` §6 for the
//! experiment index), plus Criterion micro-benchmarks of the kernels.
//!
//! | binary | experiment |
//! |--------|-----------|
//! | `repro_table1` | E1 — Table 1 (latency & cost, both configurations) |
//! | `repro_figure1` | E2 — Figure 1 (per-stage timeline of both architectures) |
//! | `repro_worker_sweep` | E3 — "appropriate number of functions" sweep + the `workers: auto` (planner) pick and model column |
//! | `repro_compression` | E4 — METHCOMP vs gzip-class compression ratio |
//! | `repro_aggregate_bw` | E5 — aggregate object-storage bandwidth vs #functions |
//! | `repro_cost_breakdown` | E6 — §2.4 per-stage cost display |
//! | `repro_scaling` | E7 — input-size scaling (ablation) |
//! | `repro_ops_sensitivity` | E8 — ops/s throttle sensitivity (ablation) |
//! | `repro_cold_warm` | E9 — cold vs pre-warmed containers (ablation) |
//! | `repro_exchange` | E10 — coalesced vs scatter all-to-all exchange (ablation) |
//! | `repro_memory` | E12 — function memory sizing (ablation) |
//! | `repro_codec_pipeline` | E13 — codec choice at pipeline level (ablation) |
//! | `repro_exchange_backends` | E15 — exchange backends: object storage vs VM relay vs direct |
//! | `repro_relay_sharding` | E16 — sharded relay fleet: W × shards frontier, cold vs pre-warmed |
//! | `repro_io_concurrency` | E17 — intra-function parallel I/O: makespan vs the per-function I/O window |
//! | `repro_cluster_contention` | E18 — multi-tenant cluster: offered-load → goodput knee, noisy neighbor vs admission |
//! | `repro_autotuner` | E19 — calibrated cost model vs simulated ground truth; `--exchange auto` planner regret |
//! | `bench_sim_wallclock` | BENCH_sim — host wall-clock cost of the simulator itself (non-gating) |
//!
//! Every binary prints a human-readable table and writes the raw rows as
//! JSON under `results/` (created on demand) so EXPERIMENTS.md can cite
//! them.

use std::path::PathBuf;

use faaspipe_json::ToJson;

/// Returns the directory experiment outputs are archived in, creating it
/// if needed. Respects `FAASPIPE_RESULTS_DIR`.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("FAASPIPE_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Archives `rows` as pretty JSON under `results/<name>.json`.
pub fn write_json<T: ToJson + ?Sized>(name: &str, rows: &T) {
    let path = results_dir().join(format!("{}.json", name));
    let json = faaspipe_json::to_string_pretty(rows);
    std::fs::write(&path, json).expect("write results file");
    eprintln!("wrote {}", path.display());
}

/// The paper's published Table 1, for side-by-side display.
pub const PAPER_TABLE1: [(&str, f64, f64); 2] = [
    ("\"Purely\" serverless", 83.32, 0.008),
    ("VM-supported", 142.77, 0.010),
];

/// Physical record count used by the full-scale reproduction runs
/// (models the 3.5 GB input; see `PipelineConfig::size_scale`).
pub const REPRO_RECORDS: usize = 150_000;

/// Smaller record count for sweeps that run many configurations.
pub const SWEEP_RECORDS: usize = 60_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable() {
        std::env::set_var("FAASPIPE_RESULTS_DIR", "/tmp/faaspipe-test-results");
        let dir = results_dir();
        assert!(dir.exists());
        write_json("unit_test", &vec![1, 2, 3]);
        let back = std::fs::read_to_string(dir.join("unit_test.json")).expect("read");
        assert!(back.contains('2'));
        std::env::remove_var("FAASPIPE_RESULTS_DIR");
    }

    #[test]
    fn paper_constants_match_publication() {
        assert_eq!(PAPER_TABLE1[0].1, 83.32);
        assert_eq!(PAPER_TABLE1[1].1, 142.77);
    }
}
