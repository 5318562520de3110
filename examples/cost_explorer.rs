//! Cost-aware tuning: the latency/cost Pareto frontier of the shuffle
//! stage, and what a dollar budget buys you.
//!
//! The paper "qualitatively evaluate[s] the pros and cons of each
//! strategy"; this example makes the trade-off quantitative — every
//! extra function shaves latency but burns GB-seconds and requests.
//!
//! ```text
//! cargo run --release --example cost_explorer
//! ```

use faaspipe::core::pipeline::PipelineConfig;
use faaspipe::exchange::{DirectConfig, ExchangeKind, RelayConfig};
use faaspipe::plan::{ModelParams, Planner, SearchSpace, Workload};

fn main() {
    // The paper's Table-1 shuffle, planned as a `"workers": "auto"`
    // scatter stage plans it.
    let cfg = PipelineConfig::paper_table1();
    let params = ModelParams::from_configs(
        &cfg.store,
        &cfg.faas,
        &RelayConfig::default(),
        &DirectConfig::default(),
        &cfg.work,
        &cfg.pricing,
    );
    let planner = Planner::new(params).with_space(
        SearchSpace::default()
            .pin_backend(ExchangeKind::Scatter)
            .pin_io(cfg.io_concurrency),
    );
    let wl = Workload::new(
        cfg.modeled_bytes as f64,
        cfg.parallelism,
        cfg.size_scale(),
        0,
    );

    println!("Pareto frontier for the paper's 3.5 GB shuffle:");
    println!("workers  modelled latency(s)  modelled cost($)");
    for (c, e) in planner.pareto(&wl) {
        println!(
            "{:>7}  {:>19.1}  {:>15.4}",
            c.workers, e.makespan_s, e.cost_dollars
        );
    }

    println!("\nwhat a budget buys:");
    println!("budget($)   workers  latency(s)  cost($)");
    for budget in [0.005f64, 0.01, 0.02, 0.04, 0.10] {
        let p = planner.plan_within_budget(&wl, budget);
        println!(
            "{:>9.3}  {:>8}  {:>10.1}  {:>7.4}",
            budget, p.workers, p.predicted.makespan_s, p.predicted.cost_dollars
        );
    }

    let fastest = planner.plan(&wl);
    println!(
        "\nlatency-optimal (no budget): {} workers, {:.1}s, ${:.4}",
        fastest.workers, fastest.predicted.makespan_s, fastest.predicted.cost_dollars
    );
}
