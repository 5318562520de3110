//! Choosing "the appropriate number of functions": the planner's cost
//! model over the worker-count ladder for a 3.5 GB shuffle, and the
//! three regimes the paper's worker-count claim rests on.
//!
//! ```text
//! cargo run --release --example shuffle_tuning
//! ```

use faaspipe::exchange::ExchangeKind;
use faaspipe::plan::{ModelParams, Planner, SearchSpace, Workload};

fn main() {
    // What a `"workers": "auto"` scatter stage plans at K = 4 with the
    // default store, platform and work model: 3.5 GB in 8 input chunks.
    let planner = Planner::new(ModelParams::default()).with_space(
        SearchSpace::default()
            .pin_backend(ExchangeKind::Scatter)
            .pin_io(4),
    );
    let wl = Workload::new(3.5e9, 8, 1.0, 0);
    let best = planner.plan(&wl);

    println!("workers  total(s)  sample     map  reduce   cost($)   regime");
    let mut rows: Vec<_> = planner.estimates(&wl).collect();
    rows.sort_by_key(|(c, _)| c.workers);
    for (c, e) in &rows {
        let regime = match c.workers.cmp(&best.workers) {
            std::cmp::Ordering::Less => "too few: per-function bandwidth bound",
            std::cmp::Ordering::Equal => "sweet spot",
            std::cmp::Ordering::Greater => "too many: W² requests and bill",
        };
        println!(
            "{:>7}  {:>8.1}  {:>6.1}  {:>6.1}  {:>6.1}  {:>8.4}   {}",
            c.workers, e.makespan_s, e.sample_s, e.map_s, e.reduce_s, e.cost_dollars, regime
        );
    }
    println!(
        "\noptimal number of functions for this shuffle: {} ({:.1}s modelled, ${:.4})",
        best.workers, best.predicted.makespan_s, best.predicted.cost_dollars
    );
}
