//! Primula in action: probe the object store "on the fly", model the
//! shuffle makespan for every worker count, and show the three regimes
//! the paper's worker-count claim rests on.
//!
//! ```text
//! cargo run --release --example shuffle_tuning
//! ```

use std::sync::Arc;

use parking_lot::Mutex;

use faaspipe::des::Sim;
use faaspipe::shuffle::{Autotuner, TuningModel};
use faaspipe::store::{ObjectStore, StoreConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Probe a simulated COS the way Primula would probe the real one.
    let mut sim = Sim::new();
    let store = ObjectStore::install(&mut sim, StoreConfig::default());
    store.create_bucket("data")?;
    let measured: Arc<Mutex<Option<Autotuner>>> = Arc::new(Mutex::new(None));
    let store2 = Arc::clone(&store);
    let measured2 = Arc::clone(&measured);
    sim.spawn("prober", move |mut ctx| async move {
        let ctx = &mut ctx;
        let tuner = Autotuner::probe(ctx, &store2, "data").await.expect("probe");
        *measured2.lock() = Some(tuner);
    });
    sim.run()?;
    let tuner = measured.lock().take().expect("probe ran");
    println!(
        "measured on the fly: request latency {:.1} ms, per-connection {:.0} MiB/s",
        tuner.measured_latency_s * 1e3,
        tuner.measured_conn_bw / (1024.0 * 1024.0)
    );

    // Model a 3.5 GB shuffle with those measurements.
    let model: TuningModel = tuner.model(
        3.5e9,
        8,
        &store,
        0.52, // cold start, s
        1.0,  // vCPU share at 2 GB
        95.0 * 1024.0 * 1024.0,
        180.0 * 1024.0 * 1024.0,
        128,
    );
    println!("\nworkers  total(s)  transfer  requests  compute   regime");
    for w in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let b = model.breakdown(w);
        let regime = if b.transfer_s > b.request_s && b.transfer_s > b.compute_s {
            "bandwidth-bound"
        } else if b.request_s > b.transfer_s {
            "request-bound"
        } else {
            "compute-bound"
        };
        println!(
            "{:>7}  {:>8.1}  {:>8.1}  {:>8.1}  {:>7.1}   {}",
            w,
            b.total_s(),
            b.transfer_s,
            b.request_s,
            b.compute_s,
            regime
        );
    }
    let best = model.best_workers();
    println!(
        "\noptimal number of functions for this shuffle: {} ({:.1}s modelled)",
        best,
        model.breakdown(best).total_s()
    );
    println!(
        "modelled cost at the optimum: ${:.4}",
        model.cost_dollars(best, 2.0, 0.000017, 0.005, 0.0004)
    );
    Ok(())
}
