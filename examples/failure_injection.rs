//! Resilience demo: run the serverless sort against an object store that
//! randomly fails requests, and watch retries absorb it.
//!
//! ```text
//! cargo run --release --example failure_injection
//! ```

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use faaspipe::des::{Ctx, Sim, SimDuration};
use faaspipe::faas::{FaasConfig, FunctionPlatform};
use faaspipe::shuffle::{serverless_sort, with_retry, SortConfig, SortRecord};
use faaspipe::store::{FailurePolicy, ObjectStore, StoreConfig};

fn run(error_rate: f64) -> Result<(f64, u64), Box<dyn std::error::Error>> {
    let mut sim = Sim::new();
    let store_cfg = StoreConfig::default().with_failure(FailurePolicy::with_error_rate(error_rate));
    let store = ObjectStore::install(&mut sim, store_cfg);
    let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
    store.create_bucket("data")?;

    // 40k pseudo-random u64 records across 4 chunks.
    let values: Vec<u64> = (0..40_000u64)
        .map(|i| (i * 2_654_435_761) % 10_000_000)
        .collect();
    for (i, chunk) in values.chunks(10_000).enumerate() {
        store.put_untimed(
            "data",
            &format!("in/{:04}", i),
            Bytes::from(SortRecord::write_all(chunk)),
        )?;
    }

    let out: Arc<Mutex<Option<SimDuration>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let store2 = Arc::clone(&store);
    sim.spawn("driver", move |mut ctx| async move {
        let ctx = &mut ctx;
        let cfg = SortConfig {
            workers: 8,
            retries: 10,
            ..SortConfig::default()
        };
        let stats = serverless_sort::<u64>(ctx, &faas, &store2, &cfg)
            .await
            .expect("sort survives injected faults");
        // Verify global order end to end despite the chaos.
        let client = store2.connect(ctx, "verify").await;
        let mut all = Vec::new();
        for run in &stats.runs {
            let data = with_retry(ctx, 10, async |c: &mut Ctx| {
                client.get(c, "data", run).await
            })
            .await
            .expect("run readable");
            let mut records: Vec<u64> = SortRecord::read_all(&data).expect("decode");
            all.append(&mut records);
        }
        assert!(all.windows(2).all(|w| w[0] <= w[1]), "globally sorted");
        assert_eq!(all.len(), 40_000);
        *out2.lock() = Some(stats.total_duration());
    });
    sim.run()?;
    let latency = out.lock().take().expect("driver ran").as_secs_f64();
    let errors = store.metrics().total().errors;
    Ok((latency, errors))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("error-rate  injected-failures  sort-latency(s)");
    for rate in [0.0, 0.02, 0.05, 0.10] {
        let (latency, errors) = run(rate)?;
        println!("{:>10.2}  {:>17}  {:>15.2}", rate, errors, latency);
    }
    println!("every run produced a fully sorted, complete output — retries absorb the faults");
    Ok(())
}
