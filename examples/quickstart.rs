//! Quickstart: stand up a simulated cloud, move data through object
//! storage from serverless functions, and read the bill.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use bytes::Bytes;

use faaspipe::core::pricing::PriceBook;
use faaspipe::des::{Ctx, Sim, SimDuration};
use faaspipe::faas::{FaasConfig, FunctionEnv, FunctionPlatform};
use faaspipe::store::{ObjectStore, StoreConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A simulation plus the two services every pipeline needs.
    let mut sim = Sim::new();
    let store = ObjectStore::install(&mut sim, StoreConfig::default());
    let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
    store.create_bucket("data")?;

    // 2. A driver process that fans out four functions; each writes and
    //    re-reads an object. Bodies are plain Rust async closures — time
    //    is virtual, the bytes are real.
    let store2 = Arc::clone(&store);
    let faas2 = Arc::clone(&faas);
    sim.spawn("driver", move |ctx| async move {
        let mut handles = Vec::new();
        for i in 0..4 {
            let store = Arc::clone(&store2);
            let body = async move |fctx: &mut Ctx, env: FunctionEnv| {
                let client = store.connect_via(fctx, "quickstart", &[env.nic]).await;
                let key = format!("greeting/{}", i);
                let body = Bytes::from(vec![i as u8; 8 << 20]); // 8 MiB
                client.put(fctx, "data", &key, body).await.expect("put");
                let back = client.get(fctx, "data", &key).await.expect("get");
                assert_eq!(back.len(), 8 << 20);
                env.compute(fctx, SimDuration::from_millis(150)).await;
            };
            let tag = format!("quickstart/{}", i);
            handles.push(faas2.invoke(&ctx, "worker", tag, body).await);
        }
        ctx.join_all(&handles).await.expect("workers ok");
        println!("all workers finished at t = {}", ctx.now());
    });

    // 3. Run to completion and settle the bill.
    let report = sim.run()?;
    println!(
        "simulated {} events across {} processes, virtual end time {}",
        report.events, report.processes, report.end_time
    );
    let book = PriceBook::default();
    let cost = book.assemble(&faas.records(), &store.metrics(), &[], report.end_time);
    println!("{}", cost.render());
    Ok(())
}
