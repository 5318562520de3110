//! E5 — The "huge aggregated bandwidth" claim (paper §1): serverless
//! functions collectively extract far more throughput from object
//! storage than any single consumer, because each connection is capped
//! but the backbone is wide.
//!
//! Measures achieved aggregate GET throughput vs the number of
//! concurrent functions, and the single-connection VM equivalent. The
//! store's traced counters (`store.bandwidth_in_use`,
//! `store.inflight_flows`) for the widest fan-out are dumped as CSV to
//! `results/aggregate_bw_counters.csv`.
//!
//! ```text
//! cargo run --release -p faaspipe-bench --bin repro_aggregate_bw
//! ```

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use faaspipe_bench::{results_dir, write_json};
use faaspipe_core::executor::Services;
use faaspipe_des::{Ctx, Sim, SimTime};
use faaspipe_faas::{FaasConfig, FunctionEnv, FunctionPlatform};
use faaspipe_store::{ObjectStore, StoreConfig};
use faaspipe_trace::{counters_csv, TraceData, TraceSink};
use faaspipe_vm::VmFleet;

struct Row {
    consumers: usize,
    kind: String,
    aggregate_mib_s: f64,
}

faaspipe_json::json_object! { Row { req consumers, req kind, req aggregate_mib_s } }

/// Modelled object size each consumer downloads.
const OBJECT_MIB: usize = 256;

/// Modelled bytes per real byte. Each consumer stages 256 KiB of real
/// data that the store models as `OBJECT_MIB`; a power of two keeps the
/// scaled length exact, so every transfer is the full 256 MiB.
const SIZE_SCALE: usize = 1024;

fn setup(consumers: usize) -> (Sim, Services) {
    let mut sim = Sim::new();
    let cfg = StoreConfig::default().with_size_scale(SIZE_SCALE as f64);
    let store = ObjectStore::install(&mut sim, cfg);
    let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
    store.create_bucket("data").expect("bucket");
    for i in 0..consumers {
        store
            .put_untimed(
                "data",
                &format!("blob/{:04}", i),
                Bytes::from(vec![0u8; (OBJECT_MIB << 20) / SIZE_SCALE]),
            )
            .expect("stage blob");
    }
    (
        sim,
        Services {
            store,
            faas,
            fleet: VmFleet::new(),
        },
    )
}

fn functions_aggregate(consumers: usize) -> (f64, TraceData) {
    let (mut sim, services) = setup(consumers);
    let sink = TraceSink::recording();
    services.store.set_trace_sink(sink.clone());
    services.faas.set_trace_sink(sink.clone());
    let span: Arc<Mutex<(SimTime, SimTime)>> = Arc::new(Mutex::new((SimTime::MAX, SimTime::ZERO)));
    let faas = services.faas.clone();
    let store = services.store.clone();
    let span2 = Arc::clone(&span);
    sim.spawn("driver", move |ctx| async move {
        let mut hs = Vec::with_capacity(consumers);
        for i in 0..consumers {
            let store = store.clone();
            let span = Arc::clone(&span2);
            let body = async move |fctx: &mut Ctx, env: FunctionEnv| {
                let client = store.connect_via(fctx, "bw", &[env.nic]).await;
                let t0 = fctx.now();
                client
                    .get(fctx, "data", &format!("blob/{:04}", i))
                    .await
                    .expect("blob read");
                let t1 = fctx.now();
                let mut s = span.lock();
                s.0 = s.0.min(t0);
                s.1 = s.1.max(t1);
            };
            hs.push(faas.invoke(&ctx, "reader", format!("bw/{}", i), body).await);
        }
        ctx.join_all(&hs).await.expect("readers ok");
    });
    sim.run().expect("sim ok");
    let (t0, t1) = *span.lock();
    let secs = t1.saturating_duration_since(t0).as_secs_f64();
    ((consumers * OBJECT_MIB) as f64 / secs, sink.snapshot())
}

fn vm_single_connection(consumers: usize) -> f64 {
    // The same total bytes pulled by one VM over one connection.
    let (mut sim, services) = setup(consumers);
    let span: Arc<Mutex<(SimTime, SimTime)>> = Arc::new(Mutex::new((SimTime::MAX, SimTime::ZERO)));
    let fleet = services.fleet.clone();
    let store = services.store.clone();
    let span2 = Arc::clone(&span);
    sim.spawn("driver", move |mut ctx| async move {
        let ctx = &mut ctx;
        let vm = fleet
            .provision(ctx, faaspipe_vm::VmProfile::bx2_8x32())
            .await;
        let client = store.connect_via(ctx, "vm-bw", &[vm.nic]).await;
        let t0 = ctx.now();
        for i in 0..consumers {
            client
                .get(ctx, "data", &format!("blob/{:04}", i))
                .await
                .expect("blob read");
        }
        let t1 = ctx.now();
        *span2.lock() = (t0, t1);
        fleet.release(ctx, vm);
    });
    sim.run().expect("sim ok");
    let (t0, t1) = *span.lock();
    let secs = t1.saturating_duration_since(t0).as_secs_f64();
    (consumers * OBJECT_MIB) as f64 / secs
}

fn main() {
    let mut rows = Vec::new();
    println!("consumers  functions-aggregate(MiB/s)   vm-single-conn(MiB/s)");
    let mut last_fn = 0.0;
    let mut widest_trace = TraceData::default();
    for &n in &[1usize, 2, 4, 8, 16, 32, 64] {
        let (fn_bw, trace) = functions_aggregate(n);
        widest_trace = trace;
        let vm_bw = vm_single_connection(n);
        println!("{:>9}  {:>26.0}   {:>21.0}", n, fn_bw, vm_bw);
        rows.push(Row {
            consumers: n,
            kind: "functions".into(),
            aggregate_mib_s: fn_bw,
        });
        rows.push(Row {
            consumers: n,
            kind: "vm-single-connection".into(),
            aggregate_mib_s: vm_bw,
        });
        last_fn = fn_bw;
    }
    let one = rows
        .iter()
        .find(|r| r.consumers == 1 && r.kind == "functions")
        .expect("n=1 row")
        .aggregate_mib_s;
    println!(
        "aggregate scales {:.1}x from 1 to 64 functions; a VM stays flat at its \
         single-connection cap",
        last_fn / one
    );
    assert!(
        last_fn > one * 8.0,
        "aggregated bandwidth must grow with parallelism: {:.0} -> {:.0}",
        one,
        last_fn
    );
    let peak_bw = widest_trace
        .counter("store.bandwidth_in_use")
        .map(|c| c.points.iter().map(|&(_, v)| v).fold(0.0, f64::max))
        .unwrap_or(0.0);
    let peak_flows = widest_trace
        .counter("store.inflight_flows")
        .map(|c| c.points.iter().map(|&(_, v)| v).fold(0.0, f64::max))
        .unwrap_or(0.0);
    println!(
        "traced peak at 64 functions: {:.0} MiB/s in use across {:.0} concurrent flows",
        peak_bw / (1024.0 * 1024.0),
        peak_flows
    );
    assert!(peak_flows >= 32.0, "wide fan-out must overlap flows");
    let csv_path = results_dir().join("aggregate_bw_counters.csv");
    std::fs::write(&csv_path, counters_csv(&widest_trace)).expect("write counters csv");
    eprintln!("wrote {}", csv_path.display());
    write_json("aggregate_bw", &rows);
}
