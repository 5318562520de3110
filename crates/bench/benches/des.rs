//! Criterion micro-benchmarks of the simulation kernel: event queue
//! throughput, process churn, and fluid-flow rate solving. `FlowNet`
//! solves max-min rates lazily — `start` and `tick` only mark them
//! stale and the next query (`next_completion` here) solves once — so
//! the flow benches time a burst of changes plus the solve it costs.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use faaspipe_des::events::{EventQueue, Wake};
use faaspipe_des::flow::{FlowNet, FlowSpec};
use faaspipe_des::{Bandwidth, ByteSize, Sim, SimDuration, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(
                    SimTime::from_nanos((i * 48_271) % 1_000_000),
                    Wake::Process((i % 64) as u32),
                );
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    g.finish();
}

fn bench_process_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.sample_size(10);
    g.bench_function("spawn_sleep_join_200", |b| {
        b.iter(|| {
            let mut sim = Sim::new();
            for i in 0..200u64 {
                sim.spawn(format!("p{}", i), move |ctx| async move {
                    ctx.sleep(SimDuration::from_millis(i)).await;
                });
            }
            sim.run().expect("sim ok")
        })
    });
    g.finish();
}

fn bench_flow_recompute(c: &mut Criterion) {
    // 64 NIC-limited flows start over one backbone at one instant; the
    // closing query solves max-min rates once over all 64.
    c.bench_function("flow/start_64_shared_backbone", |b| {
        b.iter(|| {
            let mut net = FlowNet::new();
            let backbone = net.add_link(Bandwidth::mib_per_sec(10_000.0));
            for i in 0..64u32 {
                let nic = net.add_link(Bandwidth::mib_per_sec(100.0));
                net.start(
                    SimTime::ZERO,
                    FlowSpec::new(ByteSize::mib(64), &[nic, backbone]),
                    i,
                );
            }
            black_box(net.next_completion(SimTime::ZERO))
        })
    });
}

/// Sustained churn at high concurrency: `n` NIC-limited flows over one
/// shared backbone, then a scheduler-style drain loop (advance to the
/// next completion, tick, repeat) that retires every flow. The starts
/// share one instant and so one solve; every drain step then re-solves
/// over the survivors (~n flows active), so this is the stress case
/// the incremental flow network must keep proportional to *what
/// changed* — before the rewrite its cost grew with the full active set
/// per event.
fn flow_stress(n: u32) {
    let mut net = FlowNet::new();
    let backbone = net.add_link(Bandwidth::mib_per_sec(10_000.0));
    let mut now = SimTime::ZERO;
    for i in 0..n {
        let nic = net.add_link(Bandwidth::mib_per_sec(100.0));
        // Staggered sizes so completions spread out instead of
        // coalescing into one tick.
        net.start(
            now,
            FlowSpec::new(ByteSize::kib(64 + (i as u64 % 97) * 16), &[nic, backbone]),
            i,
        );
    }
    let mut woken = Vec::new();
    while let Some(t) = net.next_completion(now) {
        now = t;
        net.tick(now, &mut woken);
    }
    assert_eq!(net.active_flows(), 0);
}

fn bench_flow_stress(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_stress");
    g.sample_size(10);
    for n in [1_000u32, 10_000] {
        g.throughput(Throughput::Elements(n as u64));
        let name = format!("start_drain_{}_concurrent", n);
        g.bench_function(&name, |b| b.iter(|| flow_stress(black_box(n))));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_process_churn,
    bench_flow_recompute,
    bench_flow_stress
);
criterion_main!(benches);
