//! The request window: how every windowed fan-out of requests runs.

use faaspipe_des::Ctx;
use faaspipe_trace::TraceSink;

/// Runs `jobs` on helper processes named `"{name}#{w}"`, at most
/// `window` in flight, and returns their outputs in job order.
///
/// The helpers are the ones a `total`-job window spawns
/// (`min(window.max(1), total)`, see [`Ctx::fan_out_pinned`]), so a
/// caller that leaves out jobs touching no simulated resource (a
/// coalesced gather's empty partitions) keeps the dense window's pids and
/// schedule; every other caller passes its job count. Each job runs
/// inside the span the calling process is in when the window opens, so
/// the requests it records parent to the caller.
///
/// # Panics
/// When a job panics: the panic names the window and carries the job's
/// own message.
pub async fn windowed<T, F>(
    ctx: &Ctx,
    trace: &TraceSink,
    name: &str,
    window: usize,
    total: usize,
    jobs: impl IntoIterator<Item = F>,
) -> Vec<T>
where
    T: 'static,
    F: AsyncFnOnce(&mut Ctx) -> T + 'static,
{
    let parent = trace.current(ctx.pid());
    let jobs: Vec<_> = jobs
        .into_iter()
        .map(|job| {
            let trace = trace.clone();
            async move |cctx: &mut Ctx| {
                trace.enter(cctx.pid(), parent);
                let out = job(cctx).await;
                trace.exit(cctx.pid());
                out
            }
        })
        .collect();
    ctx.fan_out_pinned(name, window, total, jobs)
        .await
        .unwrap_or_else(|e| panic!("request window '{}' crashed: {}", name, e))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bytes::Bytes;
    use faaspipe_des::{ProcessId, Sim, SimDuration, SimError};
    use faaspipe_store::{ObjectStore, StoreConfig};
    use faaspipe_trace::{Category, SpanId};
    use faaspipe_vm::VmFleet;
    use parking_lot::Mutex;

    use super::*;
    use crate::api::{write_parts, DataExchange, ExchangeEnv, ExchangeStrategy};
    use crate::{
        DirectConfig, DirectExchange, ObjectStoreExchange, ShardedRelayConfig, ShardedRelayExchange,
    };

    /// Jobs finish in reverse order, yet come back in job order, each
    /// having run inside the span the caller was in.
    #[test]
    fn outputs_come_back_in_job_order_under_the_callers_span() {
        let mut sim = Sim::new();
        let trace = TraceSink::recording();
        sim.spawn("caller", move |ctx| async move {
            let span = trace.span_start(Category::Phase, "p", "t", "l", SpanId::NONE, ctx.now());
            trace.enter(ctx.pid(), span);
            let jobs = (0..5u64).map(|i| {
                let trace = trace.clone();
                async move |cctx: &mut Ctx| {
                    cctx.sleep(SimDuration::from_millis(10 - 2 * i)).await;
                    (i, trace.current(cctx.pid()))
                }
            });
            let out = windowed(&ctx, &trace, "w", 3, 5, jobs).await;
            let want: Vec<_> = (0..5).map(|i| (i, span)).collect();
            assert_eq!(out, want);
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn a_panicking_job_panics_naming_the_window() {
        let mut sim = Sim::new();
        sim.spawn("caller", |ctx| async move {
            let jobs = (0..3u32).map(|i| {
                async move |cctx: &mut Ctx| {
                    cctx.sleep(SimDuration::from_millis(1)).await;
                    if i == 1 {
                        panic!("job one exploded");
                    }
                    i
                }
            });
            windowed(&ctx, &TraceSink::disabled(), "reads-get", 2, 3, jobs).await;
        });
        match sim.run() {
            Err(SimError::ProcessPanicked { process, message }) => {
                assert_eq!(process, "caller");
                assert!(
                    message.contains("request window 'reads-get'"),
                    "{}",
                    message
                );
                assert!(message.contains("job one exploded"), "{}", message);
            }
            other => panic!("expected the caller to panic, got {:?}", other),
        }
    }

    /// A window pinned to a larger `total` than its job list spawns the
    /// helpers of the dense window: the next process gets the same pid
    /// and the run the same process count as with every job present.
    #[test]
    fn a_pinned_total_spawns_the_dense_windows_helpers() {
        let run = |jobs: usize| {
            let mut sim = Sim::new();
            let next: Arc<Mutex<Option<ProcessId>>> = Arc::default();
            let seen = Arc::clone(&next);
            sim.spawn("caller", move |ctx| async move {
                let jobs = (0..jobs).map(|_| async move |_: &mut Ctx| ());
                windowed(&ctx, &TraceSink::disabled(), "w", 4, 6, jobs).await;
                let probe = ctx.spawn("probe", |_| async {}).await;
                *seen.lock() = Some(probe);
            });
            let report = sim.run().expect("sim ok");
            let probe = next.lock().expect("probe spawned");
            (probe, report.processes)
        };
        let dense = run(6);
        assert_eq!(dense.1, 6, "caller, four helpers and the probe");
        assert_eq!(run(2), dense);
        assert_eq!(run(0), dense);
    }

    /// Every request a backend issues on behalf of a caller, through a
    /// window or directly, parents to the span the caller is in.
    #[test]
    fn requests_parent_to_the_callers_span_on_every_backend() {
        for kind in ["scatter", "coalesced", "relay", "direct"] {
            let mut sim = Sim::new();
            let trace = TraceSink::recording();
            let ex: Arc<dyn DataExchange> = match kind {
                "scatter" => store_backend(&mut sim, &trace, ExchangeStrategy::Scatter),
                "coalesced" => store_backend(&mut sim, &trace, ExchangeStrategy::Coalesced),
                "relay" => {
                    let cfg = ShardedRelayConfig {
                        shards: 2,
                        ..ShardedRelayConfig::default()
                    };
                    Arc::new(
                        ShardedRelayExchange::new(VmFleet::new(), cfg).with_trace(trace.clone()),
                    )
                }
                _ => {
                    Arc::new(DirectExchange::new(DirectConfig::default()).with_trace(trace.clone()))
                }
            };
            let sink = trace.clone();
            sim.spawn("caller", move |mut ctx| async move {
                let ctx = &mut ctx;
                let span = sink.span_start(
                    Category::Invocation,
                    "f",
                    "faas",
                    "f",
                    SpanId::NONE,
                    ctx.now(),
                );
                sink.enter(ctx.pid(), span);
                let env = ExchangeEnv {
                    io_window: 4,
                    ..ExchangeEnv::driver("t", 3)
                };
                ex.prepare(ctx, 2, 3).await.expect("prepare");
                for m in 0..2 {
                    let parts = (0..3)
                        .map(|j| Bytes::from(format!("m{}p{}", m, j)))
                        .collect();
                    write_parts(&*ex, ctx, &env, m, parts).await.expect("write");
                }
                for j in 0..3 {
                    let column = ex.read_gather(ctx, &env, 2, j).await.expect("gather");
                    assert_eq!(column.len(), 2, "{}: part {}", kind, j);
                }
                sink.exit(ctx.pid());
            });
            sim.run().expect("sim ok");
            let spans = trace.snapshot().spans;
            let caller = spans.iter().find(|s| s.category == Category::Invocation);
            let requests: Vec<_> = spans
                .iter()
                .filter(|s| s.category == Category::StoreRequest)
                .collect();
            assert!(requests.len() >= 8, "{}: {} requests", kind, requests.len());
            for request in requests {
                assert_eq!(
                    request.parent,
                    caller.map(|s| s.id),
                    "{}: {} request parents to the caller",
                    kind,
                    request.name
                );
            }
        }
    }

    fn store_backend(
        sim: &mut Sim,
        trace: &TraceSink,
        layout: ExchangeStrategy,
    ) -> Arc<dyn DataExchange> {
        let store = ObjectStore::install(sim, StoreConfig::default());
        store.set_trace_sink(trace.clone());
        store.create_bucket("data").expect("bucket");
        Arc::new(ObjectStoreExchange::new(store, "data", "part/", layout))
    }
}
