//! Failure injection against the non-store exchange backends: transient
//! faults must be absorbed by the shared retry helper, terminal faults
//! (relay VM crash, expired direct-stream peer) must fail the sort
//! loudly instead of producing silent corruption, and so must a backend
//! that silently loses data.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use faaspipe_des::{Ctx, LocalBoxFuture, Sim, SimDuration};
use faaspipe_exchange::{
    DataExchange, DirectConfig, DirectExchange, ExchangeEnv, ExchangeError, RelayConfig,
    ShardedRelayConfig, ShardedRelayExchange,
};
use faaspipe_faas::{FaasConfig, FunctionPlatform};
use faaspipe_shuffle::{serverless_sort, ShuffleError, SortConfig, SortRecord};
use faaspipe_store::{FailurePolicy, ObjectStore, StoreConfig};
use faaspipe_vm::VmFleet;

fn upload(store: &Arc<ObjectStore>, values: &[u64], chunks: usize) {
    store.create_bucket("data").expect("bucket");
    let per = values.len().div_ceil(chunks);
    for (i, chunk) in values.chunks(per).enumerate() {
        let data = SortRecord::write_all(chunk);
        store
            .put_untimed("data", &format!("in/{:04}", i), Bytes::from(data))
            .expect("upload");
    }
}

type SortOutcome = Result<Vec<u64>, ShuffleError>;

/// The paper's single relay VM (`vm_relay`): a cold one-shard fleet.
fn single_relay(relay: RelayConfig) -> ShardedRelayExchange {
    ShardedRelayExchange::new(
        VmFleet::new(),
        ShardedRelayConfig {
            relay,
            shards: 1,
            prewarm: false,
        },
    )
}

/// Runs a 4-worker sort over `backend` and returns the result (the
/// concatenated output on success).
fn sort_with(backend: Arc<dyn DataExchange>, retries: u32, task_attempts: u32) -> SortOutcome {
    let mut sim = Sim::new();
    let store = ObjectStore::install(&mut sim, StoreConfig::default());
    let faas = FunctionPlatform::install(&mut sim, FaasConfig::default());
    let values: Vec<u64> = (0..3_000u64).rev().collect();
    upload(&store, &values, 4);
    let out: Arc<Mutex<Option<SortOutcome>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let store2 = Arc::clone(&store);
    sim.spawn("driver", move |mut ctx| async move {
        let ctx = &mut ctx;
        let cfg = SortConfig {
            workers: 4,
            retries,
            task_attempts,
            backend: Some(backend),
            ..SortConfig::default()
        };
        let result = match serverless_sort::<u64>(ctx, &faas, &store2, &cfg).await {
            Ok(stats) => {
                let client = store2.connect(ctx, "verify").await;
                let mut all = Vec::new();
                for run in &stats.runs {
                    let data = client.get(ctx, "data", run).await.expect("run exists");
                    let mut records: Vec<u64> = SortRecord::read_all(&data).expect("decode");
                    all.append(&mut records);
                }
                Ok(all)
            }
            Err(e) => Err(e),
        };
        *out2.lock() = Some(result);
    });
    sim.run().expect("sim ok");
    let result = out.lock().take().expect("driver ran");
    result
}

#[test]
fn relay_transient_faults_recover_through_retries() {
    let relay = single_relay(RelayConfig {
        failure: FailurePolicy::with_error_rate(0.2),
        ..RelayConfig::default()
    });
    let sorted = sort_with(Arc::new(relay), 20, 2).expect("retries absorb 20% relay faults");
    assert_eq!(sorted, (0..3_000u64).collect::<Vec<_>>());
}

#[test]
fn relay_crash_mid_shuffle_fails_loudly() {
    // The relay VM dies after a handful of requests; the crash is
    // terminal (RelayDown is not retryable), so task re-invocation
    // cannot save the phase and the sort must surface TaskFailed.
    let relay = single_relay(RelayConfig {
        crash_after_requests: Some(6),
        ..RelayConfig::default()
    });
    let err = sort_with(Arc::new(relay), 8, 3).expect_err("crashed relay cannot complete");
    match err {
        ShuffleError::TaskFailed { message, .. } => {
            assert!(
                message.contains("relay"),
                "failure must name the relay: {}",
                message
            );
        }
        other => panic!("expected TaskFailed, got {:?}", other),
    }
}

#[test]
fn direct_peer_timeouts_recover_through_retries() {
    let direct = DirectExchange::new(DirectConfig {
        failure: FailurePolicy::with_error_rate(0.3),
        ..DirectConfig::default()
    });
    let sorted = sort_with(Arc::new(direct), 20, 2).expect("retries absorb 30% peer timeouts");
    assert_eq!(sorted, (0..3_000u64).collect::<Vec<_>>());
}

#[test]
fn direct_expired_senders_fail_loudly() {
    // With a keep-alive far shorter than the gap between the map and
    // reduce phases, every sender is cold by the time reducers stream:
    // PeerGone is terminal and the reduce phase must fail loudly.
    let direct = DirectExchange::new(DirectConfig {
        keep_alive: SimDuration::from_millis(1),
        ..DirectConfig::default()
    });
    let err = sort_with(Arc::new(direct), 3, 2).expect_err("cold senders cannot stream");
    match err {
        ShuffleError::TaskFailed { phase, message } => {
            assert_eq!(phase, "reduce");
            assert!(
                message.contains("no longer warm") || message.contains("gather"),
                "failure must explain the cold peer: {}",
                message
            );
        }
        other => panic!("expected TaskFailed, got {:?}", other),
    }
}

/// A backend that silently loses data: it forwards every call to
/// `inner`, but drops the first non-empty run of partition 0's column
/// from the reducer's gather and reports no error.
#[derive(Debug)]
struct DropsARun {
    inner: DirectExchange,
}

impl DataExchange for DropsARun {
    fn name(&self) -> &'static str {
        "drops-a-run"
    }

    fn prepare<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        maps: usize,
        parts: usize,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>> {
        self.inner.prepare(ctx, maps, parts)
    }

    fn write_run<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
        map: usize,
        run: Bytes,
        cuts: Vec<(u32, u64, u64)>,
        parts_len: usize,
    ) -> LocalBoxFuture<'a, Result<u64, ExchangeError>> {
        self.inner.write_run(ctx, env, map, run, cuts, parts_len)
    }

    fn read_gather<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
        maps: usize,
        part: usize,
    ) -> LocalBoxFuture<'a, Result<Vec<Bytes>, ExchangeError>> {
        Box::pin(async move {
            let mut runs = self.inner.read_gather(ctx, env, maps, part).await?;
            if part == 0 && !runs.is_empty() {
                runs.remove(0);
            }
            Ok(runs)
        })
    }

    fn cleanup<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>> {
        self.inner.cleanup(ctx, env)
    }
}

#[test]
fn a_gather_that_drops_a_run_fails_byte_conservation() {
    // Every function succeeds and the sorted runs are well formed, but
    // the smallest keys never reach a reducer: only the byte totals
    // show the loss.
    let lossy = DropsARun {
        inner: DirectExchange::new(DirectConfig::default()),
    };
    let err = sort_with(Arc::new(lossy), 3, 2).expect_err("a lost run must not pass as sorted");
    match err {
        ShuffleError::Conservation {
            phase,
            input,
            output,
        } => {
            assert_eq!(phase, "exchange");
            assert_eq!(input, 3_000 * 8, "the mappers wrote every input byte");
            assert!(output < input && output > 0, "{} of {}", output, input);
        }
        other => panic!("expected Conservation, got {:?}", other),
    }
}
