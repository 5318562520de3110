//! The shared virtual-time retry helper used by every exchange backend.

use faaspipe_des::{Ctx, SimDuration};
use faaspipe_store::StoreError;
use rand::Rng;

/// Classifies an error as worth retrying (transient) or terminal.
pub trait Retryable {
    /// Whether a retry of the same operation can plausibly succeed.
    fn is_retryable(&self) -> bool;
}

impl Retryable for StoreError {
    fn is_retryable(&self) -> bool {
        matches!(self, StoreError::Injected { .. })
    }
}

/// First backoff step after a failed attempt.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(10);
/// Backoff ceiling — later attempts never sleep longer than this (before
/// jitter).
const BACKOFF_CAP: SimDuration = SimDuration::from_millis(5_000);

/// Retries `op` up to `attempts` times on [retryable](Retryable) errors,
/// sleeping an exponentially growing, jittered backoff in **virtual
/// time** between attempts. The jitter is drawn from the calling
/// process's deterministic DES rng, so same-seed runs retry identically.
/// Non-retryable errors surface immediately. `op` is an async closure
/// re-invoked per attempt.
///
/// # Errors
/// The last retryable error if every attempt failed, or the first
/// non-retryable error.
pub async fn with_retry<T, E: Retryable, Op>(
    ctx: &mut Ctx,
    attempts: u32,
    mut op: Op,
) -> Result<T, E>
where
    Op: AsyncFnMut(&mut Ctx) -> Result<T, E>,
{
    let attempts = attempts.max(1);
    let mut last = None;
    for attempt in 0..attempts {
        match op(ctx).await {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() => {
                last = Some(e);
                if attempt + 1 < attempts {
                    let pause = backoff(ctx, attempt);
                    ctx.sleep(pause).await;
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("at least one attempt"))
}

/// Backoff before retry number `attempt + 2`: `BASE * 2^attempt`,
/// capped, scaled by a jitter factor in `[0.5, 1.5)`.
fn backoff(ctx: &mut Ctx, attempt: u32) -> SimDuration {
    let exp = BACKOFF_BASE
        .saturating_mul(1u64 << attempt.min(16))
        .max(BACKOFF_BASE);
    let capped = if exp > BACKOFF_CAP { BACKOFF_CAP } else { exp };
    let jitter = 0.5 + ctx.rng().gen::<f64>();
    capped.mul_f64(jitter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_des::Sim;

    #[test]
    fn gives_up_after_attempts_and_sleeps_between_them() {
        let mut sim = Sim::new();
        sim.spawn("p", move |mut ctx| async move {
            let ctx = &mut ctx;
            let mut calls = 0;
            let before = ctx.now();
            let result: Result<(), StoreError> = with_retry(ctx, 3, async |_: &mut Ctx| {
                calls += 1;
                Err(StoreError::Injected { op: "GET" })
            })
            .await;
            assert!(result.is_err());
            assert_eq!(calls, 3);
            // Two backoff sleeps happened: at least BASE/2 each.
            let waited = ctx.now().saturating_duration_since(before);
            assert!(waited >= SimDuration::from_millis(10));
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn non_retryable_errors_do_not_retry() {
        let mut sim = Sim::new();
        sim.spawn("p", move |mut ctx| async move {
            let ctx = &mut ctx;
            let mut calls = 0;
            let before = ctx.now();
            let result: Result<(), StoreError> = with_retry(ctx, 5, async |_: &mut Ctx| {
                calls += 1;
                Err(StoreError::NoSuchKey {
                    bucket: "b".into(),
                    key: "k".into(),
                })
            })
            .await;
            assert!(result.is_err());
            assert_eq!(calls, 1);
            assert_eq!(ctx.now(), before, "no backoff for terminal errors");
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn success_is_immediate_and_free() {
        let mut sim = Sim::new();
        sim.spawn("p", move |mut ctx| async move {
            let ctx = &mut ctx;
            let before = ctx.now();
            let v: Result<u32, StoreError> = with_retry(ctx, 3, async |_: &mut Ctx| Ok(42)).await;
            assert_eq!(v.unwrap(), 42);
            assert_eq!(ctx.now(), before);
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn backoff_grows_exponentially_until_capped() {
        let mut sim = Sim::new();
        sim.spawn("p", move |mut ctx| async move {
            let ctx = &mut ctx;
            // Jitter is in [0.5, 1.5), so bounds are deterministic.
            let b0 = backoff(ctx, 0);
            assert!(b0 >= SimDuration::from_millis(5) && b0 < SimDuration::from_millis(15));
            let b4 = backoff(ctx, 4);
            assert!(b4 >= SimDuration::from_millis(80) && b4 < SimDuration::from_millis(240));
            let huge = backoff(ctx, 40);
            assert!(huge < SimDuration::from_millis(7_500), "cap applies");
        });
        sim.run().expect("sim ok");
    }
}
