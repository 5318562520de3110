//! Fault injection for the object store.

use rand::Rng;

/// Probabilistic fault injection applied to every request.
///
/// Used by failure-injection tests and the resilience experiments: a
/// request may fail outright (the client sees
/// [`StoreError::Injected`](crate::StoreError::Injected)).
#[derive(Debug, Clone, Default)]
pub struct FailurePolicy {
    /// Probability in `[0, 1]` that a request fails.
    pub error_rate: f64,
}

impl FailurePolicy {
    /// A policy that never injects faults.
    pub fn none() -> Self {
        FailurePolicy::default()
    }

    /// A policy failing requests with probability `rate`.
    ///
    /// # Panics
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn with_error_rate(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "error_rate must be in [0,1]");
        FailurePolicy { error_rate: rate }
    }

    /// Draws the fate of one request. An inactive policy (error rate 0)
    /// draws nothing from `rng`.
    pub fn draw(&self, rng: &mut impl Rng) -> Fate {
        if self.error_rate > 0.0 && rng.gen::<f64>() < self.error_rate {
            Fate::Fail
        } else {
            Fate::Ok
        }
    }
}

/// Outcome drawn for a single request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// Proceed normally.
    Ok,
    /// Fail with an injected error.
    Fail,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn inactive_policy_never_fails() {
        let p = FailurePolicy::none();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(p.draw(&mut rng), Fate::Ok);
        }
    }

    #[test]
    fn full_error_rate_always_fails() {
        let p = FailurePolicy::with_error_rate(1.0);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10 {
            assert_eq!(p.draw(&mut rng), Fate::Fail);
        }
    }

    #[test]
    #[should_panic(expected = "error_rate")]
    fn rejects_bad_rate() {
        FailurePolicy::with_error_rate(1.5);
    }
}
