//! Object-store performance model configuration.

use faaspipe_des::{Bandwidth, SimDuration};

use crate::failure::FailurePolicy;

/// Performance and scaling model for the object store.
///
/// Defaults are calibrated to public IBM COS / S3 measurements circa 2021:
/// tens of milliseconds to first byte, on the order of 100 MB/s per
/// connection, a backbone measured in tens of GB/s (the "huge aggregated
/// bandwidth" the paper leans on), and a few thousand requests per second
/// of sustained operation throughput.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Time from issuing a request to the first payload byte.
    pub first_byte_latency: SimDuration,
    /// Per-connection (per-client) bandwidth cap.
    pub per_connection_bw: Bandwidth,
    /// Aggregate backbone bandwidth across all connections.
    pub aggregate_bw: Bandwidth,
    /// Sustained operations per second before requests queue.
    pub ops_per_sec: f64,
    /// Burst capacity of the operations budget, in operations.
    pub ops_burst: f64,
    /// Multiplier applied to payload sizes when charging transfer time and
    /// byte metrics. Lets experiments run a physically smaller dataset
    /// while *modelling* the paper's full 3.5 GB (see DESIGN.md); `1.0`
    /// means real scale.
    pub size_scale: f64,
    /// Fault-injection policy.
    pub failure: FailurePolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            first_byte_latency: SimDuration::from_millis(28),
            per_connection_bw: Bandwidth::mib_per_sec(95.0),
            aggregate_bw: Bandwidth::gbit_per_sec(200.0),
            ops_per_sec: 3_000.0,
            ops_burst: 3_000.0,
            size_scale: 1.0,
            failure: FailurePolicy::default(),
        }
    }
}

impl StoreConfig {
    /// Returns the config with a different ops/s budget (burst follows).
    pub fn with_ops_per_sec(mut self, ops: f64) -> Self {
        self.ops_per_sec = ops;
        self.ops_burst = ops;
        self
    }

    /// Returns the config with a different size scale.
    ///
    /// # Panics
    /// Panics if `scale` is not strictly positive and finite.
    pub fn with_size_scale(mut self, scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "size_scale must be positive and finite"
        );
        self.size_scale = scale;
        self
    }

    /// Returns the config with the given failure policy.
    pub fn with_failure(mut self, failure: FailurePolicy) -> Self {
        self.failure = failure;
        self
    }

    /// The modelled wire size for a payload of `real_len` bytes.
    pub fn scaled_len(&self, real_len: usize) -> u64 {
        scaled_len(real_len, self.size_scale)
    }
}

/// The modelled wire size of a `real_len`-byte payload at `size_scale`,
/// rounded to the nearest byte: the one rounding the store and the
/// exchange backends share.
pub fn scaled_len(real_len: usize, size_scale: f64) -> u64 {
    (real_len as f64 * size_scale).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = StoreConfig::default();
        assert!(c.ops_per_sec >= 1_000.0, "paper: a few thousand ops/s");
        assert!(c.per_connection_bw.as_bytes_per_sec() < c.aggregate_bw.as_bytes_per_sec());
        assert_eq!(c.size_scale, 1.0);
    }

    #[test]
    fn scaled_len_rounds() {
        let c = StoreConfig::default().with_size_scale(10.0);
        assert_eq!(c.scaled_len(100), 1000);
        let c = StoreConfig::default().with_size_scale(0.25);
        assert_eq!(c.scaled_len(10), 3); // 2.5 rounds up
    }

    #[test]
    #[should_panic(expected = "size_scale")]
    fn rejects_zero_scale() {
        StoreConfig::default().with_size_scale(0.0);
    }
}
