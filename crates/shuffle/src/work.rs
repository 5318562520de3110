//! Calibrated CPU-work model.
//!
//! Function and VM bodies perform real data transformations but charge
//! *virtual* CPU time. The charge is `modelled_bytes / throughput`, where
//! the throughputs below are calibrated to a single modern x86 vCPU
//! running the corresponding Rust kernels (sorting ~100 MB/s including
//! parse+serialize, k-way merging faster, METHCOMP encoding slower than
//! plain merging, LZ77+Huffman much slower). EXPERIMENTS.md records how
//! this calibration maps onto the paper's absolute numbers.

use faaspipe_des::SimDuration;

/// Per-vCPU throughputs (MiB/s) for the pipeline's compute kernels.
#[derive(Debug, Clone)]
pub struct WorkModel {
    /// Local sort of binary records (parse + sort + serialize).
    pub sort_mibps: f64,
    /// Range-partitioning a locally sorted buffer.
    pub partition_mibps: f64,
    /// K-way merging sorted runs.
    pub merge_mibps: f64,
    /// METHCOMP columnar encoding.
    pub methcomp_encode_mibps: f64,
    /// gzip-class LZ77+Huffman encoding.
    pub gzip_encode_mibps: f64,
    /// Parsing bedMethyl text into records.
    pub parse_mibps: f64,
    /// Multiplier on all modelled byte counts, mirroring the store's
    /// `size_scale` so a physically small run charges full-scale compute.
    pub size_scale: f64,
}

impl Default for WorkModel {
    fn default() -> Self {
        WorkModel {
            sort_mibps: 95.0,
            partition_mibps: 160.0,
            merge_mibps: 180.0,
            methcomp_encode_mibps: 85.0,
            gzip_encode_mibps: 36.0,
            parse_mibps: 140.0,
            size_scale: 1.0,
        }
    }
}

impl WorkModel {
    /// Returns the model with a different size scale.
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

    fn time(&self, real_bytes: usize, mibps: f64) -> SimDuration {
        let modelled = real_bytes as f64 * self.size_scale;
        SimDuration::from_secs_f64(modelled / (mibps * 1024.0 * 1024.0))
    }

    /// Single-vCPU time to locally sort `real_bytes` of records.
    pub fn sort_time(&self, real_bytes: usize) -> SimDuration {
        self.time(real_bytes, self.sort_mibps)
    }

    /// Single-vCPU time to partition `real_bytes`.
    pub fn partition_time(&self, real_bytes: usize) -> SimDuration {
        self.time(real_bytes, self.partition_mibps)
    }

    /// Single-vCPU time to merge `real_bytes` of sorted runs.
    pub fn merge_time(&self, real_bytes: usize) -> SimDuration {
        self.time(real_bytes, self.merge_mibps)
    }

    /// Single-vCPU time to METHCOMP-encode `real_bytes`.
    pub fn methcomp_encode_time(&self, real_bytes: usize) -> SimDuration {
        self.time(real_bytes, self.methcomp_encode_mibps)
    }

    /// Single-vCPU time to gzip-encode `real_bytes`.
    pub fn gzip_encode_time(&self, real_bytes: usize) -> SimDuration {
        self.time(real_bytes, self.gzip_encode_mibps)
    }

    /// Single-vCPU time to parse `real_bytes` of BED text.
    pub fn parse_time(&self, real_bytes: usize) -> SimDuration {
        self.time(real_bytes, self.parse_mibps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_linearly_with_bytes() {
        let m = WorkModel::default();
        let t1 = m.sort_time(1024 * 1024);
        let t2 = m.sort_time(2 * 1024 * 1024);
        assert_eq!(t2.as_nanos(), 2 * t1.as_nanos());
    }

    #[test]
    fn size_scale_multiplies_charge() {
        let base = WorkModel::default();
        let scaled = WorkModel::default().with_size_scale(10.0);
        assert_eq!(
            scaled.sort_time(1000).as_nanos(),
            base.sort_time(10_000).as_nanos()
        );
    }

    #[test]
    fn kernel_order_is_sane() {
        let m = WorkModel::default();
        // gzip is the slowest kernel, merging among the fastest.
        assert!(m.gzip_encode_mibps < m.methcomp_encode_mibps);
        assert!(m.sort_mibps < m.merge_mibps);
    }

    #[test]
    #[should_panic(expected = "size_scale")]
    fn rejects_bad_scale() {
        WorkModel::default().with_size_scale(f64::NAN);
    }
}
