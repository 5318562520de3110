//! Dataset summary statistics.

use crate::bed::Dataset;

/// Summary of a bedMethyl dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Record count.
    pub records: usize,
    /// Serialized text size in bytes.
    pub text_bytes: usize,
    /// Mean read coverage.
    pub mean_coverage: f64,
    /// Fraction of records with methylation > 50%.
    pub methylated_fraction: f64,
    /// Number of distinct chromosomes present.
    pub chromosomes: usize,
}

impl DatasetStats {
    /// Computes statistics for `dataset`.
    pub fn of(dataset: &Dataset) -> DatasetStats {
        let n = dataset.len();
        let mut coverage_sum = 0u64;
        let mut methylated = 0usize;
        let mut chroms = [false; 24];
        let mut text_bytes = 0usize;
        for r in &dataset.records {
            coverage_sum += r.coverage as u64;
            if r.meth_pct > 50 {
                methylated += 1;
            }
            chroms[r.chrom as usize] = true;
            text_bytes += r.line_len() + 1;
        }
        DatasetStats {
            records: n,
            text_bytes,
            mean_coverage: if n == 0 {
                0.0
            } else {
                coverage_sum as f64 / n as f64
            },
            methylated_fraction: if n == 0 {
                0.0
            } else {
                methylated as f64 / n as f64
            },
            chromosomes: chroms.iter().filter(|&&c| c).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::Synthesizer;

    #[test]
    fn empty_dataset_stats() {
        let s = DatasetStats::of(&Dataset::default());
        assert_eq!(s.records, 0);
        assert_eq!(s.text_bytes, 0);
        assert_eq!(s.mean_coverage, 0.0);
        assert_eq!(s.chromosomes, 0);
    }

    #[test]
    fn synthetic_stats_are_plausible() {
        let ds = Synthesizer::new(9).generate_records(30_000);
        let s = DatasetStats::of(&ds);
        assert_eq!(s.records, 30_000);
        assert_eq!(s.text_bytes, ds.to_text().len());
        assert!((20.0..40.0).contains(&s.mean_coverage));
        assert!(s.methylated_fraction > 0.5, "WGBS is mostly methylated");
        assert!(s.chromosomes >= 20);
    }
}
