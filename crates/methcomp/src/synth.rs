//! Statistical WGBS bedMethyl synthesizer.
//!
//! Stands in for the paper's 3.5 GB ENCODE sample (ENCFF988BSW). The
//! generator reproduces the dataset properties the pipeline and the codec
//! are sensitive to:
//!
//! * CpG sites are sparse and *clustered*: long inter-site gaps punctuated
//!   by dense CpG islands (mixture of geometric gap distributions);
//! * each CpG yields calls on both strands at adjacent coordinates;
//! * coverage is over-dispersed around ~30× (Poisson-Gamma);
//! * methylation is strongly bimodal — islands hypomethylated, open sea
//!   hypermethylated;
//! * chromosome sizes follow hg38 proportions.
//!
//! Generation is deterministic per seed.

use std::collections::TryReserveError;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[cfg(test)]
use crate::bed::CHROM_NAMES;
use crate::bed::{Dataset, MethRecord, Strand};

/// Approximate hg38 chromosome lengths in megabases, same order as
/// [`CHROM_NAMES`].
const CHROM_MB: [u32; 24] = [
    249, 242, 198, 190, 182, 171, 159, 145, 138, 134, 135, 133, 114, 107, 102, 90, 83, 80, 59, 64,
    47, 51, 156, 57,
];

/// An empty record buffer with room for `n` records, or the error the
/// allocator reported: a count the host cannot hold fails here instead of
/// aborting the process.
///
/// # Errors
/// When `n` records overflow the address space or the allocator cannot
/// provide them.
pub fn reserve_records(n: usize) -> Result<Vec<MethRecord>, TryReserveError> {
    let mut records = Vec::new();
    records.try_reserve_exact(n)?;
    Ok(records)
}

/// Deterministic WGBS dataset generator.
#[derive(Debug)]
pub struct Synthesizer {
    rng: SmallRng,
    /// Mean read coverage.
    pub mean_coverage: f64,
    /// Fraction of CpGs inside hypomethylated islands.
    pub island_fraction: f64,
}

impl Synthesizer {
    /// Creates a generator with the given seed and default WGBS
    /// statistics.
    pub fn new(seed: u64) -> Synthesizer {
        Synthesizer {
            rng: SmallRng::seed_from_u64(seed),
            mean_coverage: 30.0,
            island_fraction: 0.22,
        }
    }

    /// Geometric gap with the given mean (>= 2, CpGs cannot overlap).
    fn gap(&mut self, mean: f64) -> u64 {
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        2 + (-u.ln() * mean) as u64
    }

    /// Over-dispersed coverage: Gamma-mixed Poisson approximated by a
    /// scaled exponential mixture (cheap, right shape).
    fn coverage(&mut self) -> u32 {
        let base = self.mean_coverage;
        let dispersion: f64 = 0.35;
        let gamma = 1.0 + dispersion * (self.rng.gen::<f64>() - 0.5) * 2.0;
        let lambda = (base * gamma).max(1.0);
        // Poisson via normal approximation (lambda ~ 30).
        let (u1, u2): (f64, f64) = (self.rng.gen::<f64>().max(1e-12), self.rng.gen());
        let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (lambda + normal * lambda.sqrt()).round().max(1.0) as u32
    }

    /// Bimodal methylation percentage.
    fn meth_pct(&mut self, in_island: bool) -> u8 {
        let (center, spread) = if in_island { (4.0, 6.0) } else { (88.0, 9.0) };
        let (u1, u2): (f64, f64) = (self.rng.gen::<f64>().max(1e-12), self.rng.gen());
        let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (center + normal * spread).round().clamp(0.0, 100.0) as u8
    }

    /// Generates `n` records in genome order (sorted).
    ///
    /// # Panics
    /// When the host cannot hold `n` records (see [`reserve_records`]).
    pub fn generate_records(&mut self, n: usize) -> Dataset {
        let total_mb: u64 = CHROM_MB.iter().map(|&m| m as u64).sum();
        let mut records =
            reserve_records(n).unwrap_or_else(|e| panic!("cannot hold {} records: {}", n, e));
        // Allocate record counts per chromosome proportional to length.
        for (ci, &mb) in CHROM_MB.iter().enumerate() {
            let share = ((n as u64 * mb as u64) / total_mb) as usize;
            let quota = if ci == CHROM_MB.len() - 1 {
                n - records.len()
            } else {
                share.min(n - records.len())
            };
            self.fill_chrom(ci as u8, quota, &mut records);
            if records.len() >= n {
                break;
            }
        }
        Dataset::new(records)
    }

    fn fill_chrom(&mut self, chrom: u8, quota: usize, out: &mut Vec<MethRecord>) {
        let mut pos: u64 = 10_000;
        let mut emitted = 0usize;
        let mut in_island = false;
        let mut island_left = 0usize;
        while emitted < quota {
            if island_left == 0 {
                in_island = self.rng.gen::<f64>() < self.island_fraction;
                island_left = if in_island {
                    20 + (self.rng.gen::<f64>() * 60.0) as usize
                } else {
                    40 + (self.rng.gen::<f64>() * 200.0) as usize
                };
            }
            island_left -= 1;
            let mean_gap = if in_island { 18.0 } else { 350.0 };
            pos += self.gap(mean_gap);
            // A CpG yields a + call and, usually, the paired - call at the
            // next base.
            let meth = self.meth_pct(in_island);
            out.push(MethRecord {
                chrom,
                start: pos,
                end: pos + 1,
                strand: Strand::Plus,
                coverage: self.coverage(),
                meth_pct: meth,
            });
            emitted += 1;
            if emitted < quota && self.rng.gen::<f64>() < 0.92 {
                // Paired call: similar but not identical methylation.
                let jitter = (self.rng.gen::<f64>() * 10.0 - 5.0) as i32;
                let pct = (meth as i32 + jitter).clamp(0, 100) as u8;
                out.push(MethRecord {
                    chrom,
                    start: pos + 1,
                    end: pos + 2,
                    strand: Strand::Minus,
                    coverage: self.coverage(),
                    meth_pct: pct,
                });
                emitted += 1;
            }
        }
    }

    /// Generates `n` records and then deterministically shuffles them —
    /// the pipeline input shape (unsorted calls straight from the caller).
    pub fn generate_shuffled(&mut self, n: usize) -> Dataset {
        let mut ds = self.generate_records(n);
        // Fisher-Yates with the generator's own rng.
        for i in (1..ds.records.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            ds.records.swap(i, j);
        }
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = Synthesizer::new(42).generate_records(2_000);
        let b = Synthesizer::new(42).generate_records(2_000);
        let c = Synthesizer::new(43).generate_records(2_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generates_requested_count_sorted() {
        let ds = Synthesizer::new(1).generate_records(10_000);
        assert_eq!(ds.len(), 10_000);
        assert!(ds.is_sorted());
    }

    #[test]
    fn records_are_valid_bed() {
        let ds = Synthesizer::new(2).generate_records(3_000);
        let text = ds.to_text();
        let parsed = Dataset::from_text(&text).expect("valid BED");
        assert_eq!(parsed, ds);
    }

    #[test]
    fn coverage_is_realistic() {
        let ds = Synthesizer::new(3).generate_records(20_000);
        let mean: f64 = ds.records.iter().map(|r| r.coverage as f64).sum::<f64>() / ds.len() as f64;
        assert!((20.0..40.0).contains(&mean), "mean coverage {}", mean);
        assert!(ds.records.iter().all(|r| r.coverage >= 1));
    }

    #[test]
    fn methylation_is_bimodal() {
        let ds = Synthesizer::new(4).generate_records(20_000);
        let low = ds.records.iter().filter(|r| r.meth_pct < 20).count();
        let high = ds.records.iter().filter(|r| r.meth_pct > 70).count();
        let mid = ds.len() - low - high;
        assert!(low > ds.len() / 20, "hypomethylated mass: {}", low);
        assert!(high > ds.len() / 2, "hypermethylated mass: {}", high);
        assert!(mid < ds.len() / 4, "valley in the middle: {}", mid);
    }

    #[test]
    fn chromosomes_follow_length_proportions() {
        let ds = Synthesizer::new(5).generate_records(50_000);
        let chr1 = ds.records.iter().filter(|r| r.chrom == 0).count();
        let chr21 = ds.records.iter().filter(|r| r.chrom == 20).count();
        assert!(chr1 > chr21 * 2, "chr1 {} vs chr21 {}", chr1, chr21);
        // All catalog chromosomes appear in a big sample.
        for c in 0..CHROM_NAMES.len() as u8 {
            assert!(
                ds.records.iter().any(|r| r.chrom == c),
                "missing chrom {}",
                c
            );
        }
    }

    #[test]
    fn shuffled_is_permutation_of_sorted() {
        let sorted = Synthesizer::new(8).generate_records(5_000);
        let mut shuffled = Synthesizer::new(8).generate_shuffled(5_000);
        assert_ne!(sorted, shuffled, "must actually shuffle");
        assert!(!shuffled.is_sorted());
        shuffled.sort();
        assert_eq!(shuffled, sorted);
    }
}
