//! The bedMethyl record model.
//!
//! ENCODE WGBS methylation calls ship as 11-column BED ("bedMethyl"):
//!
//! ```text
//! chrom  start  end  name  score  strand  thickStart  thickEnd  itemRgb  coverage  methPct
//! ```
//!
//! Several columns are derived (`name` is always `.`, `score` is
//! `min(coverage, 1000)`, `thickStart`/`thickEnd` mirror the interval,
//! `itemRgb` encodes the methylation level) — redundancy a
//! special-purpose codec exploits and a byte-oriented one pays for.

use std::fmt;

/// Canonical chromosome order used for sort keys and compact ids
/// (hg38 autosomes + X, Y).
pub const CHROM_NAMES: [&str; 24] = [
    "chr1", "chr2", "chr3", "chr4", "chr5", "chr6", "chr7", "chr8", "chr9", "chr10", "chr11",
    "chr12", "chr13", "chr14", "chr15", "chr16", "chr17", "chr18", "chr19", "chr20", "chr21",
    "chr22", "chrX", "chrY",
];

/// Looks up a chromosome's compact id.
pub fn chrom_id(name: &str) -> Option<u8> {
    CHROM_NAMES.iter().position(|&c| c == name).map(|i| i as u8)
}

/// Number of decimal digits in `n`.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Read strand of a methylation call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Strand {
    /// `+`
    Plus,
    /// `-`
    Minus,
}

impl Strand {
    /// The BED character for this strand.
    pub fn as_char(self) -> char {
        match self {
            Strand::Plus => '+',
            Strand::Minus => '-',
        }
    }
}

/// One methylation call (one CpG site on one strand).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MethRecord {
    /// Chromosome id (index into [`CHROM_NAMES`]).
    pub chrom: u8,
    /// 0-based start position.
    pub start: u64,
    /// End position (start + 1 for CpG calls).
    pub end: u64,
    /// Read strand.
    pub strand: Strand,
    /// Read coverage at this site.
    pub coverage: u32,
    /// Methylation percentage, 0..=100.
    pub meth_pct: u8,
}

impl MethRecord {
    /// The sort key the pipeline orders by.
    pub fn sort_key(&self) -> (u8, u64, u64, Strand) {
        (self.chrom, self.start, self.end, self.strand)
    }

    /// The derived `score` column: coverage capped at 1000.
    pub fn score(&self) -> u32 {
        self.coverage.min(1000)
    }

    /// The red and green levels of the `itemRgb` ramp.
    fn rgb_levels(&self) -> (u32, u32) {
        let m = self.meth_pct as u32;
        (255 * m / 100, 255 * (100 - m) / 100)
    }

    /// The derived `itemRgb` column encoding the methylation level the way
    /// ENCODE tracks do (a green→red ramp).
    pub fn item_rgb(&self) -> String {
        let (r, g) = self.rgb_levels();
        format!("{},{},0", r, g)
    }

    /// Serializes to one canonical bedMethyl text line (no newline).
    pub fn to_line(&self) -> String {
        let chrom = CHROM_NAMES[self.chrom as usize];
        format!(
            "{}\t{}\t{}\t.\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            chrom,
            self.start,
            self.end,
            self.score(),
            self.strand.as_char(),
            self.start,
            self.end,
            self.item_rgb(),
            self.coverage,
            self.meth_pct
        )
    }

    /// The byte length of [`MethRecord::to_line`], counted from the
    /// fields' digit counts without formatting them.
    pub fn line_len(&self) -> usize {
        // Ten tabs, the `.` name, the strand, and itemRgb's `,` and `,0`.
        const FIXED: usize = 15;
        let (r, g) = self.rgb_levels();
        CHROM_NAMES[self.chrom as usize].len()
            + 2 * (decimal_len(self.start) + decimal_len(self.end))
            + decimal_len(self.score() as u64)
            + decimal_len(r as u64)
            + decimal_len(g as u64)
            + decimal_len(self.coverage as u64)
            + decimal_len(self.meth_pct as u64)
            + FIXED
    }

    /// Parses one bedMethyl line.
    ///
    /// # Errors
    /// [`BedError`] describing the malformed column.
    pub fn parse_line(line: &str) -> Result<MethRecord, BedError> {
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() != 11 {
            return Err(BedError::ColumnCount { found: cols.len() });
        }
        let chrom = chrom_id(cols[0]).ok_or_else(|| BedError::UnknownChrom {
            name: cols[0].to_string(),
        })?;
        let start: u64 = cols[1].parse().map_err(|_| BedError::BadField {
            column: "start",
            value: cols[1].to_string(),
        })?;
        let end: u64 = cols[2].parse().map_err(|_| BedError::BadField {
            column: "end",
            value: cols[2].to_string(),
        })?;
        if end <= start {
            return Err(BedError::BadInterval { start, end });
        }
        let strand = match cols[5] {
            "+" => Strand::Plus,
            "-" => Strand::Minus,
            other => {
                return Err(BedError::BadField {
                    column: "strand",
                    value: other.to_string(),
                })
            }
        };
        let coverage: u32 = cols[9].parse().map_err(|_| BedError::BadField {
            column: "coverage",
            value: cols[9].to_string(),
        })?;
        let meth_pct: u8 = cols[10].parse().map_err(|_| BedError::BadField {
            column: "methPct",
            value: cols[10].to_string(),
        })?;
        if meth_pct > 100 {
            return Err(BedError::BadField {
                column: "methPct",
                value: cols[10].to_string(),
            });
        }
        Ok(MethRecord {
            chrom,
            start,
            end,
            strand,
            coverage,
            meth_pct,
        })
    }
}

/// Errors from BED parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BedError {
    /// The line did not have 11 tab-separated columns.
    ColumnCount {
        /// Number of columns found.
        found: usize,
    },
    /// The chromosome is not in the canonical catalog.
    UnknownChrom {
        /// The unrecognized name.
        name: String,
    },
    /// A numeric or enum field failed to parse.
    BadField {
        /// Column name.
        column: &'static str,
        /// Offending text.
        value: String,
    },
    /// `end <= start`.
    BadInterval {
        /// Start coordinate.
        start: u64,
        /// End coordinate.
        end: u64,
    },
}

impl fmt::Display for BedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BedError::ColumnCount { found } => {
                write!(f, "expected 11 bedMethyl columns, found {}", found)
            }
            BedError::UnknownChrom { name } => write!(f, "unknown chromosome '{}'", name),
            BedError::BadField { column, value } => {
                write!(f, "invalid {} field '{}'", column, value)
            }
            BedError::BadInterval { start, end } => {
                write!(f, "invalid interval [{}, {})", start, end)
            }
        }
    }
}

impl std::error::Error for BedError {}

/// An in-memory bedMethyl dataset.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dataset {
    /// The records, in file order.
    pub records: Vec<MethRecord>,
}

impl Dataset {
    /// Creates a dataset from records.
    pub fn new(records: Vec<MethRecord>) -> Dataset {
        Dataset { records }
    }

    /// Parses a whole bedMethyl text (one record per line; a trailing
    /// newline is tolerated).
    ///
    /// # Errors
    /// The first [`BedError`] encountered, annotated with nothing — the
    /// caller knows the source.
    pub fn from_text(text: &str) -> Result<Dataset, BedError> {
        let mut records = Vec::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            records.push(MethRecord::parse_line(line)?);
        }
        Ok(Dataset { records })
    }

    /// Serializes to canonical bedMethyl text (newline-terminated lines).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 64);
        for r in &self.records {
            out.push_str(&r.to_line());
            out.push('\n');
        }
        out
    }

    /// The byte length of [`Dataset::to_text`], without building it.
    pub fn text_len(&self) -> usize {
        self.records.iter().map(|r| r.line_len() + 1).sum()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sorts records by the canonical pipeline key.
    pub fn sort(&mut self) {
        self.records.sort_unstable_by_key(|r| r.sort_key());
    }

    /// Whether records are sorted by the canonical key.
    pub fn is_sorted(&self) -> bool {
        self.records
            .windows(2)
            .all(|w| w[0].sort_key() <= w[1].sort_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MethRecord {
        MethRecord {
            chrom: 0,
            start: 10468,
            end: 10469,
            strand: Strand::Plus,
            coverage: 33,
            meth_pct: 87,
        }
    }

    #[test]
    fn line_round_trip() {
        let r = sample();
        let line = r.to_line();
        assert_eq!(
            line,
            "chr1\t10468\t10469\t.\t33\t+\t10468\t10469\t221,33,0\t33\t87"
        );
        assert_eq!(MethRecord::parse_line(&line).expect("parse"), r);
    }

    #[test]
    fn score_caps_at_1000() {
        let mut r = sample();
        r.coverage = 5000;
        assert_eq!(r.score(), 1000);
        let line = r.to_line();
        assert_eq!(MethRecord::parse_line(&line).expect("parse"), r);
    }

    #[test]
    fn item_rgb_ramp() {
        let mut r = sample();
        r.meth_pct = 0;
        assert_eq!(r.item_rgb(), "0,255,0");
        r.meth_pct = 100;
        assert_eq!(r.item_rgb(), "255,0,0");
    }

    #[test]
    fn line_len_matches_to_line_at_digit_boundaries() {
        // start/end across every decimal width up to the widest u64.
        let mut intervals = vec![(0u64, 1u64), (u64::MAX - 1, u64::MAX)];
        let mut p = 10u64;
        loop {
            intervals.push((p - 1, p));
            intervals.push((p, p + 1));
            match p.checked_mul(10) {
                Some(q) => p = q,
                None => break,
            }
        }
        let mut records = Vec::new();
        // Chromosome names of both lengths: chr1, chr10, chrX.
        for chrom in [0u8, 9, 22] {
            for &(start, end) in &intervals {
                // score caps at 1000.
                for coverage in [0u32, 999, 1000, u32::MAX] {
                    // Every level, so each width of the itemRgb ramp.
                    for meth_pct in 0..=100u8 {
                        let r = MethRecord {
                            chrom,
                            start,
                            end,
                            strand: Strand::Minus,
                            coverage,
                            meth_pct,
                        };
                        assert_eq!(r.line_len(), r.to_line().len(), "{:?}", r);
                        records.push(r);
                    }
                }
            }
        }
        let ds = Dataset::new(records);
        assert_eq!(ds.text_len(), ds.to_text().len());
        assert_eq!(Dataset::default().text_len(), 0);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(matches!(
            MethRecord::parse_line("chr1\t1\t2"),
            Err(BedError::ColumnCount { found: 3 })
        ));
        let line = "chrMT\t1\t2\t.\t5\t+\t1\t2\t0,0,0\t5\t50";
        assert!(matches!(
            MethRecord::parse_line(line),
            Err(BedError::UnknownChrom { .. })
        ));
        let line = "chr1\tx\t2\t.\t5\t+\t1\t2\t0,0,0\t5\t50";
        assert!(matches!(
            MethRecord::parse_line(line),
            Err(BedError::BadField {
                column: "start",
                ..
            })
        ));
        let line = "chr1\t5\t5\t.\t5\t+\t5\t5\t0,0,0\t5\t50";
        assert!(matches!(
            MethRecord::parse_line(line),
            Err(BedError::BadInterval { .. })
        ));
        let line = "chr1\t1\t2\t.\t5\t*\t1\t2\t0,0,0\t5\t50";
        assert!(matches!(
            MethRecord::parse_line(line),
            Err(BedError::BadField {
                column: "strand",
                ..
            })
        ));
        let line = "chr1\t1\t2\t.\t5\t+\t1\t2\t0,0,0\t5\t101";
        assert!(matches!(
            MethRecord::parse_line(line),
            Err(BedError::BadField {
                column: "methPct",
                ..
            })
        ));
    }

    #[test]
    fn dataset_text_round_trip() {
        let mut records = Vec::new();
        for i in 0..50u64 {
            records.push(MethRecord {
                chrom: (i % 3) as u8,
                start: 100 + i * 7,
                end: 101 + i * 7,
                strand: if i % 2 == 0 {
                    Strand::Plus
                } else {
                    Strand::Minus
                },
                coverage: (i % 60) as u32 + 1,
                meth_pct: (i % 101) as u8,
            });
        }
        let ds = Dataset::new(records);
        let text = ds.to_text();
        let parsed = Dataset::from_text(&text).expect("parse");
        assert_eq!(parsed, ds);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn sort_orders_by_chrom_then_position() {
        let mk = |chrom, start, strand| MethRecord {
            chrom,
            start,
            end: start + 1,
            strand,
            coverage: 1,
            meth_pct: 0,
        };
        let mut ds = Dataset::new(vec![
            mk(1, 5, Strand::Plus),
            mk(0, 9, Strand::Minus),
            mk(0, 9, Strand::Plus),
            mk(0, 2, Strand::Plus),
        ]);
        assert!(!ds.is_sorted());
        ds.sort();
        assert!(ds.is_sorted());
        let key: Vec<(u8, u64)> = ds.records.iter().map(|r| (r.chrom, r.start)).collect();
        assert_eq!(key, vec![(0, 2), (0, 9), (0, 9), (1, 5)]);
        // Plus strand sorts before minus at the same position.
        assert_eq!(ds.records[1].strand, Strand::Plus);
    }

    #[test]
    fn chrom_ids_cover_catalog() {
        assert_eq!(chrom_id("chr1"), Some(0));
        assert_eq!(chrom_id("chrY"), Some(23));
        assert_eq!(chrom_id("chrM"), None);
        for (i, name) in CHROM_NAMES.iter().enumerate() {
            assert_eq!(chrom_id(name), Some(i as u8));
        }
    }

    #[test]
    fn from_text_skips_blank_lines() {
        let r = sample();
        let text = format!("{}\n\n{}\n", r.to_line(), r.to_line());
        let ds = Dataset::from_text(&text).expect("parse");
        assert_eq!(ds.len(), 2);
    }
}
