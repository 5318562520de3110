//! # faaspipe-methcomp — DNA-methylation data model, synthesizer, and codec
//!
//! Reproduction of the METHCOMP special-purpose compressor (Peng,
//! Milenkovic, Ochoa — *Bioinformatics* 2018) that the paper's genomics
//! pipeline runs: a **sort** stage over whole-genome bisulfite-sequencing
//! (WGBS) records in bedMethyl format, followed by an embarrassingly
//! parallel **encode** stage that exploits per-field redundancy of the
//! sorted records.
//!
//! Three pieces:
//!
//! * [`bed`] — the bedMethyl record model with lossless text parsing and
//!   canonical serialization (ENCODE's 11-column layout);
//! * [`synth`] — a statistical WGBS generator standing in for the paper's
//!   3.5 GB ENCODE sample ENCFF988BSW (see DESIGN.md for the
//!   substitution rationale);
//! * [`codec`] — the METHCOMP-style columnar compressor: position deltas,
//!   interval widths, strands, coverage and methylation levels each coded
//!   with adaptive range-coder models, ~an order of magnitude tighter
//!   than the LZ77+Huffman baseline on this data;
//! * [`index`] — indexed archives with per-chromosome blocks and random
//!   access by genomic region (pairs with object-store range GETs).
//!
//! ## Example
//!
//! ```
//! use faaspipe_methcomp::synth::Synthesizer;
//! use faaspipe_methcomp::codec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = Synthesizer::new(7).generate_records(5_000);
//! let packed = codec::compress(&dataset);
//! let unpacked = codec::decompress(&packed)?;
//! assert_eq!(unpacked, dataset);
//! # Ok(())
//! # }
//! ```

pub mod bed;
pub mod codec;
pub mod index;
pub mod synth;

pub use bed::{BedError, Dataset, MethRecord, Strand, CHROM_NAMES};
