//! Indexed METHCOMP archives with random access by genomic region.
//!
//! The plain archive ([`crate::codec`]) must be decoded front to back.
//! For consumers that want *one gene, not one genome*, this module packs
//! records into independently compressed blocks (fixed record count,
//! never spanning chromosomes) behind a small footer index mapping
//! `(chrom, start-range)` to byte extents. A region query decodes only
//! the touched blocks — and pairs naturally with object-storage range
//! GETs, the same access pattern the shuffle's coalesced exchange uses.
//!
//! Layout:
//!
//! ```text
//! magic "MX01" | blocks... | index JSON | varint index_len | crc32(index)
//! ```
//!
//! (The index sits at the tail so writers stream blocks out first; readers
//! fetch the fixed-size trailer, then the index, then only the blocks
//! they need.)

use faaspipe_codec::checksum::crc32;
use faaspipe_codec::{varint, CodecError};

use crate::bed::{Dataset, MethRecord};
use crate::codec;

const MAGIC: &[u8; 4] = b"MX01";
/// Records per block (a few thousand keeps blocks ~10 KiB compressed).
pub const DEFAULT_BLOCK_RECORDS: usize = 4_096;

/// One block's entry in the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Chromosome id all the block's records share.
    pub chrom: u8,
    /// Smallest start coordinate in the block.
    pub min_start: u64,
    /// Largest start coordinate in the block.
    pub max_start: u64,
    /// Records in the block.
    pub records: u64,
    /// Byte offset of the block within the archive.
    pub offset: u64,
    /// Byte length of the block.
    pub len: u64,
}

/// The footer index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveIndex {
    /// Total records in the archive.
    pub total_records: u64,
    /// Blocks in genome order.
    pub blocks: Vec<BlockInfo>,
}

faaspipe_json::json_object! {
    BlockInfo { req chrom, req min_start, req max_start, req records, req offset, req len }
}
faaspipe_json::json_object! { ArchiveIndex { req total_records, req blocks } }

/// Compresses a **sorted** dataset into an indexed archive.
///
/// # Errors
/// [`CodecError::BadHeader`] if the dataset is not sorted (block ranges
/// would be meaningless).
pub fn compress_indexed(dataset: &Dataset, block_records: usize) -> Result<Vec<u8>, CodecError> {
    if !dataset.is_sorted() {
        return Err(CodecError::BadHeader {
            what: "unsorted dataset for indexed archive",
        });
    }
    let block_records = block_records.max(1);
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    let mut blocks = Vec::new();
    let mut i = 0usize;
    while i < dataset.records.len() {
        let chrom = dataset.records[i].chrom;
        // A block never spans chromosomes and holds at most block_records.
        let mut j = i;
        while j < dataset.records.len()
            && j - i < block_records
            && dataset.records[j].chrom == chrom
        {
            j += 1;
        }
        let slice = Dataset::new(dataset.records[i..j].to_vec());
        let packed = codec::compress(&slice);
        blocks.push(BlockInfo {
            chrom,
            min_start: dataset.records[i].start,
            max_start: dataset.records[j - 1].start,
            records: (j - i) as u64,
            offset: out.len() as u64,
            len: packed.len() as u64,
        });
        out.extend_from_slice(&packed);
        i = j;
    }
    let index = ArchiveIndex {
        total_records: dataset.len() as u64,
        blocks,
    };
    write_footer(&mut out, &index);
    Ok(out)
}

/// Appends the index JSON and the trailer that locates and checks it.
fn write_footer(out: &mut Vec<u8>, index: &ArchiveIndex) {
    let index_json = faaspipe_json::to_vec(index);
    let index_crc = crc32(&index_json);
    out.extend_from_slice(&index_json);
    let mut trailer = Vec::new();
    varint::write_u64(&mut trailer, index_json.len() as u64);
    out.extend_from_slice(&trailer);
    out.push(trailer.len() as u8);
    out.extend_from_slice(&index_crc.to_le_bytes());
}

/// Reads the footer index of an indexed archive.
///
/// # Errors
/// [`CodecError`] on bad magic, truncation, or index corruption.
pub fn read_index(archive: &[u8]) -> Result<ArchiveIndex, CodecError> {
    if archive.len() < 9 || &archive[..4] != MAGIC {
        return Err(CodecError::BadHeader {
            what: "indexed archive magic",
        });
    }
    let crc_start = archive.len() - 4;
    let stored_crc = u32::from_le_bytes(archive[crc_start..].try_into().expect("4 bytes"));
    let varlen = archive[crc_start - 1] as usize;
    if varlen == 0 || crc_start < 1 + varlen {
        return Err(CodecError::BadHeader {
            what: "indexed archive trailer",
        });
    }
    let var_start = crc_start - 1 - varlen;
    let (index_len, _) = varint::read_u64(&archive[var_start..crc_start - 1])?;
    let index_start = var_start
        .checked_sub(index_len as usize)
        .ok_or(CodecError::UnexpectedEof)?;
    let index_json = &archive[index_start..var_start];
    let actual = crc32(index_json);
    if actual != stored_crc {
        return Err(CodecError::ChecksumMismatch {
            expected: stored_crc,
            actual,
        });
    }
    faaspipe_json::from_slice(index_json).map_err(|_| CodecError::BadHeader {
        what: "indexed archive index",
    })
}

fn decode_block(archive: &[u8], b: &BlockInfo) -> Result<Dataset, CodecError> {
    let start = b.offset as usize;
    let end = start
        .checked_add(b.len as usize)
        .filter(|&e| e <= archive.len())
        .ok_or(CodecError::UnexpectedEof)?;
    codec::decompress(&archive[start..end])
}

/// Returns the records overlapping `[start, end)` on chromosome `chrom`,
/// decoding only the blocks whose ranges intersect the query.
///
/// Also returns how many blocks were decoded (so callers — and tests —
/// can see the selectivity win).
///
/// # Errors
/// [`CodecError`] on any structural problem.
pub fn query_region(
    archive: &[u8],
    chrom: u8,
    start: u64,
    end: u64,
) -> Result<(Vec<MethRecord>, usize), CodecError> {
    let index = read_index(archive)?;
    let mut hits = Vec::new();
    let mut decoded = 0usize;
    for b in &index.blocks {
        if b.chrom != chrom || b.max_start < start || b.min_start >= end {
            continue;
        }
        decoded += 1;
        for r in decode_block(archive, b)?.records {
            if r.chrom == chrom && r.start >= start && r.start < end {
                hits.push(r);
            }
        }
    }
    Ok((hits, decoded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::Synthesizer;

    fn sorted_dataset(n: usize) -> Dataset {
        Synthesizer::new(51).generate_records(n)
    }

    /// The round-trip oracle for [`compress_indexed`]: decodes every
    /// block in order and checks the footer's record count.
    fn decompress_indexed(archive: &[u8]) -> Result<Dataset, CodecError> {
        let index = read_index(archive)?;
        let mut records = Vec::new();
        for b in &index.blocks {
            records.extend(decode_block(archive, b)?.records);
        }
        assert_eq!(records.len() as u64, index.total_records, "footer count");
        Ok(Dataset::new(records))
    }

    #[test]
    fn indexed_round_trip() {
        let ds = sorted_dataset(20_000);
        let archive = compress_indexed(&ds, 1_000).expect("compress");
        let back = decompress_indexed(&archive).expect("decompress");
        assert_eq!(back, ds);
    }

    #[test]
    fn unsorted_input_rejected() {
        let mut ds = Synthesizer::new(52).generate_shuffled(1_000);
        assert!(compress_indexed(&ds, 100).is_err());
        ds.sort();
        compress_indexed(&ds, 100).expect("sorted is fine");
    }

    #[test]
    fn blocks_never_span_chromosomes() {
        let ds = sorted_dataset(30_000);
        let archive = compress_indexed(&ds, 512).expect("compress");
        let index = read_index(&archive).expect("index");
        for b in &index.blocks {
            assert!(b.records <= 512);
            assert!(b.min_start <= b.max_start);
        }
        // Blocks are in genome order and tile the archive contiguously.
        for pair in index.blocks.windows(2) {
            assert!((pair[0].chrom, pair[0].min_start) <= (pair[1].chrom, pair[1].min_start));
            assert_eq!(pair[0].offset + pair[0].len, pair[1].offset);
        }
        assert_eq!(index.total_records, 30_000);
    }

    #[test]
    fn region_query_matches_linear_scan_and_is_selective() {
        let ds = sorted_dataset(40_000);
        let archive = compress_indexed(&ds, 1_000).expect("compress");
        let index = read_index(&archive).expect("index");
        // Query a window on chr2 (id 1).
        let (lo, hi) = (2_000_000u64, 4_000_000u64);
        let (hits, decoded) = query_region(&archive, 1, lo, hi).expect("query");
        let expect: Vec<MethRecord> = ds
            .records
            .iter()
            .filter(|r| r.chrom == 1 && r.start >= lo && r.start < hi)
            .copied()
            .collect();
        assert_eq!(hits, expect);
        assert!(
            decoded * 4 < index.blocks.len(),
            "query decoded {}/{} blocks — index must be selective",
            decoded,
            index.blocks.len()
        );
    }

    #[test]
    fn empty_region_decodes_nothing() {
        let ds = sorted_dataset(5_000);
        let archive = compress_indexed(&ds, 500).expect("compress");
        // chrY exists, but position 0..5 holds no CpGs (synth starts at 10k).
        let (hits, decoded) = query_region(&archive, 23, 0, 5).expect("query");
        assert!(hits.is_empty());
        assert_eq!(decoded, 0);
    }

    #[test]
    fn corrupt_index_is_detected() {
        let ds = sorted_dataset(2_000);
        let mut archive = compress_indexed(&ds, 500).expect("compress");
        let n = archive.len();
        archive[n - 20] ^= 0x01; // inside the index JSON
        assert!(read_index(&archive).is_err());
        // Bad magic.
        archive[0] = b'Z';
        assert!(matches!(
            read_index(&archive),
            Err(CodecError::BadHeader { .. })
        ));
    }

    #[test]
    fn crafted_record_count_sizes_nothing() {
        // A footer declaring 2^40 records over no blocks: the index reads
        // back without allocating for the count, and a query over the
        // whole genome decodes nothing.
        let mut archive = MAGIC.to_vec();
        write_footer(
            &mut archive,
            &ArchiveIndex {
                total_records: 1 << 40,
                blocks: Vec::new(),
            },
        );
        assert_eq!(read_index(&archive).expect("index").total_records, 1 << 40);
        let (hits, decoded) = query_region(&archive, 0, 0, u64::MAX).expect("query");
        assert!(hits.is_empty());
        assert_eq!(decoded, 0);
    }

    #[test]
    fn indexed_overhead_is_small() {
        let ds = sorted_dataset(30_000);
        let plain = codec::compress(&ds);
        let indexed = compress_indexed(&ds, DEFAULT_BLOCK_RECORDS).expect("compress");
        assert!(
            (indexed.len() as f64) < plain.len() as f64 * 1.25,
            "index + per-block reset overhead must stay modest: {} vs {}",
            indexed.len(),
            plain.len()
        );
    }

    #[test]
    fn empty_dataset_round_trips() {
        let ds = Dataset::default();
        let archive = compress_indexed(&ds, 100).expect("compress");
        assert_eq!(decompress_indexed(&archive).expect("decompress"), ds);
        let (hits, decoded) = query_region(&archive, 0, 0, u64::MAX).expect("query");
        assert!(hits.is_empty());
        assert_eq!(decoded, 0);
    }
}
