//! The METHCOMP-style columnar compressor.
//!
//! Following Peng et al., the (sorted) records are decomposed into
//! per-field streams, each coded with a model matched to its
//! distribution, all multiplexed over one adaptive range coder:
//!
//! | field       | model |
//! |-------------|-------|
//! | chromosome  | change bit + id byte (runs are nearly free) |
//! | start       | zigzag delta from the previous start, adaptive width |
//! | width       | `end - start - 1`, adaptive width (almost always 0) |
//! | strand      | one bit, conditioned on the previous strand (captures +/- pairing) |
//! | coverage    | adaptive integer model |
//! | methylation | byte model conditioned on the previous level's band (captures island structure) |
//!
//! Derived bedMethyl columns (`name`, `score`, `thickStart`, `thickEnd`,
//! `itemRgb`) are recomputed on decode, so the canonical text
//! round-trips exactly. The compressor does not require sorted input
//! (deltas are signed), but sorted input is what makes it effective —
//! which is precisely why the pipeline's sort stage exists.

use faaspipe_codec::checksum::Crc32;
use faaspipe_codec::range::{BitModel, ByteModel, RangeDecoder, RangeEncoder, UIntModel};
use faaspipe_codec::{varint, CodecError};

use crate::bed::{Dataset, MethRecord, Strand, CHROM_NAMES};

const MAGIC: &[u8; 4] = b"MC01";
/// Sanity bound on declared record counts; `decompress` also stops once
/// the body is exhausted, so a smaller crafted count fails early too.
const MAX_RECORDS: u64 = 1 << 33;

fn meth_band(pct: u8) -> usize {
    match pct {
        0..=19 => 0,
        20..=69 => 1,
        _ => 2,
    }
}

const DIGEST_LEN: usize = 23;
/// 64 record digests fill 1,472 bytes, 184 whole words for the CRC's
/// slicing-by-8 loop; one record per update left a 7-byte tail each.
const DIGEST_BLOCK: usize = 64;

/// The archive's checksum: CRC-32 over each record's digest (chromosome,
/// start, end, strand character, coverage, methylation; integers
/// little-endian), in order, fed to the CRC one block at a time.
fn digest(records: &[MethRecord]) -> u32 {
    let mut crc = Crc32::new();
    let mut buf = [0u8; DIGEST_LEN * DIGEST_BLOCK];
    for block in records.chunks(DIGEST_BLOCK) {
        for (r, d) in block.iter().zip(buf.chunks_exact_mut(DIGEST_LEN)) {
            d[0] = r.chrom;
            d[1..9].copy_from_slice(&r.start.to_le_bytes());
            d[9..17].copy_from_slice(&r.end.to_le_bytes());
            d[17] = r.strand.as_char() as u8;
            d[18..22].copy_from_slice(&r.coverage.to_le_bytes());
            d[22] = r.meth_pct;
        }
        crc.update(&buf[..block.len() * DIGEST_LEN]);
    }
    crc.finish()
}

/// Every adaptive model of one archive, held inline (about 2.8 KB), so a
/// `compress` or `decompress` call allocates none of them.
struct Models {
    chrom_change: BitModel,
    chrom_id: ByteModel,
    delta: UIntModel,
    width: UIntModel,
    strand: [BitModel; 2],
    coverage: UIntModel,
    meth: [ByteModel; 3],
}

impl Models {
    fn new() -> Models {
        Models {
            chrom_change: BitModel::new(),
            chrom_id: ByteModel::new(),
            delta: UIntModel::new(),
            width: UIntModel::new(),
            strand: [BitModel::new(), BitModel::new()],
            coverage: UIntModel::new(),
            meth: [ByteModel::new(), ByteModel::new(), ByteModel::new()],
        }
    }
}

/// Compresses a dataset into a METHCOMP archive.
pub fn compress(dataset: &Dataset) -> Vec<u8> {
    let mut out = Vec::with_capacity(dataset.len() / 2 + 64);
    out.extend_from_slice(MAGIC);
    varint::write_u64(&mut out, dataset.len() as u64);

    let mut enc = RangeEncoder::new();
    let mut m = Models::new();
    let mut prev_chrom: u8 = 0;
    let mut prev_start: u64 = 0;
    let mut prev_strand = Strand::Plus;
    let mut prev_meth: u8 = 80;
    for r in &dataset.records {
        let changed = r.chrom != prev_chrom;
        enc.encode_bit(&mut m.chrom_change, changed);
        if changed {
            m.chrom_id.encode(&mut enc, r.chrom);
            prev_start = 0;
        }
        let delta = r.start as i64 - prev_start as i64;
        m.delta.encode(&mut enc, varint::zigzag(delta));
        m.width.encode(&mut enc, r.end - r.start - 1);
        let sctx = (prev_strand == Strand::Minus) as usize;
        enc.encode_bit(&mut m.strand[sctx], r.strand == Strand::Minus);
        m.coverage.encode(&mut enc, r.coverage as u64);
        m.meth[meth_band(prev_meth)].encode(&mut enc, r.meth_pct);
        prev_chrom = r.chrom;
        prev_start = r.start;
        prev_strand = r.strand;
        prev_meth = r.meth_pct;
    }
    out.extend_from_slice(&enc.finish());
    out.extend_from_slice(&digest(&dataset.records).to_le_bytes());
    out
}

/// Decompresses a METHCOMP archive.
///
/// # Errors
/// [`CodecError`] on bad magic, truncation, invalid field values, or
/// checksum mismatch.
pub fn decompress(input: &[u8]) -> Result<Dataset, CodecError> {
    if input.len() < 4 || &input[..4] != MAGIC {
        return Err(CodecError::BadHeader {
            what: "methcomp magic",
        });
    }
    let (count, used) = varint::read_u64(&input[4..])?;
    if count > MAX_RECORDS {
        return Err(CodecError::LengthOverflow { declared: count });
    }
    let body_start = 4 + used;
    if input.len() < body_start + 4 {
        return Err(CodecError::UnexpectedEof);
    }
    let (body, trailer) = input[body_start..].split_at(input.len() - body_start - 4);
    let stored_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);

    // The count is untrusted: reserve at most one record per body byte
    // (real archives take about two bytes a record) and grow past that.
    let mut records = Vec::with_capacity(count.min(body.len() as u64) as usize);
    if count > 0 {
        let mut dec = RangeDecoder::new(body)?;
        let mut m = Models::new();
        let mut prev_chrom: u8 = 0;
        let mut prev_start: u64 = 0;
        let mut prev_strand = Strand::Plus;
        let mut prev_meth: u8 = 80;
        for _ in 0..count {
            let changed = dec.decode_bit(&mut m.chrom_change);
            let chrom = if changed {
                let c = m.chrom_id.decode(&mut dec);
                if c as usize >= CHROM_NAMES.len() {
                    return Err(CodecError::BadSymbol { value: c as u64 });
                }
                prev_start = 0;
                c
            } else {
                prev_chrom
            };
            let delta = varint::unzigzag(m.delta.decode(&mut dec)?);
            let start = prev_start as i64 + delta;
            if start < 0 {
                return Err(CodecError::BadSymbol {
                    value: delta as u64,
                });
            }
            let start = start as u64;
            let width = m.width.decode(&mut dec)?;
            let end = start
                .checked_add(width + 1)
                .ok_or(CodecError::LengthOverflow { declared: width })?;
            let sctx = (prev_strand == Strand::Minus) as usize;
            let strand = if dec.decode_bit(&mut m.strand[sctx]) {
                Strand::Minus
            } else {
                Strand::Plus
            };
            let coverage = m.coverage.decode(&mut dec)?;
            if coverage > u32::MAX as u64 {
                return Err(CodecError::LengthOverflow { declared: coverage });
            }
            let meth_pct = m.meth[meth_band(prev_meth)].decode(&mut dec);
            if meth_pct > 100 {
                return Err(CodecError::BadSymbol {
                    value: meth_pct as u64,
                });
            }
            let record = MethRecord {
                chrom,
                start,
                end,
                strand,
                coverage: coverage as u32,
                meth_pct,
            };
            prev_chrom = chrom;
            prev_start = start;
            prev_strand = strand;
            prev_meth = meth_pct;
            records.push(record);
            // The decoder reads zeros past the end; a valid archive never
            // gets there, so a count the body cannot hold stops here.
            if dec.position() > body.len() {
                return Err(CodecError::UnexpectedEof);
            }
        }
    }
    let actual = digest(&records);
    if actual != stored_crc {
        return Err(CodecError::ChecksumMismatch {
            expected: stored_crc,
            actual,
        });
    }
    Ok(Dataset::new(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::Synthesizer;

    #[test]
    fn empty_dataset_round_trips() {
        let ds = Dataset::default();
        let packed = compress(&ds);
        assert_eq!(decompress(&packed).expect("empty"), ds);
    }

    #[test]
    fn synthetic_round_trip() {
        let ds = Synthesizer::new(11).generate_records(20_000);
        let packed = compress(&ds);
        let got = decompress(&packed).expect("round trip");
        assert_eq!(got, ds);
        // Canonical text round-trips through the archive too.
        assert_eq!(got.to_text(), ds.to_text());
    }

    #[test]
    fn unsorted_input_still_round_trips() {
        let ds = Synthesizer::new(12).generate_shuffled(5_000);
        let packed = compress(&ds);
        assert_eq!(decompress(&packed).expect("round trip"), ds);
    }

    #[test]
    fn sorted_compresses_much_better_than_unsorted() {
        let sorted = Synthesizer::new(13).generate_records(20_000);
        let shuffled = Synthesizer::new(13).generate_shuffled(20_000);
        let a = compress(&sorted).len();
        let b = compress(&shuffled).len();
        assert!(
            (a as f64) < 0.65 * b as f64,
            "sorted {} should be well under shuffled {}",
            a,
            b
        );
    }

    #[test]
    fn compression_ratio_beats_10x_on_text() {
        let ds = Synthesizer::new(14).generate_records(50_000);
        let text = ds.to_text();
        let packed = compress(&ds);
        let ratio = text.len() as f64 / packed.len() as f64;
        assert!(ratio > 10.0, "methcomp ratio {:.1}x", ratio);
    }

    #[test]
    fn beats_gzipish_by_large_factor() {
        let ds = Synthesizer::new(15).generate_records(50_000);
        let text = ds.to_text();
        let gz = faaspipe_codec::gzipish::compress(text.as_bytes());
        let mc = compress(&ds);
        let advantage = gz.len() as f64 / mc.len() as f64;
        assert!(
            advantage > 4.0,
            "expected methcomp << gzipish, got {:.1}x ({} vs {})",
            advantage,
            mc.len(),
            gz.len()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let ds = Synthesizer::new(16).generate_records(100);
        let mut packed = compress(&ds);
        packed[0] = b'X';
        assert!(matches!(
            decompress(&packed),
            Err(CodecError::BadHeader { .. })
        ));
    }

    #[test]
    fn truncation_rejected() {
        let ds = Synthesizer::new(17).generate_records(1_000);
        let packed = compress(&ds);
        for cut in [3usize, 6, packed.len() / 2] {
            assert!(decompress(&packed[..cut]).is_err(), "cut {}", cut);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let ds = Synthesizer::new(18).generate_records(2_000);
        let packed = compress(&ds);
        let mut corrupt = packed.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        // Either a structural error or a checksum mismatch — never a
        // silent wrong answer.
        match decompress(&corrupt) {
            Err(_) => {}
            Ok(got) => assert_ne!(got, ds, "corruption must not round-trip"),
        }
    }

    #[test]
    fn bomb_guard_on_record_count() {
        let mut packed = Vec::new();
        packed.extend_from_slice(MAGIC);
        varint::write_u64(&mut packed, u64::MAX / 2);
        packed.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decompress(&packed),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn crafted_record_count_fails_at_the_end_of_the_body() {
        // 18 bytes declaring 2^33 records (the largest count the sanity
        // bound lets through) over a body of zeros.
        let mut packed = MAGIC.to_vec();
        varint::write_u64(&mut packed, MAX_RECORDS);
        packed.resize(18, 0);
        assert_eq!(decompress(&packed), Err(CodecError::UnexpectedEof));

        // A valid body under a header claiming twice the records it holds.
        let ds = Synthesizer::new(21).generate_records(1_000);
        let valid = compress(&ds);
        let mut packed = MAGIC.to_vec();
        varint::write_u64(&mut packed, 2 * ds.len() as u64);
        let header = 4 + varint::read_u64(&valid[4..]).expect("count").1;
        packed.extend_from_slice(&valid[header..]);
        assert_eq!(decompress(&packed), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn single_record_round_trip() {
        let ds = Dataset::new(vec![MethRecord {
            chrom: 5,
            start: 123_456_789,
            end: 123_456_790,
            strand: Strand::Minus,
            coverage: 1_000_000,
            meth_pct: 100,
        }]);
        let packed = compress(&ds);
        assert_eq!(decompress(&packed).expect("round trip"), ds);
    }

    /// The archive's (length, CRC-32), after checking that it decodes back.
    fn archive_pin(ds: &Dataset) -> (usize, u32) {
        let packed = compress(ds);
        assert_eq!(decompress(&packed).as_ref(), Ok(ds));
        let pin = (packed.len(), faaspipe_codec::checksum::crc32(&packed));
        if std::env::var("FAASPIPE_PRINT_GOLDEN").is_ok() {
            println!("archive pin: ({}, {:#010X})", pin.0, pin.1);
        }
        pin
    }

    #[test]
    fn archive_bytes_are_pinned() {
        // Round trips cannot catch an encoder and decoder that change in
        // step, or a CRC that is wrong the same way on both sides; this pins
        // the exact archive of a fixed sorted dataset.
        let ds = Synthesizer::new(0xE0C0_FF88).generate_records(20_000);
        assert!(ds.is_sorted());
        assert_eq!(archive_pin(&ds), (45_196, 0x53BE_5937));
    }

    #[test]
    fn shuffled_archive_bytes_are_pinned() {
        // Most records change chromosome or jump far, so the chromosome-id
        // tree, negative deltas and wide payloads carry the stream.
        let ds = Synthesizer::new(12).generate_shuffled(5_000);
        assert_eq!(archive_pin(&ds), (21_364, 0x2DF0_2FEB));
    }

    #[test]
    fn edge_archive_bytes_are_pinned() {
        let rec = |chrom, start, end, strand, coverage, meth_pct| MethRecord {
            chrom,
            start,
            end,
            strand,
            coverage,
            meth_pct,
        };
        let ds = Dataset::new(vec![
            rec(0, 0, 1, Strand::Plus, 0, 0),
            rec(0, 0, 9, Strand::Minus, u32::MAX, 100),
            rec(0, 1 << 40, (1 << 40) + 2, Strand::Minus, 1, 0),
            rec(0, 7, 8, Strand::Plus, u32::MAX, 100),
            rec(23, 0, 1 << 20, Strand::Plus, 0, 100),
            rec(23, 248_956_421, 248_956_422, Strand::Minus, 0, 0),
            rec(5, 0, 2, Strand::Plus, u32::MAX, 50),
            rec(23, u32::MAX as u64, u64::MAX, Strand::Minus, 1, 100),
        ]);
        assert_eq!(archive_pin(&ds), (86, 0x4256_8CDC));
    }

    #[test]
    fn all_chromosomes_round_trip() {
        let records: Vec<MethRecord> = (0..24u8)
            .map(|c| MethRecord {
                chrom: c,
                start: 1000 + c as u64,
                end: 1001 + c as u64,
                strand: Strand::Plus,
                coverage: 7,
                meth_pct: 50,
            })
            .collect();
        let ds = Dataset::new(records);
        let packed = compress(&ds);
        assert_eq!(decompress(&packed).expect("round trip"), ds);
    }
}
