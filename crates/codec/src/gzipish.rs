//! A DEFLATE-shaped LZ77 + canonical-Huffman container.
//!
//! This is the workspace's **gzip stand-in**: the same machinery as
//! DEFLATE (hash-chain LZ77 over a 32 KiB window, two Huffman alphabets
//! with extra-bits length/distance buckets, stored-block fallback, CRC-32
//! trailer) in a simpler container. It is the baseline for the paper's
//! "METHCOMP compresses ~10× better than gzip" claim, and the codec the
//! pipeline's encode stage runs when asked for a general-purpose format.
//!
//! Format:
//!
//! ```text
//! magic "FZ01" | varint original_len | blocks... | crc32 (4 bytes LE)
//! block := 1 bit final | 1 bit type (0 stored, 1 huffman) | payload
//! stored  := align; varint len; raw bytes
//! huffman := 286+30 nibble code lengths; symbols...; 256 = end of block
//! ```

use crate::bitio::{BitReader, BitWriter};
use crate::checksum::crc32;
use crate::error::CodecError;
use crate::huffman::{self, Decoder, Encoder};
use crate::lz77::{self, Token};
use crate::varint;

const MAGIC: &[u8; 4] = b"FZ01";
const BLOCK_INPUT: usize = 128 * 1024;
const LITLEN_SYMS: usize = 286; // 0-255 literals, 256 EOB, 257-285 lengths
const DIST_SYMS: usize = 30;
const EOB: usize = 256;

/// DEFLATE length-code base values for symbols 257..=285.
const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// Extra bits per length code.
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// DEFLATE distance-code base values for symbols 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits per distance code.
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

fn length_symbol(len: u16) -> (usize, u8, u16) {
    debug_assert!((3..=258).contains(&len));
    let mut sym = 0;
    for (i, &base) in LEN_BASE.iter().enumerate() {
        if len >= base {
            sym = i;
        } else {
            break;
        }
    }
    (257 + sym, LEN_EXTRA[sym], len - LEN_BASE[sym])
}

fn dist_symbol(dist: u16) -> (usize, u8, u16) {
    debug_assert!(dist >= 1);
    let mut sym = 0;
    for (i, &base) in DIST_BASE.iter().enumerate() {
        if dist >= base {
            sym = i;
        } else {
            break;
        }
    }
    (sym, DIST_EXTRA[sym], dist - DIST_BASE[sym])
}

/// Compresses `data`.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bytes(MAGIC);
    let mut header = Vec::new();
    varint::write_u64(&mut header, data.len() as u64);
    w.write_bytes(&header);

    if data.is_empty() {
        w.write_bit(true); // final
        w.write_bit(false); // stored
        w.align();
        let mut lenbuf = Vec::new();
        varint::write_u64(&mut lenbuf, 0);
        w.write_bytes(&lenbuf);
    } else {
        let blocks: Vec<&[u8]> = data.chunks(BLOCK_INPUT).collect();
        for (bi, block) in blocks.iter().enumerate() {
            let is_final = bi == blocks.len() - 1;
            write_block(&mut w, block, is_final);
        }
    }
    w.align();
    let mut out = w.finish();
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out
}

fn write_block(w: &mut BitWriter, block: &[u8], is_final: bool) {
    let tokens = lz77::tokenize(block);
    // Histogram both alphabets.
    let mut lit_freq = vec![0u64; LITLEN_SYMS];
    let mut dist_freq = vec![0u64; DIST_SYMS];
    lit_freq[EOB] = 1;
    let mut extra_bits = 0u64;
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                let (ls, le, _) = length_symbol(len);
                let (ds, de, _) = dist_symbol(dist);
                lit_freq[ls] += 1;
                dist_freq[ds] += 1;
                extra_bits += le as u64 + de as u64;
            }
        }
    }
    let lit_lengths = huffman::build_lengths(&lit_freq, 15);
    let dist_lengths = huffman::build_lengths(&dist_freq, 15);
    let lit_enc = Encoder::from_lengths(&lit_lengths).expect("non-empty litlen alphabet");
    let dist_enc = Encoder::from_lengths(&dist_lengths).ok(); // may be empty

    // Estimate whether the Huffman block actually wins over stored.
    let header_bits = 4 * (LITLEN_SYMS + DIST_SYMS) as u64;
    let body_bits = lit_enc.cost_bits(&lit_freq)
        + dist_enc.as_ref().map_or(0, |e| e.cost_bits(&dist_freq))
        + extra_bits;
    let huff_bits = header_bits + body_bits;
    let stored_bits = (block.len() as u64 + 10) * 8;

    w.write_bit(is_final);
    if huff_bits >= stored_bits {
        w.write_bit(false); // stored
        w.align();
        let mut lenbuf = Vec::new();
        varint::write_u64(&mut lenbuf, block.len() as u64);
        w.write_bytes(&lenbuf);
        w.write_bytes(block);
        return;
    }
    w.write_bit(true); // huffman
    huffman::write_lengths(w, &lit_lengths);
    huffman::write_lengths(w, &dist_lengths);
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_enc.encode(w, b as usize),
            Token::Match { len, dist } => {
                let (ls, le, lv) = length_symbol(len);
                let (ds, de, dv) = dist_symbol(dist);
                lit_enc.encode(w, ls);
                if le > 0 {
                    w.write_bits(lv as u64, le as u32);
                }
                dist_enc
                    .as_ref()
                    .expect("dist alphabet exists when matches do")
                    .encode(w, ds);
                if de > 0 {
                    w.write_bits(dv as u64, de as u32);
                }
            }
        }
    }
    lit_enc.encode(w, EOB);
}

/// Decompresses a stream produced by [`compress`].
///
/// # Errors
/// Any [`CodecError`]: bad magic, truncation, invalid code tables, bad
/// back-references, length or checksum mismatches.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut r = BitReader::new(input);
    let magic = r.read_bytes(4)?;
    if magic != MAGIC {
        return Err(CodecError::BadHeader { what: "magic" });
    }
    // Original length varint (byte-aligned).
    let mut declared = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = r.read_bytes(1)?[0];
        declared |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::LengthOverflow { declared });
        }
    }
    if declared > (1 << 40) {
        return Err(CodecError::LengthOverflow { declared });
    }
    // The declared length is untrusted: reserve no more than the input's
    // own size and let the output grow as blocks actually decode.
    let mut out: Vec<u8> = Vec::with_capacity(declared.min(input.len() as u64) as usize);
    loop {
        let is_final = r.read_bit()?;
        let is_huff = r.read_bit()?;
        if !is_huff {
            // Stored block.
            let mut len = 0u64;
            let mut shift = 0u32;
            loop {
                let byte = r.read_bytes(1)?[0];
                len |= ((byte & 0x7F) as u64) << shift;
                if byte & 0x80 == 0 {
                    break;
                }
                shift += 7;
                if shift > 63 {
                    return Err(CodecError::LengthOverflow { declared: len });
                }
            }
            if out.len() as u64 + len > declared {
                return Err(CodecError::LengthOverflow { declared: len });
            }
            out.extend_from_slice(r.read_bytes(len as usize)?);
        } else {
            let lit_lengths = huffman::read_lengths(&mut r, LITLEN_SYMS)?;
            let dist_lengths = huffman::read_lengths(&mut r, DIST_SYMS)?;
            let lit_dec = Decoder::from_lengths(&lit_lengths)?;
            let dist_dec = Decoder::from_lengths(&dist_lengths).ok();
            loop {
                let sym = lit_dec.decode(&mut r)?;
                if sym == EOB {
                    break;
                }
                if sym < 256 {
                    if out.len() as u64 + 1 > declared {
                        return Err(CodecError::LengthOverflow { declared });
                    }
                    out.push(sym as u8);
                    continue;
                }
                let li = sym - 257;
                if li >= LEN_BASE.len() {
                    return Err(CodecError::BadSymbol { value: sym as u64 });
                }
                let len = LEN_BASE[li] as usize + r.read_bits(LEN_EXTRA[li] as u32)? as usize;
                let dist_dec = dist_dec
                    .as_ref()
                    .ok_or(CodecError::BadHeader { what: "dist table" })?;
                let ds = dist_dec.decode(&mut r)?;
                let dist = DIST_BASE[ds] as usize + r.read_bits(DIST_EXTRA[ds] as u32)? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(CodecError::BadDistance {
                        distance: dist,
                        produced: out.len(),
                    });
                }
                if out.len() as u64 + len as u64 > declared {
                    return Err(CodecError::LengthOverflow { declared });
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
        if is_final {
            break;
        }
    }
    if out.len() as u64 != declared {
        return Err(CodecError::LengthOverflow { declared });
    }
    let stored_crc = {
        let bytes = r.read_bytes(4)?;
        u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
    };
    let actual = crc32(&out);
    if stored_crc != actual {
        return Err(CodecError::ChecksumMismatch {
            expected: stored_crc,
            actual,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> usize {
        let packed = compress(data);
        let unpacked = decompress(&packed).expect("round trip");
        assert_eq!(unpacked, data);
        packed.len()
    }

    #[test]
    fn empty_input() {
        assert!(round_trip(b"") > 0);
    }

    #[test]
    fn small_inputs() {
        for data in [&b"a"[..], b"ab", b"abc", b"hello world"] {
            round_trip(data);
        }
    }

    #[test]
    fn repetitive_text_compresses_hard() {
        let data = b"to be or not to be, that is the question. ".repeat(200);
        let packed_len = round_trip(&data);
        assert!(
            packed_len * 10 < data.len(),
            "expected >10x on repetitive text: {} vs {}",
            packed_len,
            data.len()
        );
    }

    #[test]
    fn random_data_stays_near_original_size() {
        let mut x = 0xDEADBEEFu32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as u8
            })
            .collect();
        let packed_len = round_trip(&data);
        assert!(
            packed_len < data.len() + data.len() / 8 + 64,
            "incompressible data must not blow up: {}",
            packed_len
        );
    }

    #[test]
    fn multi_block_inputs() {
        // > 2 blocks of 128 KiB.
        let data: Vec<u8> = (0..300_000usize).map(|i| (i / 100) as u8).collect();
        round_trip(&data);
    }

    #[test]
    fn length_symbol_buckets() {
        assert_eq!(length_symbol(3), (257, 0, 0));
        assert_eq!(length_symbol(10), (264, 0, 0));
        assert_eq!(length_symbol(11), (265, 1, 0));
        assert_eq!(length_symbol(12), (265, 1, 1));
        assert_eq!(length_symbol(258), (285, 0, 0));
    }

    #[test]
    fn dist_symbol_buckets() {
        assert_eq!(dist_symbol(1), (0, 0, 0));
        assert_eq!(dist_symbol(4), (3, 0, 0));
        assert_eq!(dist_symbol(5), (4, 1, 0));
        assert_eq!(dist_symbol(6), (4, 1, 1));
        assert_eq!(dist_symbol(24577), (29, 13, 0));
        assert_eq!(dist_symbol(32768), (29, 13, 8191));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut packed = compress(b"hi");
        packed[0] = b'X';
        assert!(matches!(
            decompress(&packed),
            Err(CodecError::BadHeader { what: "magic" })
        ));
    }

    #[test]
    fn corrupted_payload_fails_checksum_or_structure() {
        let data = b"some moderately compressible payload ".repeat(50);
        let packed = compress(&data);
        // Flip a bit somewhere in the middle of the payload.
        let mut corrupt = packed.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        assert!(decompress(&corrupt).is_err());
    }

    #[test]
    fn truncated_stream_errors() {
        let packed = compress(b"truncate me please, thank you very much");
        for cut in [1usize, 5, packed.len() / 2, packed.len() - 1] {
            assert!(decompress(&packed[..cut]).is_err(), "cut {}", cut);
        }
    }

    #[test]
    fn crafted_declared_length_fails_without_reserving_it() {
        // 18 bytes declaring 2^39 output bytes (512 GiB).
        let mut packed = MAGIC.to_vec();
        varint::write_u64(&mut packed, 1 << 39);
        packed.resize(18, 0);
        assert!(decompress(&packed).is_err());
    }

    #[test]
    fn declared_length_must_match() {
        let mut packed = compress(b"abc");
        // Magic is 4 bytes; the varint length follows. 3 -> claim 4.
        assert_eq!(packed[4], 3);
        packed[4] = 4;
        assert!(decompress(&packed).is_err());
    }
}
