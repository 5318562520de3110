//! Adaptive binary range coder (carry-less, LZMA-style) with bit-tree
//! byte models and adaptive integer coding.
//!
//! This is METHCOMP's entropy stage in this reproduction: the per-field
//! streams (coverage, methylation levels, position deltas) are coded with
//! adaptive models that track their skewed, slowly-drifting distributions
//! far better than a static Huffman table.
//!
//! Two facts keep the per-bit paths short:
//!
//! * A [`BitModel`] probability stays in [31, 2017] (of 2048), so one
//!   modelled bit leaves at least 31/2048 of the range and one raw bit
//!   half of it. A range of at least 2^24 is back there after a single
//!   8-bit shift, so both coders normalize with one `if`, not a loop.
//! * The decoder walks a bit tree (a [`ByteModel`] byte, the width tree
//!   of a [`UIntModel`]) with both children's probabilities loaded before
//!   the current bit resolves, and keeps the one the bit selects: the
//!   next bit does not wait on a load whose address is the bit just
//!   decoded.

use crate::error::CodecError;

const TOP: u32 = 1 << 24;
const PROB_BITS: u32 = 11;
const PROB_ONE: u16 = 1 << PROB_BITS;
const PROB_INIT: u16 = PROB_ONE / 2;
const MOVE_BITS: u32 = 5;

/// An adaptive probability of a bit being 0, in 11-bit fixed point.
#[derive(Debug, Clone, Copy)]
pub struct BitModel(u16);

impl Default for BitModel {
    fn default() -> Self {
        BitModel(PROB_INIT)
    }
}

impl BitModel {
    /// Creates a model with the 50/50 prior.
    pub fn new() -> Self {
        BitModel::default()
    }

    /// The model after coding `bit`: the probability moves 1/32 of its
    /// distance towards 0 or 2048, rounded down, so from 1024 it never
    /// leaves [31, 2017].
    #[inline]
    fn after(self, bit: bool) -> BitModel {
        let p = self.0;
        let next = if bit {
            p - (p >> MOVE_BITS)
        } else {
            p + ((PROB_ONE - p) >> MOVE_BITS)
        };
        debug_assert!((31..=2017).contains(&next), "probability {next}");
        BitModel(next)
    }
}

/// The range encoder.
///
/// ```
/// use faaspipe_codec::range::{BitModel, RangeDecoder, RangeEncoder};
///
/// # fn main() -> Result<(), faaspipe_codec::CodecError> {
/// let bits = [true, false, false, true, false, false, false, false];
/// let mut enc = RangeEncoder::new();
/// let mut m = BitModel::new();
/// for &b in &bits {
///     enc.encode_bit(&mut m, b);
/// }
/// let packed = enc.finish();
/// let mut dec = RangeDecoder::new(&packed)?;
/// let mut m = BitModel::new();
/// for &b in &bits {
///     assert_eq!(dec.decode_bit(&mut m), b);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        RangeEncoder::new()
    }
}

impl RangeEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        RangeEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    // Runs about once per output byte; keeping it out of line keeps the
    // inlined per-bit paths small.
    #[inline(never)]
    fn shift_low(&mut self) {
        if self.low < 0xFF00_0000 || self.low > 0xFFFF_FFFF {
            let carry = (self.low >> 32) as u8;
            let mut cache = self.cache;
            loop {
                self.out.push(cache.wrapping_add(carry));
                cache = 0xFF;
                self.cache_size -= 1;
                if self.cache_size == 0 {
                    break;
                }
            }
            self.cache = (self.low >> 24) as u8;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Restores `range >= 2^24` after one coded bit (see the module docs
    /// for why one shift is enough).
    #[inline(always)]
    fn normalize(&mut self) {
        if self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
        debug_assert!(self.range >= TOP);
    }

    /// Encodes one bit under an adaptive model.
    #[inline]
    pub fn encode_bit(&mut self, model: &mut BitModel, bit: bool) {
        let bound = (self.range >> PROB_BITS) * model.0 as u32;
        if !bit {
            self.range = bound;
        } else {
            self.low += bound as u64;
            self.range -= bound;
        }
        *model = model.after(bit);
        self.normalize();
    }

    /// Encodes `count` raw bits (MSB first) without a model.
    #[inline]
    pub fn encode_direct(&mut self, value: u64, count: u32) {
        for i in (0..count).rev() {
            self.range >>= 1;
            // Raw payload bits are coin flips, so a branch on them
            // mispredicts half the time; add the half range under a mask.
            let bit = ((value >> i) & 1) as u32;
            self.low += (self.range & bit.wrapping_neg()) as u64;
            self.normalize();
        }
    }

    /// Flushes and returns the compressed bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// The range decoder (mirror of [`RangeEncoder`]). Decoding cannot fail:
/// past the end of its input it reads zeros, and a container catches that
/// with [`RangeDecoder::position`] and its checksum.
#[derive(Debug)]
pub struct RangeDecoder<'a> {
    range: u32,
    code: u32,
    data: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    /// Initializes the decoder over `data`.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] if the stream is shorter than the
    /// 5-byte preamble.
    pub fn new(data: &'a [u8]) -> Result<Self, CodecError> {
        if data.len() < 5 {
            return Err(CodecError::UnexpectedEof);
        }
        let mut code = 0u32;
        for &b in &data[1..5] {
            code = (code << 8) | b as u32;
        }
        Ok(RangeDecoder {
            range: u32::MAX,
            code,
            data,
            pos: 5,
        })
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        let b = self.data.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Bytes consumed so far. After the last symbol of a stream that
    /// [`RangeEncoder::finish`] produced this equals the stream's length,
    /// so a container can treat a larger value as truncation.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The mirror of [`RangeEncoder::normalize`].
    #[inline(always)]
    fn normalize(&mut self) {
        if self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | self.next_byte() as u32;
        }
        debug_assert!(self.range >= TOP);
    }

    /// Resolves one bit coded under `model`, without adapting it.
    #[inline(always)]
    fn bit(&mut self, model: BitModel) -> bool {
        let bound = (self.range >> PROB_BITS) * model.0 as u32;
        let bit = if self.code < bound {
            self.range = bound;
            false
        } else {
            self.code -= bound;
            self.range -= bound;
            true
        };
        self.normalize();
        bit
    }

    /// Decodes one bit under an adaptive model.
    #[inline]
    pub fn decode_bit(&mut self, model: &mut BitModel) -> bool {
        let bit = self.bit(*model);
        *model = model.after(bit);
        bit
    }

    /// Decodes `count` raw bits (MSB first).
    #[inline]
    pub fn decode_direct(&mut self, count: u32) -> u64 {
        let mut value = 0u64;
        for _ in 0..count {
            self.range >>= 1;
            // Branch-free for the same reason as `encode_direct`.
            let bit = (self.code >= self.range) as u32;
            self.code -= self.range & bit.wrapping_neg();
            value = (value << 1) | bit as u64;
            self.normalize();
        }
        value
    }

    /// Decodes one symbol of the bit tree `nodes` (node 1 is the root,
    /// node `n` has children `2n` and `2n + 1`, so `N = 2^levels`) and
    /// returns it, in `0..N`. Both children's models are loaded before
    /// the current bit resolves and the bit only selects one of them.
    #[inline(always)]
    fn decode_tree<const N: usize>(&mut self, nodes: &mut [BitModel; N]) -> usize {
        let mut node = 1;
        let mut model = nodes[1];
        for _ in 1..N.trailing_zeros() {
            let (zero, one) = (nodes[2 * node], nodes[2 * node + 1]);
            let bit = self.bit(model);
            nodes[node] = model.after(bit);
            node = 2 * node + bit as usize;
            model = if bit { one } else { zero };
        }
        let bit = self.bit(model);
        nodes[node] = model.after(bit);
        2 * node + bit as usize - N
    }
}

/// A bit-tree model over 8-bit symbols (255 adaptive nodes), held
/// inline: creating one allocates nothing.
#[derive(Debug, Clone)]
pub struct ByteModel {
    nodes: [BitModel; 256],
}

impl Default for ByteModel {
    fn default() -> Self {
        ByteModel {
            nodes: [BitModel::new(); 256],
        }
    }
}

impl ByteModel {
    /// Creates a fresh model.
    pub fn new() -> Self {
        ByteModel::default()
    }

    /// Encodes a byte.
    #[inline]
    pub fn encode(&mut self, enc: &mut RangeEncoder, byte: u8) {
        let mut node = 1usize;
        for i in (0..8).rev() {
            let bit = (byte >> i) & 1 == 1;
            enc.encode_bit(&mut self.nodes[node], bit);
            node = (node << 1) | bit as usize;
        }
    }

    /// Decodes a byte.
    #[inline]
    pub fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> u8 {
        dec.decode_tree(&mut self.nodes) as u8
    }
}

/// Adaptive unsigned-integer model: the bit-width is coded with a small
/// bit-tree (highly skewed in practice), the payload bits directly. Held
/// inline, like [`ByteModel`].
#[derive(Debug, Clone)]
pub struct UIntModel {
    width_nodes: [BitModel; 128],
}

impl Default for UIntModel {
    fn default() -> Self {
        UIntModel {
            width_nodes: [BitModel::new(); 128],
        }
    }
}

impl UIntModel {
    /// Creates a fresh model.
    pub fn new() -> Self {
        UIntModel::default()
    }

    /// Encodes an arbitrary `u64`.
    #[inline]
    pub fn encode(&mut self, enc: &mut RangeEncoder, value: u64) {
        let width = 64 - value.leading_zeros(); // 0 for value 0
        debug_assert!(width <= 64);
        // 7-bit tree over widths 0..=64.
        let mut node = 1usize;
        for i in (0..7).rev() {
            let bit = (width >> i) & 1 == 1;
            enc.encode_bit(&mut self.width_nodes[node], bit);
            node = (node << 1) | bit as usize;
        }
        if width > 1 {
            // Leading bit is implicit.
            enc.encode_direct(value & ((1u64 << (width - 1)) - 1), width - 1);
        }
    }

    /// Decodes a `u64`.
    ///
    /// # Errors
    /// [`CodecError::BadSymbol`] if the decoded width exceeds 64.
    #[inline]
    pub fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> Result<u64, CodecError> {
        let width = dec.decode_tree(&mut self.width_nodes) as u32;
        if width > 64 {
            return Err(CodecError::BadSymbol {
                value: width as u64,
            });
        }
        Ok(match width {
            0 => 0,
            1 => 1,
            w => (1u64 << (w - 1)) | dec.decode_direct(w - 1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_bits_compress_below_one_bit_each() {
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        let n = 10_000;
        for i in 0..n {
            enc.encode_bit(&mut m, i % 100 == 0); // 1% ones
        }
        let packed = enc.finish();
        assert!(
            packed.len() < n / 8 / 4,
            "1%-skewed bits should beat 2 bits/byte: {} bytes",
            packed.len()
        );
        let mut dec = RangeDecoder::new(&packed).expect("stream");
        let mut m = BitModel::new();
        for i in 0..n {
            assert_eq!(dec.decode_bit(&mut m), i % 100 == 0);
        }
    }

    #[test]
    fn direct_bits_round_trip() {
        let values = [
            (0u64, 1u32),
            (1, 1),
            (0xDEAD, 16),
            (0xFFFF_FFFF, 32),
            ((1 << 57) - 1, 57),
        ];
        let mut enc = RangeEncoder::new();
        for &(v, n) in &values {
            enc.encode_direct(v, n);
        }
        let packed = enc.finish();
        let mut dec = RangeDecoder::new(&packed).expect("stream");
        for &(v, n) in &values {
            assert_eq!(dec.decode_direct(n), v);
        }
    }

    #[test]
    fn byte_model_round_trip_and_adapts() {
        let data: Vec<u8> = (0..5000)
            .map(|i| if i % 10 == 0 { 7 } else { 42 })
            .collect();
        let mut enc = RangeEncoder::new();
        let mut m = ByteModel::new();
        for &b in &data {
            m.encode(&mut enc, b);
        }
        let packed = enc.finish();
        assert!(
            packed.len() < data.len() / 4,
            "two-valued bytes: {}",
            packed.len()
        );
        let mut dec = RangeDecoder::new(&packed).expect("stream");
        let mut m = ByteModel::new();
        for &b in &data {
            assert_eq!(m.decode(&mut dec), b);
        }
    }

    #[test]
    fn uint_model_round_trip_edges() {
        let values = [
            0u64,
            1,
            2,
            3,
            127,
            128,
            1_000_000,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut enc = RangeEncoder::new();
        let mut m = UIntModel::new();
        for &v in &values {
            m.encode(&mut enc, v);
        }
        let packed = enc.finish();
        let mut dec = RangeDecoder::new(&packed).expect("stream");
        let mut m = UIntModel::new();
        for &v in &values {
            assert_eq!(m.decode(&mut dec).expect("value"), v);
        }
    }

    fn print_golden(what: &str, packed: &[u8]) {
        if std::env::var("FAASPIPE_PRINT_GOLDEN").is_ok() {
            let crc = crate::checksum::crc32(packed);
            println!(
                "{what}: {} bytes, crc {crc:#010X}: {packed:?}",
                packed.len()
            );
        }
    }

    #[test]
    fn uint_model_stream_is_pinned() {
        // Round trips cannot see an encoder and decoder that change in
        // step; this pins the bytes of the width tree and payload bits.
        let values = [0u64, 1, 2, 127, 128, u32::MAX as u64, u64::MAX];
        let mut enc = RangeEncoder::new();
        let mut m = UIntModel::new();
        for &v in &values {
            m.encode(&mut enc, v);
        }
        let packed = enc.finish();
        print_golden("uint stream", &packed);
        assert_eq!(
            packed,
            [
                0, 0, 5, 17, 36, 125, 206, 183, 182, 148, 219, 254, 34, 91, 7, 255, 255, 255, 255,
                255, 240, 214, 64, 0
            ]
        );
    }

    #[test]
    fn byte_model_stream_is_pinned() {
        let mut enc = RangeEncoder::new();
        let mut m = ByteModel::new();
        for b in 0..=255u8 {
            m.encode(&mut enc, b);
        }
        let packed = enc.finish();
        print_golden("byte stream", &packed);
        assert_eq!(
            (packed.len(), crate::checksum::crc32(&packed)),
            (227, 0xA080_7808)
        );
    }

    #[test]
    fn uint_model_small_values_are_cheap() {
        let mut enc = RangeEncoder::new();
        let mut m = UIntModel::new();
        for _ in 0..10_000 {
            m.encode(&mut enc, 1);
        }
        let packed = enc.finish();
        assert!(
            packed.len() < 400,
            "constant small ints: {} bytes",
            packed.len()
        );
    }

    #[test]
    fn truncated_preamble_rejected() {
        assert!(matches!(
            RangeDecoder::new(&[0, 1, 2]),
            Err(CodecError::UnexpectedEof)
        ));
    }

    #[test]
    fn mixed_models_interleave() {
        // Interleave bit, byte, direct and uint codings in one stream.
        let mut enc = RangeEncoder::new();
        let mut bm = BitModel::new();
        let mut by = ByteModel::new();
        let mut um = UIntModel::new();
        for i in 0..500u64 {
            enc.encode_bit(&mut bm, i % 3 == 0);
            by.encode(&mut enc, (i % 251) as u8);
            enc.encode_direct(i % 16, 4);
            um.encode(&mut enc, i * i);
        }
        let packed = enc.finish();
        let mut dec = RangeDecoder::new(&packed).expect("stream");
        let mut bm = BitModel::new();
        let mut by = ByteModel::new();
        let mut um = UIntModel::new();
        for i in 0..500u64 {
            assert_eq!(dec.decode_bit(&mut bm), i % 3 == 0);
            assert_eq!(by.decode(&mut dec), (i % 251) as u8);
            assert_eq!(dec.decode_direct(4), i % 16);
            assert_eq!(um.decode(&mut dec).expect("uint"), i * i);
        }
    }
}
