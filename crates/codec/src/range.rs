//! Adaptive binary range coder (carry-less, LZMA-style) with bit-tree
//! byte models, an order-1 context model, and adaptive integer coding.
//!
//! This is METHCOMP's entropy stage in this reproduction: the per-field
//! streams (coverage, methylation levels, position deltas) are coded with
//! adaptive models that track their skewed, slowly-drifting distributions
//! far better than a static Huffman table.

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

    #[inline]
    fn update(&mut self, bit: bool) {
        if bit {
            self.0 -= self.0 >> MOVE_BITS;
        } else {
            self.0 += (PROB_ONE - self.0) >> MOVE_BITS;
        }
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
///     assert_eq!(dec.decode_bit(&mut m)?, b);
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

    /// Bytes emitted so far (excluding the unflushed tail).
    pub fn byte_len(&self) -> usize {
        self.out.len()
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
        model.update(bit);
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
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
            while self.range < TOP {
                self.range <<= 8;
                self.shift_low();
            }
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

/// The range decoder (mirror of [`RangeEncoder`]).
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
        // Reading past the end yields zeros; corrupt streams are caught by
        // the container's checksums/length checks.
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

    /// Decodes one bit under an adaptive model.
    ///
    /// # Errors
    /// Currently infallible in-band (overruns read as zeros) but kept
    /// fallible for container-level symmetry.
    #[inline]
    pub fn decode_bit(&mut self, model: &mut BitModel) -> Result<bool, CodecError> {
        let bound = (self.range >> PROB_BITS) * model.0 as u32;
        let bit = if self.code < bound {
            self.range = bound;
            false
        } else {
            self.code -= bound;
            self.range -= bound;
            true
        };
        model.update(bit);
        while self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | self.next_byte() as u32;
        }
        Ok(bit)
    }

    /// Decodes `count` raw bits (MSB first).
    ///
    /// # Errors
    /// See [`RangeDecoder::decode_bit`].
    #[inline]
    pub fn decode_direct(&mut self, count: u32) -> Result<u64, CodecError> {
        let mut value = 0u64;
        for _ in 0..count {
            self.range >>= 1;
            // Branch-free for the same reason as `encode_direct`.
            let bit = (self.code >= self.range) as u32;
            self.code -= self.range & bit.wrapping_neg();
            value = (value << 1) | bit as u64;
            while self.range < TOP {
                self.range <<= 8;
                self.code = (self.code << 8) | self.next_byte() as u32;
            }
        }
        Ok(value)
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
    ///
    /// # Errors
    /// See [`RangeDecoder::decode_bit`].
    #[inline]
    pub fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> Result<u8, CodecError> {
        let mut node = 1usize;
        for _ in 0..8 {
            let bit = dec.decode_bit(&mut self.nodes[node])?;
            node = (node << 1) | bit as usize;
        }
        Ok((node & 0xFF) as u8)
    }
}

/// An order-1 byte model: one [`ByteModel`] per previous-byte context.
#[derive(Debug)]
pub struct Order1Model {
    contexts: Vec<ByteModel>,
    prev: u8,
}

impl Default for Order1Model {
    fn default() -> Self {
        Order1Model {
            contexts: vec![ByteModel::new(); 256],
            prev: 0,
        }
    }
}

impl Order1Model {
    /// Creates a fresh model (context = 0).
    pub fn new() -> Self {
        Order1Model::default()
    }

    /// Encodes a byte in the running context.
    pub fn encode(&mut self, enc: &mut RangeEncoder, byte: u8) {
        self.contexts[self.prev as usize].encode(enc, byte);
        self.prev = byte;
    }

    /// Decodes a byte in the running context.
    ///
    /// # Errors
    /// See [`RangeDecoder::decode_bit`].
    pub fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> Result<u8, CodecError> {
        let byte = self.contexts[self.prev as usize].decode(dec)?;
        self.prev = byte;
        Ok(byte)
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
        let mut node = 1usize;
        for _ in 0..7 {
            let bit = dec.decode_bit(&mut self.width_nodes[node])?;
            node = (node << 1) | bit as usize;
        }
        let width = (node & 0x7F) as u32;
        if width > 64 {
            return Err(CodecError::BadSymbol {
                value: width as u64,
            });
        }
        Ok(match width {
            0 => 0,
            1 => 1,
            w => (1u64 << (w - 1)) | dec.decode_direct(w - 1)?,
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
            assert_eq!(dec.decode_bit(&mut m).expect("bit"), i % 100 == 0);
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
            assert_eq!(dec.decode_direct(n).expect("bits"), v);
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
            assert_eq!(m.decode(&mut dec).expect("byte"), b);
        }
    }

    #[test]
    fn order1_model_beats_order0_on_markov_data() {
        // Alternating structure: next byte strongly depends on previous.
        let data: Vec<u8> = (0..8000)
            .map(|i| if i % 2 == 0 { b'A' } else { b'B' })
            .collect();
        let o0 = {
            let mut enc = RangeEncoder::new();
            let mut m = ByteModel::new();
            for &b in &data {
                m.encode(&mut enc, b);
            }
            enc.finish().len()
        };
        let o1 = {
            let mut enc = RangeEncoder::new();
            let mut m = Order1Model::new();
            for &b in &data {
                m.encode(&mut enc, b);
            }
            enc.finish().len()
        };
        assert!(o1 < o0, "order-1 {} vs order-0 {}", o1, o0);
        // Round trip.
        let mut enc = RangeEncoder::new();
        let mut m = Order1Model::new();
        for &b in &data {
            m.encode(&mut enc, b);
        }
        let packed = enc.finish();
        let mut dec = RangeDecoder::new(&packed).expect("stream");
        let mut m = Order1Model::new();
        for &b in &data {
            assert_eq!(m.decode(&mut dec).expect("byte"), b);
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
            assert_eq!(dec.decode_bit(&mut bm).expect("bit"), i % 3 == 0);
            assert_eq!(by.decode(&mut dec).expect("byte"), (i % 251) as u8);
            assert_eq!(dec.decode_direct(4).expect("direct"), i % 16);
            assert_eq!(um.decode(&mut dec).expect("uint"), i * i);
        }
    }
}
