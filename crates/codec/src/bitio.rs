//! MSB-first bit-level I/O over byte buffers.

use crate::error::CodecError;

/// Writes bits MSB-first into a growable byte vector.
///
/// ```
/// use faaspipe_codec::bitio::{BitReader, BitWriter};
///
/// # fn main() -> Result<(), faaspipe_codec::CodecError> {
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xFF, 8);
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// assert_eq!(r.read_bits(8)?, 0xFF);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Number of whole bytes emitted so far (excluding buffered bits).
    pub fn byte_len(&self) -> usize {
        self.out.len()
    }

    /// Appends the low `count` bits of `value`, most significant first.
    ///
    /// # Panics
    /// Panics if `count > 57` (the accumulator guarantee) or if `value`
    /// has bits above `count`.
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 57, "write_bits supports at most 57 bits at once");
        debug_assert!(
            count == 64 || value < (1u64 << count),
            "value {:#x} exceeds {} bits",
            value,
            count
        );
        self.acc = (self.acc << count) | value;
        self.nbits += count;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.out.push((self.acc >> self.nbits) as u8);
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Pads with zero bits to a byte boundary.
    pub fn align(&mut self) {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.write_bits(0, pad);
        }
    }

    /// Appends whole bytes (aligning first).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.align();
        self.out.extend_from_slice(bytes);
    }

    /// Finishes the stream, padding the final byte with zeros.
    pub fn finish(mut self) -> Vec<u8> {
        self.align();
        self.out
    }
}

/// Reads bits MSB-first from a byte slice. See [`BitWriter`] for a
/// round-trip example.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize, // next byte index
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Reads `count` bits, most significant first.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] if fewer than `count` bits remain.
    ///
    /// # Panics
    /// Panics if `count > 57`.
    pub fn read_bits(&mut self, count: u32) -> Result<u64, CodecError> {
        assert!(count <= 57, "read_bits supports at most 57 bits at once");
        while self.nbits < count {
            let byte = *self.data.get(self.pos).ok_or(CodecError::UnexpectedEof)?;
            self.pos += 1;
            self.acc = (self.acc << 8) | byte as u64;
            self.nbits += 8;
        }
        self.nbits -= count;
        let value = (self.acc >> self.nbits) & ((1u64 << count) - 1);
        Ok(if count == 0 { 0 } else { value })
    }

    /// Reads one bit.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] at end of input.
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Discards buffered bits up to the next byte boundary.
    pub fn align(&mut self) {
        self.nbits -= self.nbits % 8;
    }

    /// Reads `n` whole bytes (aligning first).
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.align();
        // Serve buffered whole bytes back out of `data` by rewinding.
        let buffered = (self.nbits / 8) as usize;
        let start = self.pos - buffered;
        self.nbits = 0;
        self.acc = 0;
        if start + n > self.data.len() {
            return Err(CodecError::UnexpectedEof);
        }
        self.pos = start + n;
        Ok(&self.data[start..start + n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().expect("bit available"), b);
        }
    }

    #[test]
    fn multi_bit_values_round_trip() {
        let values = [
            (0u64, 1u32),
            (1, 1),
            (5, 3),
            (255, 8),
            (1023, 10),
            (0x1FFFFF, 21),
            (42, 57),
        ];
        let mut w = BitWriter::new();
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n).expect("bits available"), v);
        }
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.align();
        w.write_bits(0xAB, 8);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1000_0000, 0xAB]);
    }

    #[test]
    fn write_bytes_aligns_first() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bytes(&[0x12, 0x34]);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1000_0000, 0x12, 0x34]);
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().expect("bit"));
        assert_eq!(r.read_bytes(2).expect("bytes"), &[0x12, 0x34]);
    }

    #[test]
    fn eof_is_detected() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).expect("one byte"), 0xFF);
        assert_eq!(r.read_bits(1), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn read_bytes_after_bits_rewinds_to_boundary() {
        // Write 4 bits then 2 bytes; reader consumes 4 bits, aligns, and
        // must see exactly those 2 bytes.
        let mut w = BitWriter::new();
        w.write_bits(0xF, 4);
        w.write_bytes(&[0xDE, 0xAD]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).expect("bits"), 0xF);
        assert_eq!(r.read_bytes(2).expect("bytes"), &[0xDE, 0xAD]);
        assert_eq!(r.read_bits(1), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn byte_len_counts_whole_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.byte_len(), 0);
        w.write_bits(0b101, 3);
        assert_eq!(w.byte_len(), 0);
        w.write_bits(0, 13);
        assert_eq!(w.byte_len(), 2);
    }

    #[test]
    fn zero_bit_read_is_zero() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bits(0).expect("zero bits always available"), 0);
    }
}
