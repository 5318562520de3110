//! # faaspipe-codec — compression substrate
//!
//! From-scratch building blocks for the METHCOMP reproduction and its
//! gzip-class baseline (the paper claims METHCOMP compresses methylation
//! data ~10× better than gzip; reproducing that claim requires owning both
//! sides of the comparison):
//!
//! * [`bitio`] — MSB-first bit-level readers and writers
//! * [`varint`] — LEB128 varints and zigzag signed encoding
//! * [`checksum`] — CRC-32 (IEEE)
//! * [`huffman`] — canonical, length-limited Huffman codes
//! * [`lz77`] — hash-chain match finder over a sliding window
//! * [`gzipish`] — a DEFLATE-shaped LZ77 + Huffman container
//!   (compressor *and* decompressor), the gzip stand-in
//! * [`range`] — adaptive binary range coder with bit-tree byte models
//!
//! All coders round-trip losslessly; the property-test suite hammers that
//! invariant.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), faaspipe_codec::CodecError> {
//! let data = b"abcabcabcabcabcabc".repeat(20);
//! let packed = faaspipe_codec::gzipish::compress(&data);
//! assert!(packed.len() < data.len());
//! let unpacked = faaspipe_codec::gzipish::decompress(&packed)?;
//! assert_eq!(unpacked, data);
//! # Ok(())
//! # }
//! ```

pub mod bitio;
pub mod checksum;
pub mod error;
pub mod gzipish;
pub mod huffman;
pub mod lz77;
pub mod range;
pub mod varint;

pub use error::CodecError;
