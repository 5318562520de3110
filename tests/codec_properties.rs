//! Property-based tests of every codec: round-trip losslessness under
//! arbitrary inputs, plus structural invariants of the coding tables.

use proptest::collection::vec;
use proptest::prelude::*;

use faaspipe::codec::bitio::{BitReader, BitWriter};
use faaspipe::codec::range::{ByteModel, RangeDecoder, RangeEncoder, UIntModel};
use faaspipe::codec::{gzipish, huffman, varint};
use faaspipe::methcomp::codec as mc;
use faaspipe::methcomp::{Dataset, MethRecord, Strand};

proptest! {
    #[test]
    fn gzipish_round_trips_arbitrary_bytes(data in vec(any::<u8>(), 0..20_000)) {
        let packed = gzipish::compress(&data);
        let unpacked = gzipish::decompress(&packed).expect("round trip");
        prop_assert_eq!(unpacked, data);
    }

    #[test]
    fn gzipish_round_trips_repetitive_bytes(
        seed in vec(any::<u8>(), 1..64),
        reps in 1usize..400,
    ) {
        let data: Vec<u8> = seed.iter().cycle().take(seed.len() * reps).copied().collect();
        let packed = gzipish::compress(&data);
        prop_assert_eq!(gzipish::decompress(&packed).expect("round trip"), data);
    }

    #[test]
    fn varint_round_trips(values in vec(any::<u64>(), 0..500)) {
        let mut buf = Vec::new();
        for &v in &values {
            varint::write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            let (got, used) = varint::read_u64(&buf[pos..]).expect("valid");
            prop_assert_eq!(got, v);
            pos += used;
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_is_a_bijection(v in any::<i64>()) {
        prop_assert_eq!(varint::unzigzag(varint::zigzag(v)), v);
    }

    #[test]
    fn bitio_round_trips(ops in vec((any::<u64>(), 1u32..57), 0..300)) {
        let mut w = BitWriter::new();
        for &(v, n) in &ops {
            w.write_bits(v & ((1u64 << n) - 1), n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &ops {
            prop_assert_eq!(r.read_bits(n).expect("bits"), v & ((1u64 << n) - 1));
        }
    }

    #[test]
    fn huffman_codes_round_trip_for_any_histogram(
        freqs in vec(0u64..10_000, 2..64),
    ) {
        let lengths = huffman::build_lengths(&freqs, 15);
        let live: Vec<usize> = freqs
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            prop_assert!(lengths.iter().all(|&l| l == 0));
            return Ok(());
        }
        prop_assert!(huffman::kraft_ok(&lengths));
        prop_assert!(lengths.iter().all(|&l| l <= 15));
        let enc = huffman::Encoder::from_lengths(&lengths).expect("encoder");
        let dec = huffman::Decoder::from_lengths(&lengths).expect("decoder");
        let mut w = BitWriter::new();
        for &s in &live {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &live {
            prop_assert_eq!(dec.decode(&mut r).expect("symbol"), s);
        }
    }

    #[test]
    fn range_models_round_trip(bytes in vec(any::<u8>(), 0..4_000), ints in vec(any::<u64>(), 0..500)) {
        let mut enc = RangeEncoder::new();
        let mut bm = ByteModel::new();
        let mut um = UIntModel::new();
        for &b in &bytes {
            bm.encode(&mut enc, b);
        }
        for &v in &ints {
            um.encode(&mut enc, v);
        }
        let packed = enc.finish();
        let mut dec = RangeDecoder::new(&packed).expect("stream");
        let mut bm = ByteModel::new();
        let mut um = UIntModel::new();
        for &b in &bytes {
            prop_assert_eq!(bm.decode(&mut dec), b);
        }
        for &v in &ints {
            prop_assert_eq!(um.decode(&mut dec).expect("uint"), v);
        }
        // The decoder ends exactly at the end of the stream; METHCOMP
        // relies on never reading past it.
        prop_assert_eq!(dec.position(), packed.len());
    }
}

prop_compose! {
    fn arb_record()(
        chrom in 0u8..24,
        start in 0u64..250_000_000,
        width in 0u64..3,
        minus in any::<bool>(),
        coverage in 0u32..100_000,
        meth_pct in 0u8..=100,
    ) -> MethRecord {
        MethRecord {
            chrom,
            start,
            end: start + width + 1,
            strand: if minus { Strand::Minus } else { Strand::Plus },
            coverage,
            meth_pct,
        }
    }
}

proptest! {
    #[test]
    fn methcomp_round_trips_arbitrary_records(records in vec(arb_record(), 0..2_000)) {
        let ds = Dataset::new(records);
        let packed = mc::compress(&ds);
        prop_assert_eq!(mc::decompress(&packed).expect("round trip"), ds);
    }

    #[test]
    fn methcomp_round_trips_sorted_records(records in vec(arb_record(), 0..2_000)) {
        let mut ds = Dataset::new(records);
        ds.sort();
        let packed = mc::compress(&ds);
        let got = mc::decompress(&packed).expect("round trip");
        prop_assert_eq!(&got, &ds);
        // And the canonical text layer round-trips too.
        prop_assert_eq!(got.to_text(), ds.to_text());
    }

    #[test]
    fn bed_text_round_trips(records in vec(arb_record(), 0..300)) {
        let ds = Dataset::new(records);
        let text = ds.to_text();
        prop_assert_eq!(ds.text_len(), text.len());
        let parsed = Dataset::from_text(&text).expect("parse");
        prop_assert_eq!(parsed, ds);
    }

    #[test]
    fn methcomp_decompress_never_panics_on_garbage(data in vec(any::<u8>(), 0..2_000)) {
        // Arbitrary bytes must be rejected or decode to something; the
        // decoder must never panic. Behind the magic, the garbage also
        // reaches the declared record count.
        let _ = mc::decompress(&data);
        let _ = mc::decompress(&[b"MC01".as_slice(), &data].concat());
    }

    #[test]
    fn gzipish_decompress_never_panics_on_garbage(data in vec(any::<u8>(), 0..2_000)) {
        let _ = gzipish::decompress(&data);
        let _ = gzipish::decompress(&[b"FZ01".as_slice(), &data].concat());
    }
}
