//! The record abstraction the shuffle operator sorts, and its
//! implementations.

use faaspipe_methcomp::{MethRecord, Strand};

use crate::error::ShuffleError;

/// A fixed-size binary record with a totally ordered key.
///
/// Implementations define how records serialize into the intermediate
/// partition objects exchanged through the store.
pub trait SortRecord: Clone + Send + Sync + 'static {
    /// The sort key.
    type Key: Ord + Clone + Send + Sync + 'static;

    /// Extracts the sort key.
    fn key(&self) -> Self::Key;

    /// Serialized size in bytes (fixed per type).
    const WIRE_SIZE: usize;

    /// Appends the wire form to `out`.
    fn write_to(&self, out: &mut Vec<u8>);

    /// Parses one record from exactly [`SortRecord::WIRE_SIZE`] bytes.
    ///
    /// # Errors
    /// [`ShuffleError::Corrupt`] if the bytes are not a valid record.
    fn read_from(bytes: &[u8]) -> Result<Self, ShuffleError>;

    /// Extracts the sort key straight from one record's wire form,
    /// validating the record exactly as [`SortRecord::read_from`] would
    /// (same [`ShuffleError::Corrupt`] variants for the same inputs) but
    /// without materializing the record. The zero-copy shuffle kernels
    /// ([`crate::kernel`]) sort and merge wire buffers through this.
    ///
    /// # Errors
    /// [`ShuffleError::Corrupt`] if the bytes are not a valid record.
    fn key_from_wire(bytes: &[u8]) -> Result<Self::Key, ShuffleError> {
        Ok(Self::read_from(bytes)?.key())
    }

    /// Parses a whole buffer of concatenated records.
    ///
    /// # Errors
    /// [`ShuffleError::Corrupt`] if the length is not a multiple of the
    /// wire size or any record is invalid.
    fn read_all(data: &[u8]) -> Result<Vec<Self>, ShuffleError> {
        if !data.len().is_multiple_of(Self::WIRE_SIZE) {
            return Err(ShuffleError::Corrupt {
                what: "record buffer length",
            });
        }
        let mut records = Vec::with_capacity(data.len() / Self::WIRE_SIZE);
        for wire in data.chunks_exact(Self::WIRE_SIZE) {
            records.push(Self::read_from(wire)?);
        }
        Ok(records)
    }

    /// Serializes a whole slice of records.
    fn write_all(records: &[Self]) -> Vec<u8> {
        let mut out = Vec::with_capacity(records.len() * Self::WIRE_SIZE);
        for r in records {
            r.write_to(&mut out);
        }
        out
    }
}

/// Test/bench record: a plain `u64` sorted by value (8-byte LE).
impl SortRecord for u64 {
    type Key = u64;
    const WIRE_SIZE: usize = 8;

    fn key(&self) -> u64 {
        *self
    }

    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn read_from(bytes: &[u8]) -> Result<Self, ShuffleError> {
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| ShuffleError::Corrupt { what: "u64 record" })?;
        Ok(u64::from_le_bytes(arr))
    }

    fn key_from_wire(bytes: &[u8]) -> Result<u64, ShuffleError> {
        Self::read_from(bytes)
    }
}

/// Methylation records sort by `(chrom, start, end, strand)` — the
/// pipeline's canonical genome order. Wire form: 23 bytes LE.
impl SortRecord for MethRecord {
    type Key = (u8, u64, u64, u8);
    const WIRE_SIZE: usize = 23;

    fn key(&self) -> Self::Key {
        (
            self.chrom,
            self.start,
            self.end,
            matches!(self.strand, Strand::Minus) as u8,
        )
    }

    fn write_to(&self, out: &mut Vec<u8>) {
        out.push(self.chrom);
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.end.to_le_bytes());
        out.push(matches!(self.strand, Strand::Minus) as u8);
        out.extend_from_slice(&self.coverage.to_le_bytes());
        out.push(self.meth_pct);
    }

    fn read_from(bytes: &[u8]) -> Result<Self, ShuffleError> {
        if bytes.len() != Self::WIRE_SIZE {
            return Err(ShuffleError::Corrupt {
                what: "meth record size",
            });
        }
        let chrom = bytes[0];
        let start = u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes"));
        let end = u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes"));
        let strand = match bytes[17] {
            0 => Strand::Plus,
            1 => Strand::Minus,
            _ => {
                return Err(ShuffleError::Corrupt {
                    what: "meth record strand",
                })
            }
        };
        let coverage = u32::from_le_bytes(bytes[18..22].try_into().expect("4 bytes"));
        let meth_pct = bytes[22];
        if meth_pct > 100 || end <= start {
            return Err(ShuffleError::Corrupt {
                what: "meth record fields",
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

    /// Validating fast path: decodes only the key fields, applying the
    /// same checks in the same order as `read_from` (size, strand,
    /// value ranges) so corrupt wire data reports identically.
    fn key_from_wire(bytes: &[u8]) -> Result<Self::Key, ShuffleError> {
        if bytes.len() != Self::WIRE_SIZE {
            return Err(ShuffleError::Corrupt {
                what: "meth record size",
            });
        }
        let chrom = bytes[0];
        let start = u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes"));
        let end = u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes"));
        let strand = bytes[17];
        if strand > 1 {
            return Err(ShuffleError::Corrupt {
                what: "meth record strand",
            });
        }
        if bytes[22] > 100 || end <= start {
            return Err(ShuffleError::Corrupt {
                what: "meth record fields",
            });
        }
        Ok((chrom, start, end, strand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_methcomp::synth::Synthesizer;

    #[test]
    fn u64_round_trip() {
        let records: Vec<u64> = vec![0, 1, u64::MAX, 42];
        let bytes = SortRecord::write_all(&records);
        assert_eq!(bytes.len(), 32);
        let got: Vec<u64> = SortRecord::read_all(&bytes).expect("round trip");
        assert_eq!(got, records);
    }

    #[test]
    fn meth_record_round_trip() {
        let ds = Synthesizer::new(21).generate_records(2_000);
        let bytes = SortRecord::write_all(&ds.records);
        assert_eq!(bytes.len(), 2_000 * MethRecord::WIRE_SIZE);
        let got: Vec<MethRecord> = SortRecord::read_all(&bytes).expect("round trip");
        assert_eq!(got, ds.records);
    }

    #[test]
    fn meth_key_matches_dataset_order() {
        let mut ds = Synthesizer::new(22).generate_shuffled(1_000);
        let mut by_trait = ds.records.clone();
        by_trait.sort_by_key(SortRecord::key);
        ds.sort();
        assert_eq!(by_trait, ds.records);
    }

    #[test]
    fn ragged_buffer_rejected() {
        let err = <u64 as SortRecord>::read_all(&[1, 2, 3]).expect_err("ragged");
        assert!(matches!(err, ShuffleError::Corrupt { .. }));
    }

    #[test]
    fn corrupt_strand_rejected() {
        let ds = Synthesizer::new(23).generate_records(1);
        let mut bytes = SortRecord::write_all(&ds.records);
        bytes[17] = 9;
        assert!(<MethRecord as SortRecord>::read_all(&bytes).is_err());
    }

    #[test]
    fn wire_keys_match_decoded_keys() {
        let ds = Synthesizer::new(24).generate_shuffled(1_000);
        let bytes = SortRecord::write_all(&ds.records);
        for (rec, wire) in ds
            .records
            .iter()
            .zip(bytes.chunks_exact(MethRecord::WIRE_SIZE))
        {
            assert_eq!(MethRecord::key_from_wire(wire).expect("valid"), rec.key());
        }
        let nums: Vec<u64> = vec![0, 1, u64::MAX, 0x0123_4567_89AB_CDEF];
        let bytes = SortRecord::write_all(&nums);
        for (n, wire) in nums.iter().zip(bytes.chunks_exact(8)) {
            assert_eq!(u64::key_from_wire(wire).expect("valid"), *n);
        }
    }

    /// `key_from_wire` must reject exactly what `read_from` rejects,
    /// with the same error description.
    #[test]
    fn wire_keys_reject_what_read_from_rejects() {
        fn corrupt_what(err: ShuffleError) -> &'static str {
            match err {
                ShuffleError::Corrupt { what } => what,
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        let ds = Synthesizer::new(25).generate_records(1);
        let good = SortRecord::write_all(&ds.records);
        for mutate in [
            |b: &mut Vec<u8>| b.truncate(10), // wrong size
            |b: &mut Vec<u8>| b[17] = 7,      // bad strand
            |b: &mut Vec<u8>| b[22] = 101,    // meth_pct out of range
            |b: &mut Vec<u8>| {
                // end <= start
                let start = b[1..9].to_vec();
                b[9..17].copy_from_slice(&start);
            },
        ] {
            let mut bad = good.clone();
            mutate(&mut bad);
            let via_read = corrupt_what(MethRecord::read_from(&bad).expect_err("read_from"));
            let via_key = corrupt_what(MethRecord::key_from_wire(&bad).expect_err("key_from_wire"));
            assert_eq!(via_read, via_key);
        }
        assert!(u64::key_from_wire(&[1, 2, 3]).is_err());
    }
}
