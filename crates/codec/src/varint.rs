//! LEB128 variable-length integers and zigzag signed mapping.

use crate::error::CodecError;

/// Appends `value` as an unsigned LEB128 varint.
///
/// ```
/// let mut buf = Vec::new();
/// faaspipe_codec::varint::write_u64(&mut buf, 300);
/// let (v, used) = faaspipe_codec::varint::read_u64(&buf).unwrap();
/// assert_eq!((v, used), (300, 2));
/// ```
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint, returning `(value, bytes_consumed)`.
///
/// # Errors
/// [`CodecError::UnexpectedEof`] if the input ends mid-varint and
/// [`CodecError::LengthOverflow`] if the encoding exceeds 10 bytes or
/// overflows 64 bits.
pub fn read_u64(input: &[u8]) -> Result<(u64, usize), CodecError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i >= 10 {
            return Err(CodecError::LengthOverflow { declared: value });
        }
        let payload = (byte & 0x7F) as u64;
        if shift == 63 && payload > 1 {
            return Err(CodecError::LengthOverflow { declared: value });
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(CodecError::UnexpectedEof)
}

/// Zigzag-maps a signed integer to unsigned (small magnitudes stay small).
pub fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trip_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let (got, used) = read_u64(&buf).expect("valid varint");
            assert_eq!(got, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips_edges() {
        for v in [0i64, 1, -1, 63, -64, i32::MIN as i64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn zigzag_small_magnitudes_stay_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(unzigzag(zigzag(-123456)), -123456);
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1_000_000);
        let err = read_u64(&buf[..buf.len() - 1]).expect_err("truncated");
        assert_eq!(err, CodecError::UnexpectedEof);
    }

    #[test]
    fn overlong_encoding_rejected() {
        let buf = [0x80u8; 11];
        assert!(matches!(
            read_u64(&buf),
            Err(CodecError::LengthOverflow { .. })
        ));
        // 10-byte encoding overflowing 64 bits.
        let mut buf = vec![0xFFu8; 9];
        buf.push(0x7F);
        assert!(matches!(
            read_u64(&buf),
            Err(CodecError::LengthOverflow { .. })
        ));
    }
}
