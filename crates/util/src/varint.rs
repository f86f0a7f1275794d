//! LEB128 variable-length integers — the wire encoding of the binary
//! trace format (DESIGN.md §11).
//!
//! Small values (superblock ids, sizes, counts) dominate trace files, so
//! 7-bit groups with a continuation bit beat fixed-width fields by 4–7×
//! on real logs. The encoding is the canonical unsigned LEB128: little-
//! endian 7-bit groups, high bit set on every byte but the last. A `u64`
//! therefore occupies at most [`MAX_LEN`] bytes.

/// Longest encoding of a `u64` (⌈64 / 7⌉ bytes).
pub const MAX_LEN: usize = 10;

/// Appends the LEB128 encoding of `value` to `buf`.
pub fn write_u64(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes a LEB128 `u64` from `bytes` starting at `*pos`, advancing
/// `*pos` past it. Returns `None` on a truncated encoding, on more than
/// [`MAX_LEN`] bytes, or on bits beyond the 64th.
///
/// One- and two-byte encodings (every id and `from` of a typical trace)
/// return from an inline fast path; anything longer, and every failure,
/// falls through to the checked loop from the same starting position.
#[inline]
#[must_use]
pub fn read_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let start = *pos;
    if let Some(&b0) = bytes.get(start) {
        if b0 & 0x80 == 0 {
            *pos = start + 1;
            return Some(u64::from(b0));
        }
        if let Some(&b1) = bytes.get(start + 1) {
            if b1 & 0x80 == 0 {
                *pos = start + 2;
                return Some(u64::from(b0 & 0x7f) | u64::from(b1) << 7);
            }
        }
    }
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        let group = u64::from(byte & 0x7f);
        // The 10th byte may only carry the single remaining bit.
        if shift == 63 && group > 1 {
            return None;
        }
        value |= group << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// [`read_u64`] narrowed to `u32`; `None` if the value does not fit.
#[inline]
#[must_use]
pub fn read_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    u32::try_from(read_u64(bytes, pos)?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) -> (u64, usize) {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        let mut pos = 0;
        let back = read_u64(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len(), "decode must consume exactly the encoding");
        (back, buf.len())
    }

    #[test]
    fn canonical_values_roundtrip() {
        for v in [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(roundtrip(v).0, v);
        }
    }

    #[test]
    fn encoded_lengths_match_leb128() {
        assert_eq!(roundtrip(0).1, 1);
        assert_eq!(roundtrip(127).1, 1);
        assert_eq!(roundtrip(128).1, 2);
        assert_eq!(roundtrip(16_383).1, 2);
        assert_eq!(roundtrip(16_384).1, 3);
        assert_eq!(roundtrip(u64::MAX).1, MAX_LEN);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 300);
        let mut pos = 0;
        assert!(read_u64(&buf[..1], &mut pos).is_none());
        assert!(read_u64(&[], &mut 0).is_none());
    }

    #[test]
    fn overlong_and_overflowing_encodings_are_rejected() {
        // Eleven continuation bytes: longer than any valid u64.
        let overlong = [0x80u8; 11];
        assert!(read_u64(&overlong, &mut 0).is_none());
        // Ten bytes whose last group carries bits past the 64th.
        let mut overflow = vec![0xffu8; 9];
        overflow.push(0x02);
        assert!(read_u64(&overflow, &mut 0).is_none());
    }

    #[test]
    fn sequential_decode_advances_the_cursor() {
        let mut buf = Vec::new();
        for v in [5u64, 500, 50_000] {
            write_u64(&mut buf, v);
        }
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), Some(5));
        assert_eq!(read_u64(&buf, &mut pos), Some(500));
        assert_eq!(read_u32(&buf, &mut pos), Some(50_000));
        assert_eq!(pos, buf.len());
    }

    /// The checked loop alone, without the fast path in front of it.
    fn reference(bytes: &[u8], pos: &mut usize) -> Option<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *bytes.get(*pos)?;
            *pos += 1;
            let group = u64::from(byte & 0x7f);
            if shift == 63 && group > 1 {
                return None;
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                return Some(value);
            }
            shift += 7;
            if shift > 63 {
                return None;
            }
        }
    }

    /// Both decoders on `bytes` from offset 0: same value, same cursor.
    fn assert_agrees(bytes: &[u8]) {
        let (mut fast, mut slow) = (0, 0);
        assert_eq!(
            read_u64(bytes, &mut fast),
            reference(bytes, &mut slow),
            "value of {bytes:02x?}"
        );
        assert_eq!(fast, slow, "cursor after {bytes:02x?}");
    }

    #[test]
    fn fast_path_agrees_with_the_loop_on_every_short_input() {
        for b0 in 0..=u8::MAX {
            assert_agrees(&[b0]);
            for b1 in 0..=u8::MAX {
                // Every 2-byte input, non-canonical ones such as
                // [0x80, 0x00] included, and each followed by a byte so
                // a 3-byte encoding also leaves the fast path.
                assert_agrees(&[b0, b1]);
                assert_agrees(&[b0, b1, 0x01]);
                assert_agrees(&[b0, b1, 0x81]);
            }
        }
        assert_agrees(&[]);
        let (mut pos, bytes) = (0, [0x80, 0x00]);
        assert_eq!(read_u64(&bytes, &mut pos), Some(0));
        assert_eq!(pos, 2);
    }

    #[test]
    fn fast_path_agrees_on_every_truncation_and_offset() {
        let mut buf = vec![0xaa];
        for v in [0, 1, 127, 128, 300, 16_383, 16_384, (1 << 21) - 1, 1 << 21] {
            buf.truncate(1);
            write_u64(&mut buf, v);
            for end in 1..=buf.len() {
                let (mut fast, mut slow) = (1, 1);
                assert_eq!(
                    read_u64(&buf[..end], &mut fast),
                    reference(&buf[..end], &mut slow),
                    "{v} cut to {end}"
                );
                assert_eq!(fast, slow, "{v} cut to {end}");
            }
        }
    }

    #[test]
    fn read_u32_rejects_wide_values() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::from(u32::MAX) + 1);
        assert!(read_u32(&buf, &mut 0).is_none());
    }
}
