//! CRC-32 (ISO-HDLC), the per-chunk integrity check of the binary trace
//! format (DESIGN.md §11).
//!
//! The reflected polynomial `0xEDB88320` with init/xorout `0xFFFFFFFF` —
//! the same parameters as zlib's `crc32`, so saved traces can be checked
//! with standard tooling. Slicing-by-8: eight 256-entry tables computed
//! at compile time fold eight input bytes per step with eight independent
//! lookups, so the per-byte loop-carried dependency of the classic
//! one-table CRC is gone; a tail of fewer than eight bytes goes bytewise
//! through the first table. No external crates.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const TABLES: [[u32; 256]; 8] = build_tables();

/// Incremental CRC-32 state, for hashing a stream in pieces.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh checksum (init value `0xFFFFFFFF`).
    #[must_use]
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let (blocks, tail) = bytes.as_chunks::<8>();
        for &[b0, b1, b2, b3, b4, b5, b6, b7] in blocks {
            let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][usize::from(b4)]
                ^ t[2][usize::from(b5)]
                ^ t[1][usize::from(b6)]
                ^ t[0][usize::from(b7)];
        }
        for &b in tail {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// The final checksum (xorout applied); the state remains usable.
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook bit-at-a-time CRC, independent of the tables.
    fn reference(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    /// Deterministic, non-repeating test bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn slicing_matches_the_bitwise_reference_at_every_length_and_offset() {
        let data = noise(300 + 8);
        for start in 0..8 {
            for len in 0..=300 {
                let bytes = &data[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    !reference(!0, bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn two_updates_match_one_at_every_split() {
        let data = noise(64);
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"chunked trace payload bytes";
        let mut c = Crc32::new();
        for piece in data.chunks(5) {
            c.update(piece);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn single_bit_corruption_changes_the_checksum() {
        let mut data = b"eviction granularity".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
