//! CRC-32 (IEEE 802.3) and the one CRC frame header built from it.
//!
//! This checksum protects against *accidental* corruption (torn writes,
//! bit rot) in the storage layer. It is **not** part of the tamper-evidence
//! story — that is what the cryptographic provenance checksums are for.
//! This module is the one place that writes or parses a frame header
//! (`len(u32) crc(u32)` before `len` payload bytes), and a sealed blob is
//! a magic then one frame.

/// Initial (and final-XOR) CRC-32 state.
pub(crate) const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Table-driven CRC-32 with the IEEE polynomial (reflected, 0xEDB88320).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(CRC_INIT, data) ^ CRC_INIT
}

/// Streaming update: feed `state` from a previous call (start with
/// `0xFFFF_FFFF`), finish by XOR-ing with `0xFFFF_FFFF`.
///
/// Slicing-by-16: each iteration folds 16 input bytes through 16 independent
/// table lookups instead of a chain of 16 dependent ones, and a bytewise
/// loop over `TABLES[0]` takes the remainder. The result is bit-identical to
/// the one-byte-per-step definition (the `tests` module keeps it as the
/// reference).
pub(crate) fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let lo = state ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        state = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        state = t[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Frame checksum shared by every length-prefixed framing in the system
/// (the [`crate::log`] durable log, the `tep-net` wire protocol, sealed
/// blobs): CRC-32 over the big-endian length prefix, then the payload.
///
/// Covering the length keeps a run of zero bytes from parsing as a valid
/// empty frame (`crc32("") == 0`), which matters both for the log's
/// torn-tail rescan and for resynchronization on a byte stream.
pub fn frame_crc(len: u32, payload: &[u8]) -> u32 {
    let mut state = CRC_INIT;
    state = crc32_update(state, &len.to_be_bytes());
    state = crc32_update(state, payload);
    state ^ CRC_INIT
}

/// Bytes in a frame header: the payload's big-endian u32 length, then its
/// [`frame_crc`].
pub const FRAME_HEADER_LEN: usize = 8;

/// The header that precedes `payload` in every CRC frame: the log's, the
/// wire's, and the sealed blobs'. Callers cap `payload` well below 4 GiB.
pub fn frame_header(payload: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    let len = payload.len() as u32;
    (u64::from(len) << 32 | u64::from(frame_crc(len, payload))).to_be_bytes()
}

/// A frame header's (payload length, CRC). The payload it claims is
/// intact iff [`frame_header`] of it gives back the same header.
pub fn split_frame_header(header: [u8; FRAME_HEADER_LEN]) -> (u32, u32) {
    let header = u64::from_be_bytes(header);
    ((header >> 32) as u32, header as u32)
}

/// A single-blob file: `magic`, then one CRC frame holding `payload`.
pub fn seal_blob(magic: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&frame_header(payload));
    out.extend_from_slice(payload);
    out
}

/// The payload of a [`seal_blob`] file; `None` if the magic differs, the
/// frame is cut short or followed by more bytes, or the CRC fails.
pub fn open_blob<'a>(magic: &[u8], bytes: &'a [u8]) -> Option<&'a [u8]> {
    let (header, payload) = bytes.strip_prefix(magic)?.split_first_chunk()?;
    let (len, _) = split_frame_header(*header);
    (payload.len() == len as usize && frame_header(payload) == *header).then_some(payload)
}

/// `TABLES[0]` is the classic one-byte table; `TABLES[k][i]` is the CRC
/// state after byte `i` is followed by `k` zero bytes, so one block's 16
/// lookups can be XOR-ed together.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition: one dependent table step per byte. The kernel must
    /// equal it on every input.
    fn crc32_update_bytewise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state = TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        state
    }

    /// Deterministic filler (xorshift64*), so a failure names its bytes.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    fn inputs() -> Vec<(&'static str, Vec<u8>)> {
        vec![
            ("zeros", vec![0u8; 1024 + 16]),
            ("ones", vec![0xFFu8; 1024 + 16]),
            ("random", seeded_bytes(2009, 1024 + 16)),
        ]
    }

    #[test]
    fn kernel_matches_bytewise_at_every_length() {
        for (name, buf) in inputs() {
            for len in 0..=1024 {
                for state in [CRC_INIT, 0, 0x1234_5678] {
                    assert_eq!(
                        crc32_update(state, &buf[..len]),
                        crc32_update_bytewise(state, &buf[..len]),
                        "{name}: len {len}, state {state:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_matches_bytewise_at_every_start_offset() {
        for (name, buf) in inputs() {
            for start in 0..16 {
                for len in [0, 1, 15, 16, 17, 31, 32, 33, 255, 1000] {
                    let data = &buf[start..start + len];
                    assert_eq!(
                        crc32_update(CRC_INIT, data),
                        crc32_update_bytewise(CRC_INIT, data),
                        "{name}: start {start}, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_matches_bytewise_when_streamed_in_pieces() {
        let data = seeded_bytes(31337, 4096);
        let whole = crc32_update_bytewise(CRC_INIT, &data);
        for round in 0..64 {
            // Split at arbitrary points: piece lengths 0..=63 cover empty
            // pieces, sub-block tails and pieces spanning block boundaries.
            let mut cuts = seeded_bytes(round, 1024).into_iter();
            let (mut state, mut at) = (CRC_INIT, 0);
            while at < data.len() {
                let piece = usize::from(cuts.next().unwrap_or(16) % 64).min(data.len() - at);
                state = crc32_update(state, &data[at..at + piece]);
                at += piece;
            }
            assert_eq!(state, whole, "round {round}");
        }
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"hello crc world";
        let mut state = 0xFFFF_FFFF;
        state = crc32_update(state, &data[..5]);
        state = crc32_update(state, &data[5..]);
        assert_eq!(state ^ 0xFFFF_FFFF, crc32(data));
    }

    #[test]
    fn frame_crc_binds_length_and_payload() {
        let a = frame_crc(5, b"hello");
        // Same payload under a different claimed length must differ.
        assert_ne!(frame_crc(6, b"hello"), a);
        // Same length, different payload must differ.
        assert_ne!(frame_crc(5, b"hellp"), a);
        // The empty frame is NOT the raw crc32("") == 0 — the length prefix
        // is covered, so zero-runs never parse as valid frames.
        assert_ne!(frame_crc(0, b""), 0);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"provenance record payload".to_vec();
        let orig = crc32(&data);
        data[3] ^= 0x40;
        assert_ne!(crc32(&data), orig);
    }
}
