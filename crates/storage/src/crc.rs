//! CRC-32 (IEEE 802.3) for log-frame integrity.
//!
//! This checksum protects against *accidental* corruption (torn writes,
//! bit rot) in the storage layer. It is **not** part of the tamper-evidence
//! story — that is what the cryptographic provenance checksums are for.

/// Initial (and final-XOR) CRC-32 state.
pub(crate) const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Table-driven CRC-32 with the IEEE polynomial (reflected, 0xEDB88320).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(CRC_INIT, data) ^ CRC_INIT
}

/// Streaming update: feed `state` from a previous call (start with
/// `0xFFFF_FFFF`), finish by XOR-ing with `0xFFFF_FFFF`.
pub(crate) fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        let idx = ((state ^ b as u32) & 0xFF) as usize;
        state = TABLE[idx] ^ (state >> 8);
    }
    state
}

/// Frame checksum shared by every length-prefixed framing in the system
/// (the [`crate::log`] durable log and the `tep-net` wire protocol):
/// CRC-32 over the big-endian length prefix followed by the payload bytes.
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

const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

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
