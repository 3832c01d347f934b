//! Fuzz-style robustness tests for the wire decoder: whatever a hostile or
//! broken peer sends, the frame reader must fail with a clean error —
//! never panic, never allocate unbounded memory. Mirrors the storage
//! layer's `decoder_robustness` suite, aimed at the network boundary.

use std::io::Cursor;
use std::sync::Arc;

use proptest::prelude::*;
use tep_crypto::digest::HashAlgorithm;
use tep_net::wire::{
    decode_message, encode_message, FrameReader, FrameWriter, Message, WIRE_VERSION,
};
use tep_net::TransferCounters;
use tep_net::{ErrorCode, WireError, MAX_FRAME};

fn reader_on(bytes: Vec<u8>) -> FrameReader<Cursor<Vec<u8>>> {
    FrameReader::new(Cursor::new(bytes), Arc::new(TransferCounters::new()))
}

/// Drains a reader until EOF or the first error; returns how many messages
/// decoded. The point is that this always terminates without panicking.
fn drain(bytes: Vec<u8>) -> (usize, Option<WireError>) {
    let mut r = reader_on(bytes);
    let mut n = 0usize;
    loop {
        match r.read_message() {
            Ok(Some(_)) => n += 1,
            Ok(None) => return (n, None),
            Err(e) => return (n, Some(e)),
        }
    }
}

/// A cheap-to-build valid message stream (no crypto required).
fn sample_stream() -> Vec<u8> {
    let counters = Arc::new(TransferCounters::new());
    let mut w = FrameWriter::new(Vec::new(), counters);
    for msg in [
        Message::Hello {
            version: WIRE_VERSION,
            alg: HashAlgorithm::Sha256,
            tenant: 0,
        },
        Message::Fetch {
            oid: tep_model::ObjectId(42),
        },
        Message::Done {
            records: 3,
            nodes: 11,
        },
        Message::Error {
            code: ErrorCode::Busy,
            retry_after_ms: 25,
            detail: "accept queue full".into(),
        },
    ] {
        w.write_message(&msg).unwrap();
    }
    w.into_inner()
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    // An 8 GiB length prefix must fail fast with Oversized, not attempt
    // the allocation (the CRC is irrelevant — the check comes first).
    let mut frame = Vec::new();
    frame.extend_from_slice(&(u32::MAX).to_be_bytes());
    frame.extend_from_slice(&[0u8; 4]);
    frame.extend_from_slice(&[0u8; 64]);
    let (n, err) = drain(frame);
    assert_eq!(n, 0);
    assert!(
        matches!(err, Some(WireError::Oversized { len }) if len as usize > MAX_FRAME),
        "got {err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes through the frame reader: clean error or EOF, never
    /// a panic, never a hang.
    #[test]
    fn frame_reader_survives_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = drain(bytes);
    }

    /// Arbitrary bytes through the payload decoder directly.
    #[test]
    fn decoder_survives_random_payloads(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_message(&bytes);
    }

    /// A valid stream cut at every possible byte offset: either some whole
    /// messages then clean EOF (cut on a frame boundary) or a truncation
    /// error — never a panic, never a phantom extra message.
    #[test]
    fn truncated_valid_stream_fails_cleanly(cut in any::<usize>()) {
        let stream = sample_stream();
        let cut = cut % (stream.len() + 1);
        let (n, err) = drain(stream[..cut].to_vec());
        prop_assert!(n <= 4);
        if cut < stream.len() {
            // Mid-stream cut: fewer messages, and a non-boundary cut errors.
            prop_assert!(n < 4);
        } else {
            prop_assert!(err.is_none());
            prop_assert_eq!(n, 4);
        }
    }

    /// A single bit flipped anywhere in a valid stream: the reader must
    /// fail or decode different-but-bounded messages — never panic. A flip
    /// in a frame body is always caught by the CRC.
    #[test]
    fn bit_flips_never_panic_and_body_flips_fail_crc(
        pos in any::<usize>(),
        bit in 0usize..8,
    ) {
        let mut stream = sample_stream();
        let pos = pos % stream.len();
        stream[pos] ^= 1 << bit;
        let (n, err) = drain(stream);
        prop_assert!(n <= 4);
        // Offset 0..8 is the first frame's own header (length prefix /
        // CRC field): corruption there may masquerade as a huge length or
        // a CRC mismatch. Anywhere else the first frame that covers the
        // flipped byte fails its CRC check.
        if pos >= 8 {
            prop_assert!(err.is_some(), "flip at {} went unnoticed", pos);
        }
    }

    /// Round-trip stability under concatenation: any sequence of cheap
    /// messages written back-to-back reads back identically.
    #[test]
    fn streams_of_messages_roundtrip(oids in prop::collection::vec(any::<u64>(), 0..16)) {
        let counters = Arc::new(TransferCounters::new());
        let mut w = FrameWriter::new(Vec::new(), counters);
        for &oid in &oids {
            w.write_message(&Message::Fetch { oid: tep_model::ObjectId(oid) }).unwrap();
        }
        let (n, err) = drain(w.into_inner());
        prop_assert!(err.is_none());
        prop_assert_eq!(n, oids.len());
    }

    /// The payload encoder/decoder pair is stable for DONE frames over the
    /// whole u64 range (length-prefixed ints, no varint edge cases).
    #[test]
    fn done_roundtrips_over_u64_range(records in any::<u64>(), nodes in any::<u64>()) {
        let msg = Message::Done { records, nodes };
        let payload = encode_message(&msg);
        let back = decode_message(&payload).unwrap();
        prop_assert!(matches!(
            back,
            Message::Done { records: r, nodes: n } if r == records && n == nodes
        ));
    }
}
