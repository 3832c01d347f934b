//! Deterministic binary wire format for provenance exchange.
//!
//! Every message travels in one **frame**:
//!
//! ```text
//! frame   := len:u32be  crc:u32be  payload[len]
//! payload := type:u8    body
//! ```
//!
//! where `crc` is [`tep_storage::crc::frame_crc`] — CRC-32 over the
//! big-endian length prefix followed by the payload — exactly the framing
//! the durable log uses on disk. Covering the length prefix means a run of
//! zero bytes can never parse as a valid empty frame, and a frame whose
//! length field was damaged in flight fails the checksum instead of
//! desynchronizing the stream. The CRC protects against *accidental*
//! corruption only; deliberate tampering is caught by the cryptographic
//! provenance checksums the payloads carry (see `tep-core::verify`).
//!
//! Message bodies reuse the canonical encodings already defined elsewhere:
//! provenance records travel as [`StoredRecord`] bytes (the storage wire
//! format), data values as `tep_model::encode` canonical values. All
//! integers are big-endian; all variable-length fields are length-prefixed.
//! There is exactly one encoding for every message — the format is
//! deterministic so byte streams can be compared, replayed, and hashed.
//!
//! Decoding is hardened against untrusted input: the frame length is
//! capped at [`MAX_FRAME`] *before* any allocation, vector pre-allocation
//! never trusts wire-supplied counts, and every body decoder must consume
//! its payload exactly.

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

use tep_core::slice::QuerySpec;
use tep_crypto::digest::HashAlgorithm;
use tep_model::encode::{Codec, DecodeError, List, Reader, Rest};
use tep_model::{codec_structs, codecs, ObjectId, Value};
use tep_storage::crc::{self, split_frame_header, FRAME_HEADER_LEN};
use tep_storage::StoredRecord;

use crate::TransferCounters;

/// Magic bytes opening every HELLO body (protocol family + format version).
pub(crate) const WIRE_MAGIC: [u8; 8] = *b"TEPNET\x00\x01";

/// Protocol version negotiated in HELLO. v2 added RESUME/RESUME_OK and the
/// ERR `retry_after_ms` hint; v3 added DENIAL, RANGE_REQ/RANGE_RESP and
/// the optional signed root on AE summary responses (authenticated
/// denial); v4 added the tenant scope to HELLO (every subsequent frame on
/// the connection is scoped to that tenant) and the non-retryable
/// `unknown tenant` error.
pub const WIRE_VERSION: u16 = 4;

/// Hard cap on a frame's payload length. Enforced before allocating, so a
/// hostile 4 GiB length prefix costs the decoder nothing.
pub const MAX_FRAME: usize = 1 << 20;

/// Soft target for DATA frame payload size; the server flushes a chunk
/// once it crosses this many encoded bytes.
pub(crate) const DATA_CHUNK_BYTES: usize = 32 * 1024;

/// `AeReq.level` value that asks for the tree summary (root exchange)
/// instead of a specific node — a replica cannot know the primary's tree
/// depth before the first exchange.
pub const AE_SUMMARY_LEVEL: u32 = u32::MAX;

/// Why a peer refused a request. The discriminant is the code's wire byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// HELLO version or hash algorithm did not match.
    VersionMismatch = 1,
    /// The requested object is not offered here.
    UnknownObject = 2,
    /// The server's accept queue is full; try again later.
    Busy = 3,
    /// The peer sent a message the protocol state does not allow.
    BadRequest = 4,
    /// A RESUME offset/digest does not match the server's history — the
    /// claimed prefix is not byte-identical to what the server would send.
    ResumeMismatch = 5,
    /// A request exceeded the server's per-request deadline and the
    /// connection was closed; reconnect (and resume) to continue.
    Deadline = 6,
    /// The tenant named in HELLO is unknown to this server.
    /// **Non-retryable**, unlike `Busy`: no amount of backoff makes an
    /// unprovisioned tenant exist, so clients surface it immediately
    /// instead of burning retry budget.
    UnknownTenant = 7,
}

impl ErrorCode {
    /// Every code; the decoder searches this list for the wire byte.
    const ALL: [ErrorCode; 7] = [
        ErrorCode::VersionMismatch,
        ErrorCode::UnknownObject,
        ErrorCode::Busy,
        ErrorCode::BadRequest,
        ErrorCode::ResumeMismatch,
        ErrorCode::Deadline,
        ErrorCode::UnknownTenant,
    ];
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::VersionMismatch => "version mismatch",
            ErrorCode::UnknownObject => "unknown object",
            ErrorCode::Busy => "server busy",
            ErrorCode::BadRequest => "bad request",
            ErrorCode::ResumeMismatch => "resume mismatch",
            ErrorCode::Deadline => "connection deadline exceeded",
            ErrorCode::UnknownTenant => "unknown or disabled tenant",
        };
        f.write_str(s)
    }
}

/// The message table: each message once, as its type byte and then its
/// fields in wire order, each written and read by one
/// [`tep_model::encode::Codec`] — the field's own type, or the codec named
/// after `as`. The `Message` enum, `encode_message_into` and
/// `decode_message` are all generated from it, so the two directions cannot
/// drift apart; the table is the normative statement of the format.
macro_rules! wire_messages {
    (@codec $t:ty) => { $t };
    (@codec $t:ty as $c:ty) => { $c };
    ($(#[$m:meta])* pub enum Message {
        $($(#[$vm:meta])* $v:ident = $tag:literal $({
            $($(#[$fm:meta])* $f:ident: $t:ty $(as $c:ty)?,)*
        })?,)*
    }) => {
        $(#[$m])*
        pub enum Message {
            $($(#[$vm])* $v $({ $($(#[$fm])* $f: $t,)* })?,)*
        }

        /// Appends `msg`'s payload (type byte + body) to `out` without
        /// clearing it — the allocation-free twin of [`encode_message`].
        /// Callers that frame messages reserve header space in `out` first
        /// and patch it afterwards (see [`FrameWriter::write_message`]), so
        /// a warm buffer encodes and frames with zero allocations.
        pub fn encode_message_into(msg: &Message, out: &mut Vec<u8>) {
            match msg {
                $(Message::$v $({ $($f),* })? => {
                    out.push($tag);
                    $($(<wire_messages!(@codec $t $(as $c)?) as Codec>::put($f, out);)*)?
                })*
            }
        }

        /// Decodes one message from a complete frame payload.
        pub fn decode_message(payload: &[u8]) -> Result<Message, WireError> {
            let mut r = Reader::new(payload);
            let msg = match r.u8()? {
                $($tag => Message::$v $({
                    $($f: <wire_messages!(@codec $t $(as $c)?) as Codec>::take(&mut r)?,)*
                })?,)*
                t => return Err(WireError::BadType(t)),
            };
            r.expect_end()?;
            Ok(msg)
        }
    };
}

codec_structs! {
    /// One entry of the server's OFFER manifest.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct OfferEntry {
        /// The offered object.
        pub oid: ObjectId,
        /// Records in the object's own chain (the full DAG a FETCH delivers
        /// may be larger).
        pub records: u64,
        /// Nodes in the object's data subtree.
        pub nodes: u64,
    }

    /// One depth-tagged DFS-preorder node of a DATA frame.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct DataEntry {
        /// Depth below the transfer's root object (root = 0).
        pub depth: u16,
        /// The node's object id.
        pub id: ObjectId,
        /// The node's value, canonically encoded on the wire.
        pub value: Value,
    }
}

wire_messages! {
    /// A protocol message.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Message {
        /// Connection opener, sent by both sides: magic, version, algorithm,
        /// tenant scope.
        Hello = 0x01 {
            /// Protocol version ([`WIRE_VERSION`]).
            version: u16 as Version,
            /// Hash algorithm all hashes on this connection use.
            alg: HashAlgorithm,
            /// The tenant this connection operates in. Stated by the client,
            /// checked against the server's tenant directory at admission,
            /// and echoed back; every OFFER/FETCH/QUERY/DENIAL/AE frame that
            /// follows is implicitly scoped to it. Single-tenant deployments
            /// use [`tep_model::TenantId::DEFAULT`] (0).
            tenant: u64,
        },
        /// Manifest of objects the server serves.
        Offer = 0x02 {
            /// One entry per offered object, in `ObjectId` order.
            entries: Vec<OfferEntry> as List<4, OfferEntry>,
        },
        /// Client requests one object's provenance + data.
        Fetch = 0x03 {
            /// The requested object.
            oid: ObjectId,
        },
        /// One provenance record, in `(output_oid, seq_id)` order.
        Prov = 0x04 {
            /// The record in storage wire format: the rest of the payload.
            record: StoredRecord as Row,
        },
        /// A chunk of the object's data subtree in depth-tagged DFS preorder.
        Data = 0x05 {
            /// The entries of this chunk.
            entries: Vec<DataEntry> as List<4, DataEntry>,
        },
        /// End of a transfer, with totals for cross-checking.
        Done = 0x06 {
            /// PROV frames sent.
            records: u64,
            /// Data entries sent.
            nodes: u64,
        },
        /// Refusal. Fatal codes close the connection.
        Error = 0x07 {
            /// Machine-readable reason.
            code: ErrorCode,
            /// Backoff hint in milliseconds (0 = none): how long the peer
            /// suggests waiting before retrying. Sent with `Busy`/`Deadline`
            /// when the server is load-shedding.
            retry_after_ms: u64,
            /// Human-readable detail.
            detail: String,
        },
        /// Client asks the server for its metric registry.
        StatsRequest = 0x08,
        /// The server's metrics in text exposition format
        /// ([`tep_obs::Registry::render_text`]).
        Stats = 0x09 {
            /// The rendered exposition (UTF-8).
            text: String,
        },
        /// Client reopens a transfer that was cut after `records` records,
        /// proving where it stopped with its verifier's rolling stream digest.
        Resume = 0x0A {
            /// The object being transferred.
            oid: ObjectId,
            /// Records already received **and verified** by the client.
            records: u64,
            /// The client's [`RecordStreamDigest`] state after those records
            /// ([`tep_core::streaming::RecordStreamDigest`]).
            digest: Vec<u8>,
        },
        /// Server accepts a RESUME: it echoes the offset and its **own**
        /// recomputed digest over the first `records` records it would have
        /// sent, then continues the transfer from `records + 1`. A client
        /// whose digest disagrees rejects the transfer as `ResumeMismatch`
        /// evidence.
        ResumeOk = 0x0B {
            /// The resume offset being honored.
            records: u64,
            /// The server's recomputed stream digest over its own first
            /// `records` records.
            digest: Vec<u8>,
        },
        /// Client asks the server to run a provenance query.
        Query = 0x0C {
            /// What to compute, over which object, under which bounds.
            spec: QuerySpec,
        },
        /// The server's answer: an encoded `tep_core::slice::SliceProof` the
        /// client decodes and re-verifies with `Verifier::verify_slice`. The
        /// bytes travel opaquely — the wire layer never vouches for them.
        QResult = 0x0D {
            /// The proof in its canonical slice encoding.
            proof: Vec<u8> as Rest,
        },
        /// Replica asks for one node of the primary's per-shard Merkle tree
        /// over the object-ID space ([`tep_core::merkle::ShardTree`]) during
        /// an anti-entropy pass. `level == `[`AE_SUMMARY_LEVEL`] requests the
        /// root exchange (tree summary); otherwise `(level, index)` addresses
        /// a specific node, leaves at level 0.
        AeReq = 0x0E {
            /// Tree level (leaves = 0), or [`AE_SUMMARY_LEVEL`] for the
            /// summary.
            level: u32,
            /// Node index within the level (0 for the summary).
            index: u64,
        },
        /// One node of the responder's shard tree. Every response carries the
        /// shard's leaf count and depth (they are cheap and let the requester
        /// cross-check shape claims); `children` are the node's 1–2 child
        /// hashes (empty at leaf level), and `oid` names the leaf's object at
        /// leaf level. The requester authenticates each response structurally:
        /// the children must hash to the parent hash claimed one round
        /// earlier, so a forged node or root surfaces as
        /// `TamperEvidence::ForgedRoot` rather than steering the descent.
        AeResp = 0x0F {
            /// Leaves (objects) in the responder's shard.
            leaf_count: u64,
            /// Levels above the leaves.
            depth: u32,
            /// The addressed node's hash (the root hash for a summary).
            hash: Vec<u8>,
            /// The node's child hashes, in order; empty at leaf level and in
            /// summaries.
            children: Vec<Vec<u8>> as List<1, Vec<u8>>,
            /// At leaf level, the leaf's object id.
            oid: Option<ObjectId>,
            /// On summary responses from a signing server, the encoded
            /// [`tep_core::denial::SignedRoot`] over the shard — replicas
            /// refresh their non-membership root (and its monotonic
            /// `log_records` high-water mark) from it each anti-entropy
            /// round. The bytes travel opaquely; the receiver verifies the
            /// signature itself.
            signed_root: Option<Vec<u8>>,
        },
        /// Authenticated NOT_FOUND: the server's answer to a FETCH or QUERY
        /// for an object it does not hold. Carries an encoded
        /// [`tep_core::denial::SignedDenial`] — a signed non-membership proof
        /// the client verifies before accepting the denial as honest; a
        /// denial that fails verification is `ForgedDenial` evidence and is
        /// never retried.
        Denial = 0x10 {
            /// The proof in its canonical [`SignedDenial`] encoding
            /// ([`tep_core::denial::SignedDenial::to_bytes`]), opaque to the
            /// wire layer.
            proof: Vec<u8> as Rest,
        },
        /// Client asks which offered objects fall in an inclusive object-ID
        /// range — with proof that the answer is complete.
        RangeReq = 0x11 {
            /// Inclusive lower bound.
            lo: ObjectId,
            /// Inclusive upper bound.
            hi: ObjectId,
        },
        /// The server's range answer: the member object-IDs plus an encoded
        /// [`tep_core::denial::SignedRange`] completeness proof. The client
        /// cross-checks the served members against the proof's proven set —
        /// an answer missing a proven member is `IncompleteResponse`
        /// evidence.
        RangeResp = 0x12 {
            /// The members served, in ascending order.
            oids: Vec<ObjectId> as List<4, ObjectId>,
            /// The completeness proof in its canonical [`SignedRange`]
            /// encoding ([`tep_core::denial::SignedRange::to_bytes`]), opaque
            /// to the wire layer.
            proof: Vec<u8>,
        },
    }
}

/// Wire-layer failure.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/file error (includes read timeouts).
    Io(io::Error),
    /// A frame's length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The claimed payload length.
        len: u32,
    },
    /// The stream ended inside a frame.
    Truncated,
    /// Frame checksum mismatch: the bytes were damaged in flight.
    BadCrc,
    /// HELLO magic bytes are wrong — not a tep-net peer.
    BadMagic,
    /// Unknown message type byte.
    BadType(u8),
    /// A message body failed to decode.
    Decode(DecodeError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Oversized { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME}")
            }
            WireError::Truncated => write!(f, "stream ended inside a frame"),
            WireError::BadCrc => write!(f, "frame checksum mismatch"),
            WireError::BadMagic => write!(f, "bad protocol magic"),
            WireError::BadType(t) => write!(f, "unknown message type 0x{t:02x}"),
            WireError::Decode(e) => write!(f, "malformed message body: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            // Of the message bodies only HELLO opens with a magic.
            DecodeError::BadMagic => WireError::BadMagic,
            e => WireError::Decode(e),
        }
    }
}

/// Encodes `msg` into a payload (type byte + body), without framing.
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_message_into(msg, &mut out);
    out
}

codecs! {
    [] ErrorCode => ErrorCode, 1, |v, out| out.push(*v as u8), |r| {
        let id = r.u8()?;
        let code = ErrorCode::ALL.into_iter().find(|&c| c as u8 == id);
        code.ok_or(DecodeError::BadTag(id))?
    };
    /// A PROV record: the rest of the payload, decoded strictly.
    [] Row => StoredRecord, 0, |v, out| v.encode_into(out), |r| {
        StoredRecord::from_bytes(r.bytes(r.remaining())?)?
    };
    /// HELLO's version behind the [`WIRE_MAGIC`] that opens the body, so a
    /// peer that is not tep-net fails as [`WireError::BadMagic`].
    [] Version => u16, WIRE_MAGIC.len() + 2, |v, out| {
        out.extend_from_slice(&WIRE_MAGIC);
        u16::put(v, out)
    }, |r| {
        if r.array()? != WIRE_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        u16::take(r)?
    };
}

/// The wire-only codecs: a PROV row, the HELLO version.
enum Row {}
enum Version {}

/// Reads frames off a byte stream, verifying checksums and enforcing the
/// [`MAX_FRAME`] allocation cap, and counts them into [`TransferCounters`].
///
/// Each frame is two reads (header, then payload), so over a socket give
/// it a buffered reader (`std::io::BufReader`): one `recv` then serves
/// every frame that arrived together instead of costing two syscalls per
/// frame. Bytes the buffer holds past the last frame read belong to no
/// request yet, so an owner that reuses the stream must check for them.
pub struct FrameReader<R> {
    inner: R,
    counters: Arc<TransferCounters>,
    frames: u64,
    /// Reusable payload buffer: resized (within the [`MAX_FRAME`]-bounded
    /// capacity it converges to) instead of freshly allocated per frame.
    payload: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`; received frames/bytes are tallied into `counters`.
    pub fn new(inner: R, counters: Arc<TransferCounters>) -> Self {
        FrameReader {
            inner,
            counters,
            frames: 0,
            payload: Vec::new(),
        }
    }

    /// Frames read so far on this stream.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// The underlying reader.
    pub(crate) fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Reads the next message. `Ok(None)` means the peer closed the stream
    /// cleanly *between* frames; EOF inside a frame is [`WireError::Truncated`].
    pub fn read_message(&mut self) -> Result<Option<Message>, WireError> {
        let mut header = [0u8; FRAME_HEADER_LEN];
        match read_exact_or_eof(&mut self.inner, &mut header)? {
            ReadOutcome::Eof => return Ok(None),
            ReadOutcome::Full => {}
        }
        let (len, crc) = frame_header(header)?;
        // The length is capped, so the buffer's capacity is bounded; resize
        // reuses it across frames instead of allocating anew.
        self.payload.clear();
        self.payload.resize(len, 0);
        self.inner.read_exact(&mut self.payload)?;
        check_frame_crc(crc, &self.payload)?;
        self.frames += 1;
        self.counters
            .frame_received((FRAME_HEADER_LEN + len) as u64);
        decode_message(&self.payload).map(Some)
    }
}

/// Parses a frame header into (payload length, CRC), refusing a length
/// over [`MAX_FRAME`] before anything is allocated for the payload. The
/// blocking [`FrameReader`], the server's nonblocking connections and the
/// test proxy's relay all parse frames with this and [`check_frame_crc`].
pub(crate) fn frame_header(header: [u8; FRAME_HEADER_LEN]) -> Result<(usize, u32), WireError> {
    let (len, crc) = split_frame_header(header);
    if len as usize > MAX_FRAME {
        return Err(WireError::Oversized { len });
    }
    Ok((len as usize, crc))
}

/// Checks a frame's payload against the CRC its header carries.
pub(crate) fn check_frame_crc(crc: u32, payload: &[u8]) -> Result<(), WireError> {
    let ok = split_frame_header(crc::frame_header(payload)).1 == crc;
    ok.then_some(()).ok_or(WireError::BadCrc)
}

pub(crate) enum ReadOutcome {
    Full,
    Eof,
}

/// Like `read_exact`, but a clean EOF before the *first* byte is reported
/// as [`ReadOutcome::Eof`] instead of an error.
pub(crate) fn read_exact_or_eof(
    r: &mut impl Read,
    buf: &mut [u8],
) -> Result<ReadOutcome, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(ReadOutcome::Eof)
                } else {
                    Err(WireError::Truncated)
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Full)
}

/// Writes framed messages onto a byte stream, counting them into
/// [`TransferCounters`].
pub struct FrameWriter<W> {
    inner: W,
    counters: Arc<TransferCounters>,
    /// Reusable frame buffer: header placeholder + payload encoded in
    /// place, CRC patched over the placeholder — one buffer, zero fresh
    /// allocations per frame once warm.
    scratch: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps `inner`; sent frames/bytes are tallied into `counters`.
    pub fn new(inner: W, counters: Arc<TransferCounters>) -> Self {
        FrameWriter {
            inner,
            counters,
            scratch: Vec::new(),
        }
    }

    /// Consumes the writer, returning the underlying sink (useful for
    /// in-memory streams in tests and benches).
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// Frames and sends one message.
    pub fn write_message(&mut self, msg: &Message) -> Result<(), WireError> {
        self.scratch.clear();
        frame_message_into(msg, &mut self.scratch);
        self.inner.write_all(&self.scratch)?;
        self.inner.flush()?;
        self.counters.frame_sent(self.scratch.len() as u64);
        Ok(())
    }
}

/// Appends the complete wire frame (header + payload) for `msg` to `out`,
/// reusing the buffer's capacity: the 8-byte header is reserved, the
/// payload encoded directly behind it, and the length/CRC patched into the
/// reservation — no intermediate payload `Vec`. Appending lets the server
/// queue a turn's frames back to back in one write buffer.
pub(crate) fn frame_message_into(msg: &Message, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    encode_message_into(msg, out);
    let payload = start + FRAME_HEADER_LEN;
    debug_assert!(out.len() - payload <= MAX_FRAME, "oversized outbound frame");
    let header = crc::frame_header(&out[payload..]);
    out[start..payload].copy_from_slice(&header);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tep_crypto::pki::ParticipantId;
    use tep_storage::crc::frame_crc;

    fn counters() -> Arc<TransferCounters> {
        Arc::new(TransferCounters::new())
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                version: WIRE_VERSION,
                alg: HashAlgorithm::Sha256,
                tenant: 3,
            },
            Message::Error {
                code: ErrorCode::UnknownTenant,
                retry_after_ms: 0,
                detail: "tenant t9 is not provisioned here".into(),
            },
            Message::Offer {
                entries: vec![
                    OfferEntry {
                        oid: ObjectId(1),
                        records: 3,
                        nodes: 9,
                    },
                    OfferEntry {
                        oid: ObjectId(7),
                        records: 1,
                        nodes: 1,
                    },
                ],
            },
            Message::Fetch { oid: ObjectId(7) },
            Message::Prov {
                record: StoredRecord {
                    seq_id: 4,
                    participant: ParticipantId(2),
                    oid: ObjectId(7),
                    checksum: vec![0xAB; 64],
                    payload: vec![0xCD; 33],
                },
            },
            Message::Data {
                entries: vec![
                    DataEntry {
                        depth: 0,
                        id: ObjectId(7),
                        value: Value::text("root"),
                    },
                    DataEntry {
                        depth: 1,
                        id: ObjectId(8),
                        value: Value::Int(-5),
                    },
                ],
            },
            Message::Done {
                records: 4,
                nodes: 2,
            },
            Message::Error {
                code: ErrorCode::UnknownObject,
                retry_after_ms: 0,
                detail: "object 99 is not offered".into(),
            },
            Message::Error {
                code: ErrorCode::Busy,
                retry_after_ms: 250,
                detail: "queue full".into(),
            },
            Message::StatsRequest,
            Message::Stats {
                text: "# TYPE tep_net_frames_sent_total counter\n\
                       tep_net_frames_sent_total 7\n"
                    .into(),
            },
            Message::Resume {
                oid: ObjectId(7),
                records: 3,
                digest: vec![0x5A; 32],
            },
            Message::ResumeOk {
                records: 3,
                digest: vec![0x5A; 32],
            },
            Message::Query {
                spec: QuerySpec {
                    op: tep_core::slice::QueryOp::Ancestors,
                    target: ObjectId(7),
                    participant: Some(ParticipantId(2)),
                    bounds: tep_core::slice::QueryBounds {
                        max_depth: Some(3),
                        seq_range: Some((1, 9)),
                    },
                },
            },
            Message::QResult {
                proof: b"TEPSLICE\x01 opaque proof bytes".to_vec(),
            },
            Message::AeReq {
                level: AE_SUMMARY_LEVEL,
                index: 0,
            },
            Message::AeReq { level: 3, index: 5 },
            Message::AeResp {
                leaf_count: 12,
                depth: 4,
                hash: vec![0x6B; 32],
                children: vec![vec![0x11; 32], vec![0x22; 32]],
                oid: None,
                signed_root: None,
            },
            Message::AeResp {
                leaf_count: 12,
                depth: 4,
                hash: vec![0x6C; 32],
                children: vec![],
                oid: Some(ObjectId(9)),
                signed_root: None,
            },
            Message::AeResp {
                leaf_count: 12,
                depth: 4,
                hash: vec![0x6D; 32],
                children: vec![],
                oid: None,
                signed_root: Some(vec![0x7E; 96]),
            },
            Message::Denial {
                proof: b"opaque signed-denial bytes".to_vec(),
            },
            Message::RangeReq {
                lo: ObjectId(3),
                hi: ObjectId(9),
            },
            Message::RangeResp {
                oids: vec![ObjectId(4), ObjectId(7)],
                proof: b"opaque signed-range bytes".to_vec(),
            },
            Message::RangeResp {
                oids: vec![],
                proof: b"empty range still proves completeness".to_vec(),
            },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in sample_messages() {
            let payload = encode_message(&msg);
            let back = decode_message(&payload).unwrap();
            assert_eq!(back, msg, "roundtrip failed for {msg:?}");
        }
    }

    /// One encoding per message: every payload `decode_message` accepts
    /// re-encodes to exactly itself. The payloads are random bodies behind
    /// every type byte, and 1–3 byte mutations of every sample plus a DATA
    /// frame carrying every value kind (so a bool byte and a NaN payload
    /// are mutated too).
    #[test]
    fn every_accepted_payload_reencodes_to_itself() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::real(f64::NAN),
            Value::real(0.0),
            Value::real(2.5),
            Value::Bytes(vec![1, 2, 3]),
        ];
        let every_value = Message::Data {
            entries: (0..)
                .zip(values)
                .map(|(i, value)| DataEntry {
                    depth: i,
                    id: ObjectId(u64::from(i)),
                    value,
                })
                .collect(),
        };
        let mut corpus: Vec<Vec<u8>> = sample_messages().iter().map(encode_message).collect();
        corpus.push(encode_message(&every_value));
        let mut accepted = 0;
        let mut check = |payload: &[u8]| {
            if let Ok(msg) = decode_message(payload) {
                assert_eq!(
                    encode_message(&msg),
                    payload,
                    "{msg:?} has a second encoding"
                );
                accepted += 1;
            }
        };
        let mut rng = 2009;
        for tag in 0x01..=0x12u8 {
            for _ in 0..256 {
                let len = splitmix64(&mut rng) as usize % 48;
                let body = (0..len).map(|_| splitmix64(&mut rng) as u8);
                check(&std::iter::once(tag).chain(body).collect::<Vec<u8>>());
            }
        }
        for base in &corpus {
            for _ in 0..2048 {
                let mut payload = base.clone();
                for _ in 0..=splitmix64(&mut rng) % 3 {
                    let i = splitmix64(&mut rng) as usize % payload.len();
                    payload[i] = splitmix64(&mut rng) as u8;
                }
                check(&payload);
            }
        }
        assert!(accepted > 10_000, "only {accepted} payloads decoded");
    }

    /// Pins the wire bytes themselves. `every_message_roundtrips` passes
    /// whenever encode and decode drift in step; this does not: the SHA-256
    /// of every sample frame, concatenated, is the protocol as deployed.
    /// A change here is a wire-format change and needs a `WIRE_VERSION` bump.
    #[test]
    fn sample_frames_are_byte_stable() {
        let msgs = sample_messages();
        let mut types: Vec<u8> = msgs.iter().map(|m| encode_message(m)[0]).collect();
        types.sort_unstable();
        types.dedup();
        assert_eq!(
            types,
            (0x01..=0x12).collect::<Vec<u8>>(),
            "a type byte lacks a sample"
        );
        let mut frames = Vec::new();
        for msg in &msgs {
            frame_message_into(msg, &mut frames);
        }
        let hex: String = HashAlgorithm::Sha256
            .digest(&frames)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let frames_hex: String = frames.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            (frames.len(), hex.as_str()),
            (
                1386,
                "120adb27b9b9302f75436c8e9cac528f708b46cc992fb16e0303ecf02afbf9bd"
            ),
            "wire bytes changed; frames: {frames_hex}"
        );
    }

    #[test]
    fn framed_stream_roundtrips_and_counts() {
        let msgs = sample_messages();
        let mut buf = Vec::new();
        let send = counters();
        {
            let mut w = FrameWriter::new(&mut buf, Arc::clone(&send));
            for m in &msgs {
                w.write_message(m).unwrap();
            }
        }
        let recv = counters();
        let mut r = FrameReader::new(buf.as_slice(), Arc::clone(&recv));
        let mut back = Vec::new();
        while let Some(m) = r.read_message().unwrap() {
            back.push(m);
        }
        assert_eq!(back, msgs);
        let s = send.snapshot();
        let g = recv.snapshot();
        assert_eq!(s.frames_sent, msgs.len() as u64);
        assert_eq!(g.frames_received, msgs.len() as u64);
        assert_eq!(s.bytes_sent, g.bytes_received);
        assert_eq!(s.bytes_sent, buf.len() as u64);
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = Vec::new();
        let len = (MAX_FRAME as u32) + 1;
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(&frame_crc(len, &[]).to_be_bytes());
        // No payload at all: the reader must refuse on the length alone.
        let mut r = FrameReader::new(frame.as_slice(), counters());
        assert!(matches!(
            r.read_message(),
            Err(WireError::Oversized { len: l }) if l == len
        ));
    }

    #[test]
    fn corrupted_frame_fails_crc() {
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf, counters())
            .write_message(&Message::Fetch { oid: ObjectId(3) })
            .unwrap();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            let mut r = FrameReader::new(bad.as_slice(), counters());
            let res = r.read_message();
            assert!(
                !matches!(res, Ok(Some(Message::Fetch { oid })) if oid == ObjectId(3)),
                "flipped bit at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf, counters());
            for m in sample_messages() {
                w.write_message(&m).unwrap();
            }
        }
        for cut in 0..buf.len() {
            let mut r = FrameReader::new(buf[..cut].as_ref(), counters());
            loop {
                match r.read_message() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break, // clean EOF at a frame boundary
                    Err(WireError::Truncated) => break,
                    Err(e) => panic!("unexpected error at cut {cut}: {e}"),
                }
            }
        }
    }

    #[test]
    fn hello_magic_is_checked() {
        let msg = Message::Hello {
            version: WIRE_VERSION,
            alg: HashAlgorithm::Sha1,
            tenant: 0,
        };
        let mut payload = encode_message(&msg);
        payload[1] ^= 0xFF; // first magic byte
        assert!(matches!(decode_message(&payload), Err(WireError::BadMagic)));
    }

    #[test]
    fn unknown_type_and_trailing_bytes_rejected() {
        assert!(matches!(
            decode_message(&[0x7F]),
            Err(WireError::BadType(0x7F))
        ));
        let mut payload = encode_message(&Message::Fetch { oid: ObjectId(1) });
        payload.push(0x00);
        assert!(matches!(
            decode_message(&payload),
            Err(WireError::Decode(DecodeError::TrailingBytes(1)))
        ));
    }

    /// Pins the hot path's allocation behavior: once a [`FrameWriter`]'s
    /// scratch and a [`FrameReader`]'s payload buffer have seen the
    /// largest frame of a stream, re-sending the same traffic must not
    /// grow either buffer again — capacity stability is the observable
    /// proxy for "no per-frame allocation".
    #[test]
    fn warm_codec_buffers_stop_allocating() {
        let msgs = sample_messages();
        let mut warm = Vec::new();
        let mut w = FrameWriter::new(&mut warm, counters());
        // Warm-up pass: buffers grow to the high-water mark.
        for m in &msgs {
            w.write_message(m).unwrap();
        }
        let warm_cap = w.scratch.capacity();
        assert!(warm_cap > 0);
        // Steady state: 100 more rounds of identical traffic, zero growth.
        for _ in 0..100 {
            for m in &msgs {
                w.write_message(m).unwrap();
            }
            assert_eq!(
                w.scratch.capacity(),
                warm_cap,
                "encode scratch grew after warm-up — a per-frame allocation crept back in"
            );
        }
        let stream = w.into_inner().clone();

        let mut r = FrameReader::new(stream.as_slice(), counters());
        // Warm-up: one full pass of the stream's frames.
        for _ in 0..msgs.len() {
            r.read_message().unwrap().unwrap();
        }
        let warm_cap = r.payload.capacity();
        assert!(warm_cap > 0);
        while let Some(_m) = r.read_message().unwrap() {
            assert_eq!(
                r.payload.capacity(),
                warm_cap,
                "decode payload buffer grew after warm-up"
            );
        }
    }

    /// The in-place framing helper produces byte-identical frames to the
    /// historical encode-then-copy path (len ‖ crc ‖ payload), alone and
    /// appended behind earlier frames.
    #[test]
    fn frame_message_into_matches_reference_framing() {
        let mut frame = Vec::new();
        let mut appended = Vec::new();
        let mut references = Vec::new();
        for msg in sample_messages() {
            frame.clear();
            frame_message_into(&msg, &mut frame);
            frame_message_into(&msg, &mut appended);
            let payload = encode_message(&msg);
            let len = payload.len() as u32;
            let mut reference = Vec::new();
            reference.extend_from_slice(&len.to_be_bytes());
            reference.extend_from_slice(&frame_crc(len, &payload).to_be_bytes());
            reference.extend_from_slice(&payload);
            assert_eq!(frame, reference, "framing diverged for {msg:?}");
            references.extend_from_slice(&reference);
        }
        assert_eq!(appended, references, "appending disturbed an earlier frame");
    }

    #[test]
    fn data_count_cannot_force_allocation() {
        // Claims u32::MAX entries but carries none.
        let mut payload = vec![0x05];
        payload.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_message(&payload),
            Err(WireError::Decode(DecodeError::UnexpectedEof))
        ));
    }

    // ── The codec under a faulty byte stream ───────────────────────────
    //
    // A `FaultStream` wraps a `Read + Write` byte stream and fires one
    // scheduled fault at the Nth I/O operation: a connection reset, a clean
    // EOF, a read timeout, a seeded bit flip, or a short read/write.
    // Because `FrameReader`/`FrameWriter` are generic over the stream,
    // every codec path can be crashed at every byte boundary here — no
    // sockets, no threads, no timing.

    use crate::proxy::splitmix64;

    /// The fault a [`FaultStream`] fires at its scheduled operation.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum StreamFault {
        /// Fail the op with `io::ErrorKind::ConnectionReset`.
        Reset,
        /// Read returns 0 bytes (EOF); writes report `BrokenPipe`.
        Eof,
        /// Fail the op with `io::ErrorKind::TimedOut` — what a socket read
        /// returns when the peer stalls past the read timeout.
        TimedOut,
        /// Flip one seeded bit in the bytes the op delivers (reads only;
        /// writes pass through).
        BitFlip,
        /// Deliver only a seeded 1..=len prefix of the op's buffer. Callers
        /// using `read_exact`/`write_all` must survive this without
        /// corruption.
        Short,
    }

    /// When and how a [`FaultStream`] misbehaves.
    #[derive(Clone, Copy, Debug)]
    struct StreamFaultPlan {
        /// The fault to fire.
        fault: StreamFault,
        /// The 0-based I/O operation (reads and writes share one counter) at
        /// which to fire. `Short` keeps firing from this op onward (a slow
        /// link is not a one-shot event); the others fire once.
        at_op: u64,
        /// Seed for the fault's randomness (bit position, prefix length).
        seed: u64,
    }

    /// A `Read + Write` wrapper that injects one deterministic, scheduled
    /// fault.
    struct FaultStream<S> {
        inner: S,
        plan: StreamFaultPlan,
        rng: u64,
        op: u64,
        fired: bool,
    }

    impl<S> FaultStream<S> {
        /// Wraps `inner` with `plan`.
        fn new(inner: S, plan: StreamFaultPlan) -> Self {
            FaultStream {
                inner,
                plan,
                rng: plan.seed ^ 0x243F_6A88_85A3_08D3,
                op: 0,
                fired: false,
            }
        }

        /// The wrapped stream back (for inspecting what was actually written).
        fn into_inner(self) -> S {
            self.inner
        }

        /// True if this op is the scheduled one (or past it, for `Short`).
        fn due(&self) -> bool {
            if self.plan.fault == StreamFault::Short {
                self.op >= self.plan.at_op
            } else {
                self.op == self.plan.at_op && !self.fired
            }
        }
    }

    impl<S: Read> Read for FaultStream<S> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let due = self.due();
            self.op += 1;
            if !due {
                return self.inner.read(buf);
            }
            self.fired = true;
            match self.plan.fault {
                StreamFault::Reset => Err(io::ErrorKind::ConnectionReset.into()),
                StreamFault::Eof => Ok(0),
                StreamFault::TimedOut => Err(io::ErrorKind::TimedOut.into()),
                StreamFault::BitFlip => {
                    let n = self.inner.read(buf)?;
                    if n > 0 {
                        let bit = splitmix64(&mut self.rng) as usize % (n * 8);
                        buf[bit / 8] ^= 1 << (bit % 8);
                    }
                    Ok(n)
                }
                StreamFault::Short => {
                    if buf.is_empty() {
                        return self.inner.read(buf);
                    }
                    let take = 1 + splitmix64(&mut self.rng) as usize % buf.len();
                    self.inner.read(&mut buf[..take])
                }
            }
        }
    }

    impl<S: Write> Write for FaultStream<S> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let due = self.due();
            self.op += 1;
            if !due {
                return self.inner.write(buf);
            }
            self.fired = true;
            match self.plan.fault {
                StreamFault::Reset => Err(io::ErrorKind::ConnectionReset.into()),
                StreamFault::Eof => Err(io::ErrorKind::BrokenPipe.into()),
                StreamFault::TimedOut => Err(io::ErrorKind::TimedOut.into()),
                StreamFault::BitFlip => self.inner.write(buf),
                StreamFault::Short => {
                    if buf.is_empty() {
                        return self.inner.write(buf);
                    }
                    let take = 1 + splitmix64(&mut self.rng) as usize % buf.len();
                    self.inner.write(&buf[..take])
                }
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    /// A few framed messages as raw bytes.
    fn framed(n: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = FrameWriter::new(&mut buf, counters());
        for i in 0..n {
            w.write_message(&Message::Fetch { oid: ObjectId(i) })
                .unwrap();
        }
        buf
    }

    fn reader_over(bytes: &[u8], plan: StreamFaultPlan) -> FrameReader<FaultStream<&[u8]>> {
        FrameReader::new(FaultStream::new(bytes, plan), counters())
    }

    #[test]
    fn reset_surfaces_as_io_error_not_panic() {
        let bytes = framed(3);
        let mut r = reader_over(
            &bytes,
            StreamFaultPlan {
                fault: StreamFault::Reset,
                at_op: 2,
                seed: 1,
            },
        );
        let mut io_errors = 0;
        for _ in 0..4 {
            match r.read_message() {
                Ok(Some(_)) | Ok(None) => {}
                Err(WireError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
                    io_errors += 1;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(io_errors, 1, "the scheduled reset never fired");
    }

    #[test]
    fn timeout_fault_models_a_stalled_peer() {
        let bytes = framed(2);
        let mut r = reader_over(
            &bytes,
            StreamFaultPlan {
                fault: StreamFault::TimedOut,
                at_op: 0,
                seed: 9,
            },
        );
        match r.read_message() {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    #[test]
    fn eof_mid_frame_is_truncated_eof_between_frames_is_clean() {
        // Fire EOF at the very first read: clean end-of-stream.
        let bytes = framed(1);
        let mut r = reader_over(
            &bytes,
            StreamFaultPlan {
                fault: StreamFault::Eof,
                at_op: 0,
                seed: 3,
            },
        );
        assert!(matches!(r.read_message(), Ok(None)));

        // Fire EOF inside the first frame's payload read: truncation.
        let mut r = reader_over(
            &bytes,
            StreamFaultPlan {
                fault: StreamFault::Eof,
                at_op: 1,
                seed: 3,
            },
        );
        assert!(matches!(r.read_message(), Err(WireError::Truncated)));
    }

    /// Every seed's bit flip is caught — by the CRC, the length cap, or
    /// the body decoder — and none of them panics or yields the original
    /// message as if nothing happened.
    #[test]
    fn every_seeded_bit_flip_is_caught() {
        let bytes = framed(1);
        for seed in 0..64u64 {
            for at_op in 0..2u64 {
                let mut r = reader_over(
                    &bytes,
                    StreamFaultPlan {
                        fault: StreamFault::BitFlip,
                        at_op,
                        seed,
                    },
                );
                match r.read_message() {
                    Ok(Some(Message::Fetch { oid })) => {
                        panic!("seed {seed} op {at_op}: flipped frame decoded as FETCH {oid}")
                    }
                    Ok(Some(_)) => panic!("seed {seed}: flipped frame decoded cleanly"),
                    Ok(None) | Err(_) => {} // caught (or flip landed past the stream)
                }
            }
        }
    }

    /// Short reads must be invisible to the framing layer: `read_exact`
    /// loops until the buffer fills, so every message still arrives
    /// intact, for every seed.
    #[test]
    fn short_reads_never_corrupt_the_stream() {
        let bytes = framed(5);
        for seed in 0..32u64 {
            let mut r = reader_over(
                &bytes,
                StreamFaultPlan {
                    fault: StreamFault::Short,
                    at_op: 0,
                    seed,
                },
            );
            let mut got = 0u64;
            while let Some(msg) = r.read_message().unwrap() {
                assert_eq!(msg, Message::Fetch { oid: ObjectId(got) });
                got += 1;
            }
            assert_eq!(got, 5, "seed {seed} lost messages");
        }
    }

    /// Short writes likewise: `write_all` on the other side of the wrapper
    /// must still deliver byte-identical frames.
    #[test]
    fn short_writes_never_corrupt_the_stream() {
        for seed in 0..32u64 {
            let mut fs = FaultStream::new(
                Vec::new(),
                StreamFaultPlan {
                    fault: StreamFault::Short,
                    at_op: 0,
                    seed,
                },
            );
            {
                let mut w = FrameWriter::new(&mut fs, counters());
                for i in 0..4u64 {
                    w.write_message(&Message::Fetch { oid: ObjectId(i) })
                        .unwrap();
                }
            }
            let written = fs.into_inner();
            assert_eq!(written, framed(4), "seed {seed} corrupted the bytes");
        }
    }

    #[test]
    fn same_seed_same_outcome() {
        let bytes = framed(3);
        let plan = StreamFaultPlan {
            fault: StreamFault::BitFlip,
            at_op: 1,
            seed: 2009,
        };
        let outcome = |plan| {
            let mut r = reader_over(&bytes, plan);
            let mut log = Vec::new();
            loop {
                match r.read_message() {
                    Ok(Some(m)) => log.push(format!("{m:?}")),
                    Ok(None) => break log.push("eof".into()),
                    Err(e) => break log.push(format!("err:{e}")),
                }
            }
            log
        };
        assert_eq!(outcome(plan), outcome(plan));
    }
}
