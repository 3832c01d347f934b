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

use tep_core::metrics::TransferCounters;
use tep_core::slice::QuerySpec;
use tep_crypto::digest::HashAlgorithm;
use tep_model::encode::{decode_value, encode_value, DecodeError, Reader};
use tep_model::{ObjectId, Value};
use tep_storage::crc::frame_crc;
use tep_storage::StoredRecord;

/// Magic bytes opening every HELLO body (protocol family + format version).
pub const WIRE_MAGIC: [u8; 8] = *b"TEPNET\x00\x01";

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
pub const DATA_CHUNK_BYTES: usize = 32 * 1024;

const TYPE_HELLO: u8 = 0x01;
const TYPE_OFFER: u8 = 0x02;
const TYPE_FETCH: u8 = 0x03;
const TYPE_PROV: u8 = 0x04;
const TYPE_DATA: u8 = 0x05;
const TYPE_DONE: u8 = 0x06;
const TYPE_ERROR: u8 = 0x07;
const TYPE_STATS_REQ: u8 = 0x08;
const TYPE_STATS: u8 = 0x09;
const TYPE_RESUME: u8 = 0x0A;
const TYPE_RESUME_OK: u8 = 0x0B;
const TYPE_QUERY: u8 = 0x0C;
const TYPE_QRESULT: u8 = 0x0D;
const TYPE_AE_REQ: u8 = 0x0E;
const TYPE_AE_RESP: u8 = 0x0F;
const TYPE_DENIAL: u8 = 0x10;
const TYPE_RANGE_REQ: u8 = 0x11;
const TYPE_RANGE_RESP: u8 = 0x12;

/// `AeReq.level` value that asks for the tree summary (root exchange)
/// instead of a specific node — a replica cannot know the primary's tree
/// depth before the first exchange.
pub const AE_SUMMARY_LEVEL: u32 = u32::MAX;

/// Why a peer refused a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// HELLO version or hash algorithm did not match.
    VersionMismatch,
    /// The requested object is not offered here.
    UnknownObject,
    /// The server's accept queue is full; try again later.
    Busy,
    /// The peer sent a message the protocol state does not allow.
    BadRequest,
    /// A RESUME offset/digest does not match the server's history — the
    /// claimed prefix is not byte-identical to what the server would send.
    ResumeMismatch,
    /// A request exceeded the server's per-request deadline and the
    /// connection was closed; reconnect (and resume) to continue.
    Deadline,
    /// The tenant named in HELLO is unknown to (or disabled at) this
    /// server. **Non-retryable**, unlike `Busy`: no amount of backoff
    /// makes an unprovisioned tenant exist, so clients surface it
    /// immediately instead of burning retry budget.
    UnknownTenant,
}

impl ErrorCode {
    fn wire_id(self) -> u8 {
        match self {
            ErrorCode::VersionMismatch => 1,
            ErrorCode::UnknownObject => 2,
            ErrorCode::Busy => 3,
            ErrorCode::BadRequest => 4,
            ErrorCode::ResumeMismatch => 5,
            ErrorCode::Deadline => 6,
            ErrorCode::UnknownTenant => 7,
        }
    }

    fn from_wire_id(id: u8) -> Option<Self> {
        match id {
            1 => Some(ErrorCode::VersionMismatch),
            2 => Some(ErrorCode::UnknownObject),
            3 => Some(ErrorCode::Busy),
            4 => Some(ErrorCode::BadRequest),
            5 => Some(ErrorCode::ResumeMismatch),
            6 => Some(ErrorCode::Deadline),
            7 => Some(ErrorCode::UnknownTenant),
            _ => None,
        }
    }
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

/// A protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Connection opener, sent by both sides: magic, version, algorithm,
    /// tenant scope.
    Hello {
        /// Protocol version ([`WIRE_VERSION`]).
        version: u16,
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
    Offer {
        /// One entry per offered object, in `ObjectId` order.
        entries: Vec<OfferEntry>,
    },
    /// Client requests one object's provenance + data.
    Fetch {
        /// The requested object.
        oid: ObjectId,
    },
    /// One provenance record, in `(output_oid, seq_id)` order.
    Prov {
        /// The record in storage wire format.
        record: StoredRecord,
    },
    /// A chunk of the object's data subtree in depth-tagged DFS preorder.
    Data {
        /// The entries of this chunk.
        entries: Vec<DataEntry>,
    },
    /// End of a transfer, with totals for cross-checking.
    Done {
        /// PROV frames sent.
        records: u64,
        /// Data entries sent.
        nodes: u64,
    },
    /// Refusal. Fatal codes close the connection.
    Error {
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
    StatsRequest,
    /// The server's metrics in text exposition format
    /// ([`tep_obs::Registry::render_text`]).
    Stats {
        /// The rendered exposition (UTF-8).
        text: String,
    },
    /// Client reopens a transfer that was cut after `records` records,
    /// proving where it stopped with its verifier's rolling stream digest.
    Resume {
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
    ResumeOk {
        /// The resume offset being honored.
        records: u64,
        /// The server's recomputed stream digest over its own first
        /// `records` records.
        digest: Vec<u8>,
    },
    /// Client asks the server to run a provenance query.
    Query {
        /// What to compute, over which object, under which bounds.
        spec: QuerySpec,
    },
    /// The server's answer: an encoded `tep_core::slice::SliceProof` the
    /// client decodes and re-verifies with `Verifier::verify_slice`. The
    /// bytes travel opaquely — the wire layer never vouches for them.
    QResult {
        /// The proof in its canonical slice encoding.
        proof: Vec<u8>,
    },
    /// Replica asks for one node of the primary's per-shard Merkle tree
    /// over the object-ID space ([`tep_core::merkle::ShardTree`]) during
    /// an anti-entropy pass. `level == `[`AE_SUMMARY_LEVEL`] requests the
    /// root exchange (tree summary); otherwise `(level, index)` addresses
    /// a specific node, leaves at level 0.
    AeReq {
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
    AeResp {
        /// Leaves (objects) in the responder's shard.
        leaf_count: u64,
        /// Levels above the leaves.
        depth: u32,
        /// The addressed node's hash (the root hash for a summary).
        hash: Vec<u8>,
        /// The node's child hashes, in order; empty at leaf level and in
        /// summaries.
        children: Vec<Vec<u8>>,
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
    Denial {
        /// The proof in its canonical [`SignedDenial`] encoding
        /// ([`tep_core::denial::SignedDenial::to_bytes`]), opaque to the
        /// wire layer.
        proof: Vec<u8>,
    },
    /// Client asks which offered objects fall in an inclusive object-ID
    /// range — with proof that the answer is complete.
    RangeReq {
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
    RangeResp {
        /// The members served, in ascending order.
        oids: Vec<ObjectId>,
        /// The completeness proof in its canonical [`SignedRange`]
        /// encoding ([`tep_core::denial::SignedRange::to_bytes`]), opaque
        /// to the wire layer.
        proof: Vec<u8>,
    },
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
        WireError::Decode(e)
    }
}

/// Encodes `msg` into a payload (type byte + body), without framing.
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_message_into(msg, &mut out);
    out
}

/// Appends `msg`'s payload (type byte + body) to `out` without clearing
/// it — the allocation-free twin of [`encode_message`]. Callers that frame
/// messages reserve header space in `out` first and patch it afterwards
/// (see [`FrameWriter::write_message`]), so a warm buffer encodes and
/// frames with zero allocations.
pub fn encode_message_into(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::Hello {
            version,
            alg,
            tenant,
        } => {
            out.push(TYPE_HELLO);
            out.extend_from_slice(&WIRE_MAGIC);
            out.extend_from_slice(&version.to_be_bytes());
            out.push(alg.wire_id());
            out.extend_from_slice(&tenant.to_be_bytes());
        }
        Message::Offer { entries } => {
            out.push(TYPE_OFFER);
            out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
            for e in entries {
                out.extend_from_slice(&e.oid.raw().to_be_bytes());
                out.extend_from_slice(&e.records.to_be_bytes());
                out.extend_from_slice(&e.nodes.to_be_bytes());
            }
        }
        Message::Fetch { oid } => {
            out.push(TYPE_FETCH);
            out.extend_from_slice(&oid.raw().to_be_bytes());
        }
        Message::Prov { record } => {
            out.push(TYPE_PROV);
            record.encode_into(out);
        }
        Message::Data { entries } => {
            out.push(TYPE_DATA);
            out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
            for e in entries {
                out.extend_from_slice(&e.depth.to_be_bytes());
                out.extend_from_slice(&e.id.raw().to_be_bytes());
                encode_value(&e.value, out);
            }
        }
        Message::Done { records, nodes } => {
            out.push(TYPE_DONE);
            out.extend_from_slice(&records.to_be_bytes());
            out.extend_from_slice(&nodes.to_be_bytes());
        }
        Message::Error {
            code,
            retry_after_ms,
            detail,
        } => {
            out.push(TYPE_ERROR);
            out.push(code.wire_id());
            out.extend_from_slice(&retry_after_ms.to_be_bytes());
            out.extend_from_slice(&(detail.len() as u64).to_be_bytes());
            out.extend_from_slice(detail.as_bytes());
        }
        Message::StatsRequest => {
            out.push(TYPE_STATS_REQ);
        }
        Message::Stats { text } => {
            out.push(TYPE_STATS);
            out.extend_from_slice(&(text.len() as u64).to_be_bytes());
            out.extend_from_slice(text.as_bytes());
        }
        Message::Resume {
            oid,
            records,
            digest,
        } => {
            out.push(TYPE_RESUME);
            out.extend_from_slice(&oid.raw().to_be_bytes());
            out.extend_from_slice(&records.to_be_bytes());
            out.extend_from_slice(&(digest.len() as u64).to_be_bytes());
            out.extend_from_slice(digest);
        }
        Message::ResumeOk { records, digest } => {
            out.push(TYPE_RESUME_OK);
            out.extend_from_slice(&records.to_be_bytes());
            out.extend_from_slice(&(digest.len() as u64).to_be_bytes());
            out.extend_from_slice(digest);
        }
        Message::Query { spec } => {
            out.push(TYPE_QUERY);
            spec.encode_into(out);
        }
        Message::QResult { proof } => {
            out.push(TYPE_QRESULT);
            out.extend_from_slice(proof);
        }
        Message::AeReq { level, index } => {
            out.push(TYPE_AE_REQ);
            out.extend_from_slice(&level.to_be_bytes());
            out.extend_from_slice(&index.to_be_bytes());
        }
        Message::AeResp {
            leaf_count,
            depth,
            hash,
            children,
            oid,
            signed_root,
        } => {
            out.push(TYPE_AE_RESP);
            out.extend_from_slice(&leaf_count.to_be_bytes());
            out.extend_from_slice(&depth.to_be_bytes());
            out.extend_from_slice(&(hash.len() as u64).to_be_bytes());
            out.extend_from_slice(hash);
            out.push(children.len() as u8);
            for c in children {
                out.extend_from_slice(&(c.len() as u64).to_be_bytes());
                out.extend_from_slice(c);
            }
            match oid {
                Some(oid) => {
                    out.push(1);
                    out.extend_from_slice(&oid.raw().to_be_bytes());
                }
                None => out.push(0),
            }
            match signed_root {
                Some(root) => {
                    out.push(1);
                    out.extend_from_slice(&(root.len() as u64).to_be_bytes());
                    out.extend_from_slice(root);
                }
                None => out.push(0),
            }
        }
        Message::Denial { proof } => {
            out.push(TYPE_DENIAL);
            out.extend_from_slice(proof);
        }
        Message::RangeReq { lo, hi } => {
            out.push(TYPE_RANGE_REQ);
            out.extend_from_slice(&lo.raw().to_be_bytes());
            out.extend_from_slice(&hi.raw().to_be_bytes());
        }
        Message::RangeResp { oids, proof } => {
            out.push(TYPE_RANGE_RESP);
            out.extend_from_slice(&(oids.len() as u32).to_be_bytes());
            for oid in oids {
                out.extend_from_slice(&oid.raw().to_be_bytes());
            }
            out.extend_from_slice(&(proof.len() as u64).to_be_bytes());
            out.extend_from_slice(proof);
        }
    }
}

/// Decodes one message from a complete frame payload.
pub fn decode_message(payload: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(payload);
    let msg = match r.u8()? {
        TYPE_HELLO => {
            let magic: [u8; 8] = r.array()?;
            if magic != WIRE_MAGIC {
                return Err(WireError::BadMagic);
            }
            let version = u16::from_be_bytes(r.array()?);
            let alg_id = r.u8()?;
            let alg = HashAlgorithm::from_wire_id(alg_id)
                .ok_or(WireError::Decode(DecodeError::BadTag(alg_id)))?;
            let tenant = r.u64()?;
            Message::Hello {
                version,
                alg,
                tenant,
            }
        }
        TYPE_OFFER => {
            let count = r.u32()? as usize;
            // Never trust the count for allocation; each entry is 24 bytes.
            let mut entries = Vec::with_capacity(count.min(r.remaining() / 24 + 1));
            for _ in 0..count {
                entries.push(OfferEntry {
                    oid: ObjectId(r.u64()?),
                    records: r.u64()?,
                    nodes: r.u64()?,
                });
            }
            Message::Offer { entries }
        }
        TYPE_FETCH => Message::Fetch {
            oid: ObjectId(r.u64()?),
        },
        TYPE_PROV => {
            let record = StoredRecord::from_bytes(&payload[1..])?;
            return Ok(Message::Prov { record });
        }
        TYPE_DATA => {
            let count = r.u32()? as usize;
            // Each entry is at least 11 bytes (depth + id + 1-byte value).
            let mut entries = Vec::with_capacity(count.min(r.remaining() / 11 + 1));
            for _ in 0..count {
                let depth = u16::from_be_bytes(r.array()?);
                let id = ObjectId(r.u64()?);
                let value = decode_value(&mut r)?;
                entries.push(DataEntry { depth, id, value });
            }
            Message::Data { entries }
        }
        TYPE_DONE => Message::Done {
            records: r.u64()?,
            nodes: r.u64()?,
        },
        TYPE_ERROR => {
            let code_id = r.u8()?;
            let code = ErrorCode::from_wire_id(code_id)
                .ok_or(WireError::Decode(DecodeError::BadTag(code_id)))?;
            let retry_after_ms = r.u64()?;
            let detail = String::from_utf8(r.len_prefixed()?.to_vec())
                .map_err(|_| WireError::Decode(DecodeError::BadUtf8))?;
            Message::Error {
                code,
                retry_after_ms,
                detail,
            }
        }
        TYPE_STATS_REQ => Message::StatsRequest,
        TYPE_STATS => {
            let text = String::from_utf8(r.len_prefixed()?.to_vec())
                .map_err(|_| WireError::Decode(DecodeError::BadUtf8))?;
            Message::Stats { text }
        }
        TYPE_RESUME => Message::Resume {
            oid: ObjectId(r.u64()?),
            records: r.u64()?,
            digest: r.len_prefixed()?.to_vec(),
        },
        TYPE_RESUME_OK => Message::ResumeOk {
            records: r.u64()?,
            digest: r.len_prefixed()?.to_vec(),
        },
        TYPE_QUERY => Message::Query {
            spec: QuerySpec::decode(&mut r)?,
        },
        TYPE_QRESULT => {
            // The proof body is the rest of the payload, verbatim; its own
            // magic/length discipline lives in `SliceProof::from_bytes`.
            return Ok(Message::QResult {
                proof: payload[1..].to_vec(),
            });
        }
        TYPE_AE_REQ => Message::AeReq {
            level: r.u32()?,
            index: r.u64()?,
        },
        TYPE_AE_RESP => {
            let leaf_count = r.u64()?;
            let depth = r.u32()?;
            let hash = r.len_prefixed()?.to_vec();
            let count = r.u8()? as usize;
            // Never trust the count for allocation; each child costs at
            // least its 8-byte length prefix.
            let mut children = Vec::with_capacity(count.min(r.remaining() / 8 + 1));
            for _ in 0..count {
                children.push(r.len_prefixed()?.to_vec());
            }
            let oid = match r.u8()? {
                0 => None,
                1 => Some(ObjectId(r.u64()?)),
                t => return Err(WireError::Decode(DecodeError::BadTag(t))),
            };
            let signed_root = match r.u8()? {
                0 => None,
                1 => Some(r.len_prefixed()?.to_vec()),
                t => return Err(WireError::Decode(DecodeError::BadTag(t))),
            };
            Message::AeResp {
                leaf_count,
                depth,
                hash,
                children,
                oid,
                signed_root,
            }
        }
        TYPE_DENIAL => {
            // The proof body is the rest of the payload, verbatim; its own
            // structure lives in `SignedDenial::from_bytes`.
            return Ok(Message::Denial {
                proof: payload[1..].to_vec(),
            });
        }
        TYPE_RANGE_REQ => Message::RangeReq {
            lo: ObjectId(r.u64()?),
            hi: ObjectId(r.u64()?),
        },
        TYPE_RANGE_RESP => {
            let count = r.u32()? as usize;
            // Never trust the count for allocation; each oid is 8 bytes.
            let mut oids = Vec::with_capacity(count.min(r.remaining() / 8 + 1));
            for _ in 0..count {
                oids.push(ObjectId(r.u64()?));
            }
            let proof = r.len_prefixed()?.to_vec();
            Message::RangeResp { oids, proof }
        }
        t => return Err(WireError::BadType(t)),
    };
    r.expect_end()?;
    Ok(msg)
}

/// Reads frames off a byte stream, verifying checksums and enforcing the
/// [`MAX_FRAME`] allocation cap, and counts them into [`TransferCounters`].
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

    /// Current capacity of the reusable payload buffer (pinned by the
    /// no-alloc regression test: it must stop growing once warm).
    pub fn payload_capacity(&self) -> usize {
        self.payload.capacity()
    }

    /// Reads the next message. `Ok(None)` means the peer closed the stream
    /// cleanly *between* frames; EOF inside a frame is [`WireError::Truncated`].
    pub fn read_message(&mut self) -> Result<Option<Message>, WireError> {
        let mut header = [0u8; 8];
        match read_exact_or_eof(&mut self.inner, &mut header)? {
            ReadOutcome::Eof => return Ok(None),
            ReadOutcome::Full => {}
        }
        let len = u32::from_be_bytes(header[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_be_bytes(header[4..8].try_into().expect("4 bytes"));
        if len as usize > MAX_FRAME {
            return Err(WireError::Oversized { len });
        }
        // The length is capped, so the buffer's capacity is bounded; resize
        // reuses it across frames instead of allocating anew.
        self.payload.clear();
        self.payload.resize(len as usize, 0);
        self.inner.read_exact(&mut self.payload)?;
        if frame_crc(len, &self.payload) != crc {
            return Err(WireError::BadCrc);
        }
        self.frames += 1;
        self.counters.frame_received(8 + len as u64);
        decode_message(&self.payload).map(Some)
    }
}

enum ReadOutcome {
    Full,
    Eof,
}

/// Like `read_exact`, but a clean EOF before the *first* byte is reported
/// as [`ReadOutcome::Eof`] instead of an error.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, WireError> {
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

    /// Current capacity of the reusable frame buffer (pinned by the
    /// no-alloc regression test: it must stop growing once warm).
    pub fn scratch_capacity(&self) -> usize {
        self.scratch.capacity()
    }

    /// Frames and sends one message.
    pub fn write_message(&mut self, msg: &Message) -> Result<(), WireError> {
        frame_message_into(msg, &mut self.scratch);
        self.inner.write_all(&self.scratch)?;
        self.inner.flush()?;
        self.counters.frame_sent(self.scratch.len() as u64);
        Ok(())
    }
}

/// Replaces `frame` with the complete wire frame (header + payload) for
/// `msg`, reusing the buffer's capacity: the 8-byte header is reserved up
/// front, the payload encoded directly behind it, and the length/CRC
/// patched into the reservation — no intermediate payload `Vec`.
pub fn frame_message_into(msg: &Message, frame: &mut Vec<u8>) {
    frame.clear();
    frame.extend_from_slice(&[0u8; 8]);
    encode_message_into(msg, frame);
    let len = (frame.len() - 8) as u32;
    debug_assert!(len as usize <= MAX_FRAME, "oversized outbound frame");
    let crc = frame_crc(len, &frame[8..]);
    frame[0..4].copy_from_slice(&len.to_be_bytes());
    frame[4..8].copy_from_slice(&crc.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use tep_crypto::pki::ParticipantId;

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
        let warm_cap = w.scratch_capacity();
        assert!(warm_cap > 0);
        // Steady state: 100 more rounds of identical traffic, zero growth.
        for _ in 0..100 {
            for m in &msgs {
                w.write_message(m).unwrap();
            }
            assert_eq!(
                w.scratch_capacity(),
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
        let warm_cap = r.payload_capacity();
        assert!(warm_cap > 0);
        while let Some(_m) = r.read_message().unwrap() {
            assert_eq!(
                r.payload_capacity(),
                warm_cap,
                "decode payload buffer grew after warm-up"
            );
        }
    }

    /// The in-place framing helper produces byte-identical frames to the
    /// historical encode-then-copy path (len ‖ crc ‖ payload).
    #[test]
    fn frame_message_into_matches_reference_framing() {
        let mut frame = Vec::new();
        for msg in sample_messages() {
            frame_message_into(&msg, &mut frame);
            let payload = encode_message(&msg);
            let len = payload.len() as u32;
            let mut reference = Vec::new();
            reference.extend_from_slice(&len.to_be_bytes());
            reference.extend_from_slice(&frame_crc(len, &payload).to_be_bytes());
            reference.extend_from_slice(&payload);
            assert_eq!(frame, reference, "framing diverged for {msg:?}");
        }
    }

    #[test]
    fn data_count_cannot_force_allocation() {
        // Claims u32::MAX entries but carries none.
        let mut payload = vec![TYPE_DATA];
        payload.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_message(&payload),
            Err(WireError::Decode(DecodeError::UnexpectedEof))
        ));
    }
}
