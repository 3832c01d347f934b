//! The provenance database: stores checksummed provenance rows.
//!
//! This is the second database of the paper's experimental setup (§5.1):
//! for each operation the system records the row
//! `⟨SeqID(int), Participant(int), Oid(int), Checksum(binary(128))⟩`, plus —
//! in our implementation — an opaque payload carrying the full provenance
//! record (input/output hashes, input ids, …) that the verifier needs.
//!
//! Records are indexed by output object and kept in per-object `seqID`
//! order. The store runs in-memory, optionally backed by a durable
//! [`AppendLog`] with recovery on open.
//!
//! **Shared checksum tails.** The records of one amortized batch all end
//! their checksum with the same signature. [`ProvenanceDb::append_batch`]
//! writes and holds those bytes **once**: the batch's first log frame is an
//! ordinary self-contained row, each later frame is the row *without* the
//! tail plus a 7-byte trailer naming the tail it elides:
//!
//! ```text
//! frame         := row                      (self-contained, as ever)
//!                | row-sans-tail trailer    (signature-elided)
//! trailer       := kind(u8 = 1) tail_len(u16) crc32(tail)(u32)
//! ```
//!
//! A self-contained row has no trailing bytes, so the two cannot be
//! confused. On open an elided frame takes its tail from the nearest
//! preceding self-contained frame, checked against the trailer; if that
//! frame is gone (quarantined), the row is kept with its checksum cut
//! short, which the verifier reports against exactly that record. It is
//! still one frame per record, and every read API returns self-contained
//! [`StoredRecord`]s.

use crate::archive::CompactionStamp;
use crate::crc::crc32;
use crate::log::{AppendLog, GapKind, LogError, LogGap};
use crate::vfs::{real_vfs, Vfs};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use tep_model::encode::{DecodeError, Reader};
use tep_model::ObjectId;
use tep_model::ParticipantId;

/// A stored provenance row: the paper's four columns plus the opaque
/// full-record payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredRecord {
    /// Sequence id within the output object's chain.
    pub seq_id: u64,
    /// The acting participant.
    pub participant: ParticipantId,
    /// The output object the record describes.
    pub oid: ObjectId,
    /// The signed provenance checksum.
    pub checksum: Vec<u8>,
    /// Serialized full provenance record (opaque to the storage layer).
    pub payload: Vec<u8>,
}

impl StoredRecord {
    /// Size of the paper's four-column row for this record:
    /// `SeqID(4) + Participant(4) + Oid(4) + checksum` bytes.
    ///
    /// This is the quantity Figures 9 and 11 plot as "space overhead". It
    /// always counts the self-contained row — a member of an amortized
    /// batch counts its own copy of the batch signature, as a recipient
    /// receives it, although the store holds that signature once.
    pub fn paper_row_bytes(&self) -> u64 {
        4 + 4 + 4 + self.checksum.len() as u64
    }

    /// Canonical wire encoding of the row — used both for durable log
    /// frames and for `tep-net` PROV frames, so a record's bytes are
    /// identical at rest and in flight.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.checksum.len() + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the [`Self::to_bytes`] encoding to `out` without clearing
    /// it — lets hot paths (tep-net PROV framing) reuse one scratch buffer
    /// instead of allocating a fresh `Vec` per record.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        Row::of(self).encode_into(out);
    }

    /// Decodes a row from its [`Self::to_bytes`] encoding.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        match decode_frame(buf)? {
            (row, None) => Ok(row.to_record(&[])),
            (_, Some(_)) => Err(DecodeError::TrailingBytes(ElidedTail::TRAILER_LEN)),
        }
    }
}

/// A borrowed view of a row: what frames encode and decode without copying.
#[derive(Clone, Copy)]
struct Row<'a> {
    seq_id: u64,
    participant: ParticipantId,
    oid: ObjectId,
    checksum: &'a [u8],
    payload: &'a [u8],
}

impl<'a> Row<'a> {
    fn of(record: &'a StoredRecord) -> Self {
        Row {
            seq_id: record.seq_id,
            participant: record.participant,
            oid: record.oid,
            checksum: &record.checksum,
            payload: &record.payload,
        }
    }

    /// The owned row, its checksum completed by `tail`.
    fn to_record(self, tail: &[u8]) -> StoredRecord {
        StoredRecord {
            seq_id: self.seq_id,
            participant: self.participant,
            oid: self.oid,
            checksum: [self.checksum, tail].concat(),
            payload: self.payload.to_vec(),
        }
    }

    fn encode_into(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq_id.to_be_bytes());
        out.extend_from_slice(&self.participant.0.to_be_bytes());
        out.extend_from_slice(&self.oid.raw().to_be_bytes());
        out.extend_from_slice(&(self.checksum.len() as u64).to_be_bytes());
        out.extend_from_slice(self.checksum);
        out.extend_from_slice(&(self.payload.len() as u64).to_be_bytes());
        out.extend_from_slice(self.payload);
    }
}

/// Decodes one log frame: a self-contained row, or a row whose checksum
/// lacks the tail the returned trailer describes.
fn decode_frame(buf: &[u8]) -> Result<(Row<'_>, Option<ElidedTail>), DecodeError> {
    let mut r = Reader::new(buf);
    let row = Row {
        seq_id: r.u64()?,
        participant: ParticipantId(r.u64()?),
        oid: ObjectId(r.u64()?),
        checksum: r.len_prefixed()?,
        payload: r.len_prefixed()?,
    };
    if r.remaining() == 0 {
        return Ok((row, None));
    }
    match r.u8()? {
        ElidedTail::KIND => {}
        kind => return Err(DecodeError::BadTag(kind)),
    }
    let len = u16::from_be_bytes(r.array()?);
    let crc = r.u32()?;
    r.expect_end()?;
    Ok((row, Some(ElidedTail { len, crc })))
}

/// Trailer of a signature-elided frame: which bytes its row's checksum is
/// missing (see the module docs).
#[derive(Clone, Copy, PartialEq)]
struct ElidedTail {
    len: u16,
    crc: u32,
}

impl ElidedTail {
    const KIND: u8 = 1;
    const TRAILER_LEN: usize = 7;

    fn of(tail: &[u8]) -> Option<Self> {
        let len = u16::try_from(tail.len()).ok()?;
        Some(ElidedTail {
            len,
            crc: crc32(tail),
        })
    }

    /// The elided bytes, if `carrier` (the checksum of the preceding
    /// self-contained row) ends with them.
    fn tail_of<'a>(&self, carrier: &'a [u8]) -> Option<&'a [u8]> {
        let at = carrier.len().checked_sub(self.len.into())?;
        Some(&carrier[at..]).filter(|tail| crc32(tail) == self.crc)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(Self::KIND);
        out.extend_from_slice(&self.len.to_be_bytes());
        out.extend_from_slice(&self.crc.to_be_bytes());
    }
}

/// Rewrites signature-elided record frames as self-contained rows, for
/// consumers that move frames out of their log context (compaction). Frames
/// that are already self-contained, are not records, or have lost their
/// carrier pass through unchanged.
pub(crate) fn self_contained_frames(frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut carrier: &[u8] = &[];
    frames
        .iter()
        .map(|frame| match decode_frame(frame) {
            Ok((row, None)) => {
                carrier = row.checksum;
                frame.clone()
            }
            Ok((row, Some(elided))) => match elided.tail_of(carrier) {
                Some(tail) => row.to_record(tail).to_bytes(),
                None => frame.clone(),
            },
            Err(_) => frame.clone(),
        })
        .collect()
}

/// Errors from the provenance store.
#[derive(Debug)]
pub enum StoreError {
    /// Durable-log failure.
    Log(LogError),
    /// `retain` was called on a durable store; compaction must go through
    /// `compact_into` instead.
    DurableRetain,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Log(e) => write!(f, "provenance log error: {e}"),
            StoreError::DurableRetain => {
                write!(
                    f,
                    "cannot retain in place on a durable store; use compact_into"
                )
            }
        }
    }
}

/// What recovery found when a durable store was opened.
///
/// A clean open reports all-zero. Anything non-zero means the store came
/// back in **degraded-read mode**: every surviving record loaded, and the
/// damage is described here so the verification layer can surface it as
/// chain-continuity tamper evidence instead of the open failing outright.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Bytes dropped from a torn tail (an interrupted, unacknowledged
    /// append — expected after a crash, not evidence of tampering).
    pub truncated_bytes: u64,
    /// Interior corrupt ranges excised into the `.quarantine` sidecar.
    pub gaps: Vec<LogGap>,
    /// Total corrupt bytes quarantined during this open.
    pub quarantined_bytes: u64,
    /// CRC-valid frames that failed to decode as records (skipped, but
    /// counted: a well-formed frame with garbage inside is suspicious).
    pub decode_failures: u64,
    /// The compaction stamp found leading the log, when this store has
    /// been compacted (see [`crate::archive`]). Excised ranges appear in
    /// [`RecoveryReport::gaps`] tagged [`GapKind::Compacted`] — they are a
    /// deliberate, checkpoint-attested truncation, never tamper evidence.
    pub compaction: Option<CompactionStamp>,
}

impl RecoveryReport {
    /// `true` when recovery found interior damage or undecodable records —
    /// anything beyond the benign torn tail. Compaction-excised gaps are
    /// deliberate and do **not** degrade the store.
    pub fn is_degraded(&self) -> bool {
        self.corruption_gaps() > 0 || self.decode_failures > 0
    }

    /// Number of gaps caused by actual corruption (quarantine), excluding
    /// compaction-excised ranges.
    pub fn corruption_gaps(&self) -> usize {
        self.gaps
            .iter()
            .filter(|g| g.kind == GapKind::Corruption)
            .count()
    }
}

impl std::error::Error for StoreError {}

impl From<LogError> for StoreError {
    fn from(e: LogError) -> Self {
        StoreError::Log(e)
    }
}

/// One stored row, packed into a slot no wider than a [`StoredRecord`].
/// The row's checksum is `body[..own]` followed by `shared[from..]` (when
/// there is a `shared`); its payload is `body[own..]`. An ordinary row is
/// all `body`. The first row of a batch keeps its checksum in `shared`
/// instead, and the later rows keep what they do not share in `body` and
/// point into the first's `shared` — which is how a batch's signature is
/// held once.
struct Slot {
    seq_id: u64,
    participant: ParticipantId,
    oid: ObjectId,
    body: Box<[u8]>,
    own: usize,
    shared: Option<Arc<[u8]>>,
    from: usize,
}

impl Slot {
    /// A row whose checksum is `row.checksum` followed by `shared[from..]`.
    fn new(row: Row<'_>, shared: Option<Arc<[u8]>>, from: usize) -> Self {
        Slot {
            seq_id: row.seq_id,
            participant: row.participant,
            oid: row.oid,
            body: [row.checksum, row.payload].concat().into(),
            own: row.checksum.len(),
            shared,
            from,
        }
    }

    fn tail(&self) -> &[u8] {
        self.shared.as_ref().map_or(&[], |s| &s[self.from..])
    }

    /// The self-contained row.
    fn materialize(&self) -> StoredRecord {
        let (own, payload) = self.body.split_at(self.own);
        StoredRecord {
            seq_id: self.seq_id,
            participant: self.participant,
            oid: self.oid,
            checksum: match self.tail() {
                // Ordinary rows are the common read: the plain copy `clone`
                // made, without `concat`'s sizing pass.
                [] => own.to_vec(),
                tail => [own, tail].concat(),
            },
            payload: payload.to_vec(),
        }
    }

    /// Of a self-contained row (one that points into no other): where the
    /// tail `elided` names starts in its checksum, and that checksum as
    /// bytes later rows can point into — moved out of `body` the first
    /// time a later row asks.
    fn share_tail(&mut self, elided: &ElidedTail) -> Option<(Arc<[u8]>, usize)> {
        let checksum = match &self.shared {
            Some(shared) => shared,
            None => &self.body[..self.own],
        };
        let from = checksum.len() - elided.tail_of(checksum)?.len();
        if self.shared.is_none() {
            let (checksum, payload) = self.body.split_at(self.own);
            self.shared = Some(checksum.into());
            self.body = payload.into();
            self.own = 0;
        }
        Some((Arc::clone(self.shared.as_ref()?), from))
    }
}

struct Inner {
    records: Vec<Slot>,
    by_object: HashMap<ObjectId, Vec<u32>>,
    log: Option<AppendLog>,
    paper_row_bytes: u64,
    recovery: RecoveryReport,
}

/// The provenance record store.
///
/// Thread-safe: appends take a write lock, queries a read lock — mirroring
/// the paper's observation (§3.2) that per-object chains let participants
/// write provenance for different objects without a global serialization
/// point (the lock here protects only the in-memory index, held for the
/// duration of one append, not an entire chain construction).
///
/// ```
/// use tep_storage::{ProvenanceDb, StoredRecord};
/// use tep_model::{ObjectId, ParticipantId};
///
/// let db = ProvenanceDb::in_memory();
/// db.append(StoredRecord {
///     seq_id: 0,
///     participant: ParticipantId(1),
///     oid: ObjectId(7),
///     checksum: vec![0xAA; 128],
///     payload: vec![],
/// }).unwrap();
/// assert_eq!(db.latest_for(ObjectId(7)).unwrap().seq_id, 0);
/// assert_eq!(db.paper_row_bytes(), 140); // the paper's row layout
/// ```
pub struct ProvenanceDb {
    inner: RwLock<Inner>,
}

impl Default for ProvenanceDb {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl ProvenanceDb {
    /// Creates a volatile in-memory store.
    pub fn in_memory() -> Self {
        ProvenanceDb {
            inner: RwLock::new(Inner {
                records: Vec::new(),
                by_object: HashMap::new(),
                log: None,
                paper_row_bytes: 0,
                recovery: RecoveryReport::default(),
            }),
        }
    }

    /// Opens (or creates) a durable store at `path`, replaying any existing
    /// records. Storage damage never fails the open: a torn tail is
    /// truncated, interior corruption is quarantined by the log layer, and
    /// CRC-valid frames that fail to decode are skipped — everything found
    /// is tallied in [`ProvenanceDb::recovery`] for the verifier to report.
    pub fn durable(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::durable_with(real_vfs(), path)
    }

    /// [`ProvenanceDb::durable`] against an explicit [`Vfs`].
    pub fn durable_with(vfs: Arc<dyn Vfs>, path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let recovered = AppendLog::open_or_create_with(vfs, path)?;
        let mut inner = Inner {
            records: Vec::with_capacity(recovered.payloads.len()),
            by_object: HashMap::new(),
            log: Some(recovered.log),
            paper_row_bytes: 0,
            recovery: RecoveryReport {
                truncated_bytes: recovered.truncated_bytes,
                gaps: recovered.gaps,
                quarantined_bytes: recovered.quarantined_bytes,
                decode_failures: 0,
                compaction: None,
            },
        };
        // A compacted log leads with its stamp frame: surface the excision
        // as a `Compacted` gap (attested through the checkpoint, not
        // quarantine evidence) and decode the rest as records.
        let mut frames = recovered.payloads.as_slice();
        if let Some(stamp) = frames
            .first()
            .and_then(|f| CompactionStamp::from_bytes(f).ok())
        {
            inner.recovery.gaps.insert(
                0,
                LogGap {
                    kind: GapKind::Compacted,
                    preceding_frames: 0,
                    offset: crate::log::HEADER_LEN,
                    bytes: stamp.excised_bytes,
                },
            );
            inner.recovery.compaction = Some(stamp);
            frames = &frames[1..];
        }
        // An elided frame points into the checksum of the nearest preceding
        // self-contained row, once that is checked against its trailer (one
        // CRC per batch: later members naming the same tail reuse it).
        let mut carrier: Option<usize> = None;
        let mut batch: Option<(ElidedTail, Arc<[u8]>, usize)> = None;
        for frame in frames {
            match decode_frame(frame) {
                Ok((row, None)) => {
                    carrier = Some(inner.records.len());
                    batch = None;
                    index_slot(&mut inner, Slot::new(row, None, 0));
                }
                Ok((row, Some(elided))) => {
                    if batch.as_ref().map(|b| b.0) != Some(elided) {
                        batch = carrier
                            .and_then(|c| inner.records[c].share_tail(&elided))
                            .map(|(shared, from)| (elided, shared, from));
                    }
                    // A row whose carrier is gone keeps its checksum cut
                    // short: unverifiable, and reported as exactly that.
                    let slot = match &batch {
                        Some((_, shared, from)) => Slot::new(row, Some(Arc::clone(shared)), *from),
                        None => Slot::new(row, None, 0),
                    };
                    index_slot(&mut inner, slot);
                }
                Err(_) => inner.recovery.decode_failures += 1,
            }
        }
        Ok(ProvenanceDb {
            inner: RwLock::new(inner),
        })
    }

    /// Shared access, recovering from poison: a thread that panicked while
    /// holding the lock must not wedge every later query.
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access, recovering from poison like [`Self::read`].
    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// What recovery found when this store was opened (all-zero for
    /// in-memory stores and clean opens).
    pub fn recovery(&self) -> RecoveryReport {
        self.read().recovery.clone()
    }

    /// Appends a record (durably if the store is durable).
    pub fn append(&self, record: StoredRecord) -> Result<(), StoreError> {
        let mut inner = self.write();
        if let Some(log) = inner.log.as_mut() {
            log.append(&record.to_bytes())?;
        }
        index_slot(&mut inner, Slot::new(Row::of(&record), None, 0));
        Ok(())
    }

    /// Appends the records of one batch, whose checksums all end with the
    /// same `shared_tail` bytes (the batch signature): one log frame per
    /// record as ever, but the tail is written once — with the first — and
    /// held once in memory. Records that do not share such a tail are
    /// appended one by one as [`Self::append`] would.
    pub fn append_batch(
        &self,
        records: Vec<StoredRecord>,
        shared_tail: usize,
    ) -> Result<(), StoreError> {
        let batch = records.first().and_then(|first| {
            let from = first.checksum.len().checked_sub(shared_tail)?;
            let tail = &first.checksum[from..];
            let elided = ElidedTail::of(tail).filter(|_| !tail.is_empty())?;
            let all_share = records.iter().all(|r| r.checksum.ends_with(tail));
            all_share.then(|| (Arc::<[u8]>::from(&first.checksum[..]), from, elided))
        });
        let Some((shared, from, elided)) = batch else {
            return records.into_iter().try_for_each(|r| self.append(r));
        };
        let mut inner = self.write();
        let mut frame = Vec::new();
        for (i, record) in records.iter().enumerate() {
            // The first member is an ordinary row whose checksum the others
            // point into; they keep only what precedes the shared tail.
            let (own, at) = match i {
                0 => (0, 0),
                _ => (record.checksum.len() - shared_tail, from),
            };
            let unshared = Row {
                checksum: &record.checksum[..own],
                ..Row::of(record)
            };
            if let Some(log) = inner.log.as_mut() {
                frame.clear();
                if i == 0 {
                    record.encode_into(&mut frame);
                } else {
                    unshared.encode_into(&mut frame);
                    elided.encode_into(&mut frame);
                }
                log.append(&frame)?;
            }
            index_slot(
                &mut inner,
                Slot::new(unshared, Some(Arc::clone(&shared)), at),
            );
        }
        Ok(())
    }

    /// Flushes and fsyncs the durable log (no-op for in-memory stores).
    pub fn sync(&self) -> Result<(), StoreError> {
        if let Some(log) = self.write().log.as_mut() {
            log.sync()?;
        }
        Ok(())
    }

    /// All records for `oid`, sorted by `seq_id` (ties keep append order).
    pub fn records_for(&self, oid: ObjectId) -> Vec<StoredRecord> {
        let inner = self.read();
        let mut out: Vec<StoredRecord> = inner
            .by_object
            .get(&oid)
            .map(|idxs| {
                idxs.iter()
                    .map(|&i| inner.records[i as usize].materialize())
                    .collect()
            })
            .unwrap_or_default();
        out.sort_by_key(|r| r.seq_id);
        out
    }

    /// The most recent record (greatest `seq_id`) for `oid`.
    pub fn latest_for(&self, oid: ObjectId) -> Option<StoredRecord> {
        let inner = self.read();
        inner.by_object.get(&oid).and_then(|idxs| {
            idxs.iter()
                .map(|&i| &inner.records[i as usize])
                .max_by_key(|s| s.seq_id)
                .map(Slot::materialize)
        })
    }

    /// Total number of stored records.
    pub fn len(&self) -> usize {
        self.read().records.len()
    }

    /// `true` when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of [`StoredRecord::paper_row_bytes`] over all records — the
    /// space-overhead metric of Figures 9 and 11.
    pub fn paper_row_bytes(&self) -> u64 {
        self.read().paper_row_bytes
    }

    /// Snapshot of every record in append order.
    pub fn all_records(&self) -> Vec<StoredRecord> {
        self.records_from(0)
    }

    /// Snapshot of the records at append positions `pos..`, in append
    /// order — the incremental feed secondary indexes tail to stay in sync
    /// without rescanning the whole log. An out-of-range `pos` yields an
    /// empty vec.
    pub fn records_from(&self, pos: usize) -> Vec<StoredRecord> {
        let inner = self.read();
        inner
            .records
            .get(pos..)
            .map(|s| s.iter().map(Slot::materialize).collect())
            .unwrap_or_default()
    }

    /// Ids of all objects that have at least one record.
    pub fn object_ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.read().by_object.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Drops records failing `keep` from an **in-memory** store, returning
    /// how many were removed. Fails on durable stores (an append-only log
    /// cannot be edited in place — use [`Self::compact_into`]).
    pub fn retain(&self, keep: impl Fn(&StoredRecord) -> bool) -> Result<usize, StoreError> {
        let mut inner = self.write();
        if inner.log.is_some() {
            return Err(StoreError::DurableRetain);
        }
        let before = inner.records.len();
        let kept: Vec<Slot> = inner
            .records
            .drain(..)
            .filter(|s| keep(&s.materialize()))
            .collect();
        inner.by_object.clear();
        inner.paper_row_bytes = 0;
        for slot in kept {
            index_slot(&mut inner, slot);
        }
        Ok(before - inner.records.len())
    }

    /// Writes the records passing `keep` into a **new** durable store at
    /// `path` (compaction). The source store is untouched; callers swap the
    /// files/handles once the new store is synced.
    pub fn compact_into(
        &self,
        path: impl AsRef<Path>,
        keep: impl Fn(&StoredRecord) -> bool,
    ) -> Result<ProvenanceDb, StoreError> {
        let new = ProvenanceDb::durable(path)?;
        for rec in self.all_records() {
            if keep(&rec) {
                new.append(rec)?;
            }
        }
        new.sync()?;
        Ok(new)
    }
}

fn index_slot(inner: &mut Inner, slot: Slot) {
    let idx = inner.records.len() as u32;
    inner.paper_row_bytes += (4 + 4 + 4 + slot.own + slot.tail().len()) as u64;
    inner.by_object.entry(slot.oid).or_default().push(idx);
    inner.records.push(slot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn rec(oid: u64, seq: u64, participant: u64) -> StoredRecord {
        StoredRecord {
            seq_id: seq,
            participant: ParticipantId(participant),
            oid: ObjectId(oid),
            checksum: vec![0xCC; 128],
            payload: format!("payload-{oid}-{seq}").into_bytes(),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "tep-provdb-test-{}-{}-{}.log",
            std::process::id(),
            tag,
            n
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(crate::log::quarantine_path(&self.0));
        }
    }

    #[test]
    fn append_and_query() {
        let db = ProvenanceDb::in_memory();
        db.append(rec(1, 0, 10)).unwrap();
        db.append(rec(1, 1, 11)).unwrap();
        db.append(rec(2, 0, 10)).unwrap();
        assert_eq!(db.len(), 3);
        let one = db.records_for(ObjectId(1));
        assert_eq!(one.len(), 2);
        assert_eq!(one[0].seq_id, 0);
        assert_eq!(one[1].seq_id, 1);
        assert_eq!(db.latest_for(ObjectId(1)).unwrap().seq_id, 1);
        assert!(db.latest_for(ObjectId(9)).is_none());
        assert!(db.records_for(ObjectId(9)).is_empty());
        assert_eq!(db.object_ids(), vec![ObjectId(1), ObjectId(2)]);
    }

    #[test]
    fn records_sorted_by_seq_even_if_appended_out_of_order() {
        let db = ProvenanceDb::in_memory();
        db.append(rec(1, 5, 10)).unwrap();
        db.append(rec(1, 2, 10)).unwrap();
        db.append(rec(1, 9, 10)).unwrap();
        let seqs: Vec<u64> = db
            .records_for(ObjectId(1))
            .iter()
            .map(|r| r.seq_id)
            .collect();
        assert_eq!(seqs, vec![2, 5, 9]);
        assert_eq!(db.latest_for(ObjectId(1)).unwrap().seq_id, 9);
    }

    #[test]
    fn paper_row_bytes_accounting() {
        let db = ProvenanceDb::in_memory();
        db.append(rec(1, 0, 10)).unwrap();
        db.append(rec(2, 0, 10)).unwrap();
        // Each row: 4 + 4 + 4 + 128 = 140 bytes, the paper's layout.
        assert_eq!(db.paper_row_bytes(), 280);
    }

    #[test]
    fn durable_roundtrip() {
        let path = temp_path("roundtrip");
        let _guard = Cleanup(path.clone());
        {
            let db = ProvenanceDb::durable(&path).unwrap();
            db.append(rec(1, 0, 10)).unwrap();
            db.append(rec(1, 1, 11)).unwrap();
            db.sync().unwrap();
        }
        let db = ProvenanceDb::durable(&path).unwrap();
        assert_eq!(db.len(), 2);
        let recs = db.records_for(ObjectId(1));
        assert_eq!(recs[1].participant, ParticipantId(11));
        assert_eq!(recs[1].payload, b"payload-1-1");
        assert_eq!(recs[1].checksum, vec![0xCC; 128]);
    }

    #[test]
    fn interior_corruption_opens_degraded_with_gap_report() {
        let path = temp_path("degraded");
        let _guard = Cleanup(path.clone());
        {
            let db = ProvenanceDb::durable(&path).unwrap();
            for seq in 0..4u64 {
                db.append(rec(1, seq, 10)).unwrap();
            }
            db.sync().unwrap();
        }
        // Corrupt the second record's frame (interior: frames 3/4 follow).
        let mut data = std::fs::read(&path).unwrap();
        let frame0_len = 8 + rec(1, 0, 10).to_bytes().len();
        let hit = 12 + frame0_len + 8 + 4;
        data[hit] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let db = ProvenanceDb::durable(&path).unwrap();
        assert_eq!(db.len(), 3);
        let seqs: Vec<u64> = db
            .records_for(ObjectId(1))
            .iter()
            .map(|r| r.seq_id)
            .collect();
        assert_eq!(seqs, vec![0, 2, 3]);
        let report = db.recovery();
        assert!(report.is_degraded());
        assert_eq!(report.gaps.len(), 1);
        assert_eq!(report.gaps[0].preceding_frames, 1);
        assert!(report.quarantined_bytes > 0);
        drop(db);

        // Reopen after quarantine: clean store, surviving records intact.
        let db = ProvenanceDb::durable(&path).unwrap();
        assert_eq!(db.len(), 3);
        assert!(!db.recovery().is_degraded());
    }

    #[test]
    fn undecodable_record_is_skipped_and_counted() {
        let path = temp_path("badrec");
        let _guard = Cleanup(path.clone());
        {
            // A CRC-valid frame that is not a StoredRecord encoding.
            let mut log = AppendLog::create(&path).unwrap();
            log.append(b"not a record").unwrap();
            log.append(&rec(1, 0, 10).to_bytes()).unwrap();
            log.sync().unwrap();
        }
        let db = ProvenanceDb::durable(&path).unwrap();
        assert_eq!(db.len(), 1);
        let report = db.recovery();
        assert!(report.is_degraded());
        assert_eq!(report.decode_failures, 1);
        assert!(report.gaps.is_empty());
    }

    #[test]
    fn record_encode_decode_roundtrip() {
        let r = rec(42, 7, 3);
        let encoded = r.to_bytes();
        assert_eq!(StoredRecord::from_bytes(&encoded).unwrap(), r);
        // Truncation is detected.
        assert!(StoredRecord::from_bytes(&encoded[..encoded.len() - 1]).is_err());
        // Trailing bytes are detected.
        let mut extended = encoded.clone();
        extended.push(0);
        assert!(StoredRecord::from_bytes(&extended).is_err());
    }

    /// Three rows sharing a 128-byte checksum tail, as one batch.
    fn batch(oid: u64) -> Vec<StoredRecord> {
        (0..3u64)
            .map(|i| {
                let mut r = rec(oid + i, 0, 10);
                r.checksum = vec![i as u8; 9 + 20 * i as usize];
                r.checksum.extend_from_slice(&[0x5A; 128]);
                r
            })
            .collect()
    }

    #[test]
    fn batch_append_writes_the_shared_tail_once_and_reads_back_whole_rows() {
        let path = temp_path("batch");
        let _guard = Cleanup(path.clone());
        let rows = batch(1);
        let single = rec(9, 0, 10);
        let full: u64 = rows.iter().map(|r| 8 + r.to_bytes().len() as u64).sum();
        {
            let db = ProvenanceDb::durable(&path).unwrap();
            db.append_batch(rows.clone(), 128).unwrap();
            db.append(single.clone()).unwrap();
            db.sync().unwrap();
            assert_eq!(db.all_records()[..3], rows[..]);
        }
        // One frame per record; the two later members trade the 128-byte
        // tail for a 7-byte trailer.
        let on_disk = std::fs::metadata(&path).unwrap().len();
        let single_frame = 8 + single.to_bytes().len() as u64;
        assert_eq!(on_disk, 12 + full - 2 * (128 - 7) + single_frame);
        assert_eq!(AppendLog::open(&path).unwrap().payloads.len(), 4);

        let db = ProvenanceDb::durable(&path).unwrap();
        assert!(!db.recovery().is_degraded());
        assert_eq!(db.all_records()[..3], rows[..]);
        assert_eq!(db.latest_for(ObjectId(3)).unwrap(), rows[2]);
        assert_eq!(db.records_for(ObjectId(9)), vec![single]);
        // Paper rows count every member's own copy of the tail.
        let rows_bytes: u64 = rows.iter().map(|r| r.paper_row_bytes()).sum();
        assert_eq!(db.paper_row_bytes(), rows_bytes + 140);
    }

    #[test]
    fn batch_append_without_a_common_tail_is_a_run_of_plain_appends() {
        let path = temp_path("batch-plain");
        let _guard = Cleanup(path.clone());
        let mut rows = batch(1);
        rows[1].checksum[40] ^= 1; // no longer ends like the others
        let db = ProvenanceDb::durable(&path).unwrap();
        db.append_batch(rows.clone(), 128).unwrap();
        db.append_batch(batch(5), 0).unwrap();
        db.append_batch(batch(8), 4096).unwrap();
        db.sync().unwrap();
        drop(db);
        let frames = AppendLog::open(&path).unwrap().payloads;
        let expect: Vec<StoredRecord> = [rows, batch(5), batch(8)].concat();
        assert_eq!(frames.len(), expect.len());
        for (frame, row) in frames.iter().zip(&expect) {
            assert_eq!(&StoredRecord::from_bytes(frame).unwrap(), row);
        }
    }

    #[test]
    fn retain_keeps_batch_members_whole_without_their_first_frame() {
        let db = ProvenanceDb::in_memory();
        let rows = batch(1);
        db.append_batch(rows.clone(), 128).unwrap();
        assert_eq!(db.retain(|r| r.oid != ObjectId(1)).unwrap(), 1);
        assert_eq!(db.all_records(), rows[1..]);
    }

    #[test]
    fn retain_rebuilds_indexes() {
        let db = ProvenanceDb::in_memory();
        db.append(rec(1, 0, 10)).unwrap();
        db.append(rec(1, 1, 10)).unwrap();
        db.append(rec(2, 0, 11)).unwrap();
        let removed = db.retain(|r| r.oid != ObjectId(2)).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(db.len(), 2);
        assert!(db.records_for(ObjectId(2)).is_empty());
        assert_eq!(db.records_for(ObjectId(1)).len(), 2);
        assert_eq!(db.paper_row_bytes(), 2 * 140);
        assert_eq!(db.object_ids(), vec![ObjectId(1)]);
    }

    #[test]
    fn retain_rejected_on_durable_store() {
        let path = temp_path("retain");
        let _guard = Cleanup(path.clone());
        let db = ProvenanceDb::durable(&path).unwrap();
        db.append(rec(1, 0, 10)).unwrap();
        assert!(matches!(
            db.retain(|_| true),
            Err(StoreError::DurableRetain)
        ));
    }

    #[test]
    fn compact_into_writes_filtered_durable_copy() {
        let src_path = temp_path("compact-src");
        let dst_path = temp_path("compact-dst");
        let _g1 = Cleanup(src_path.clone());
        let _g2 = Cleanup(dst_path.clone());
        let src = ProvenanceDb::durable(&src_path).unwrap();
        for oid in 1..=5u64 {
            src.append(rec(oid, 0, 10)).unwrap();
        }
        src.sync().unwrap();
        let dst = src
            .compact_into(&dst_path, |r| r.oid.raw() % 2 == 1)
            .unwrap();
        assert_eq!(dst.len(), 3); // oids 1, 3, 5
                                  // Source untouched.
        assert_eq!(src.len(), 5);
        // The compacted store survives reopen.
        drop(dst);
        let reopened = ProvenanceDb::durable(&dst_path).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(
            reopened.object_ids(),
            vec![ObjectId(1), ObjectId(3), ObjectId(5)]
        );
    }

    #[test]
    fn a_panic_under_the_write_lock_does_not_wedge_the_store() {
        let db = Arc::new(ProvenanceDb::in_memory());
        db.append(rec(1, 0, 10)).unwrap();
        let held = Arc::clone(&db);
        let died = std::thread::spawn(move || {
            let _inner = held.write();
            panic!("writer dies holding the lock");
        })
        .join();
        assert!(died.is_err());
        assert!(db.inner.is_poisoned());
        assert_eq!(db.len(), 1);
        assert_eq!(db.latest_for(ObjectId(1)).unwrap().seq_id, 0);
        db.append(rec(1, 1, 10)).unwrap();
        assert_eq!(db.records_for(ObjectId(1)).len(), 2);
    }

    #[test]
    fn concurrent_appends_from_threads() {
        use std::sync::Arc;
        let db = Arc::new(ProvenanceDb::in_memory());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for s in 0..100u64 {
                    db.append(rec(t, s, t)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len(), 800);
        for t in 0..8u64 {
            let recs = db.records_for(ObjectId(t));
            assert_eq!(recs.len(), 100);
            // Per-object order intact despite interleaving.
            assert!(recs.windows(2).all(|w| w[0].seq_id < w[1].seq_id));
        }
    }
}
