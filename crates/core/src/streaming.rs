//! Streaming compound hashing for larger-than-memory databases (§5.2).
//!
//! The paper: *"we can read one row at a time, hashing the row and the
//! cells in it, and updating the table's hash value with the row's hash
//! value. When all rows are read and hashed, we get the final hash value of
//! the table"* — demonstrated there on an 18.9-million-row `Title` table
//! (56,886,125 nodes).
//!
//! The canonical compound hash (`h(prefix(A) ‖ h(c₁) ‖ … ‖ h(c_k) ‖ k)`)
//! folds children incrementally, so [`DepthStreamHasher`] produces
//! **bit-identical** results to [`crate::hashing::subtree_hash`] over an
//! equivalent in-memory forest while holding only one root-to-leaf path of
//! digest states. A table streamed row by row is one such preorder: the
//! table at depth 0, each row at 1 followed by its cells at 2.

use tep_crypto::digest::{Digest, HashAlgorithm, Hasher};
use tep_crypto::pki::ParticipantId;
use tep_model::codec_structs;
use tep_model::encode::{node_prefix_into, Codec, DecodeError, List, Reader};
use tep_model::{ObjectId, Value};
use tep_storage::StoredRecord;

/// Error from streaming construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// Children must be appended in strictly increasing `ObjectId` order to
    /// match the canonical child ordering.
    OutOfOrderChild {
        /// Previously appended child.
        prev: ObjectId,
        /// The offending child.
        next: ObjectId,
    },
    /// A depth-tagged entry skipped a tree level (its depth exceeds the
    /// current path length).
    DepthSkipped {
        /// The entry's claimed depth.
        got: usize,
        /// Deepest admissible depth at this point.
        max: usize,
    },
    /// A second root-level entry arrived after the first root completed.
    MultipleRoots,
    /// The stream ended with no entries at all.
    EmptyStream,
    /// A PROV body that `ProvenanceRecord::from_stored` refuses.
    UndecodableRecord(DecodeError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::OutOfOrderChild { prev, next } => write!(
                f,
                "children must arrive in increasing id order: {next} after {prev}"
            ),
            StreamError::DepthSkipped { got, max } => {
                write!(f, "entry depth {got} skips a level (max admissible {max})")
            }
            StreamError::MultipleRoots => write!(f, "more than one depth-0 entry in the stream"),
            StreamError::EmptyStream => write!(f, "subtree stream carried no entries"),
            StreamError::UndecodableRecord(e) => write!(f, "undecodable PROV body: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Incrementally computes `h(subtree(A))` for one node whose children are
/// supplied as already-computed hashes, in `ObjectId` order — the fold
/// [`DepthStreamHasher`] and [`leaf_hash`] are built from.
struct StreamingNodeHasher {
    hasher: Hasher,
    child_count: u64,
    last_child: Option<ObjectId>,
}

impl StreamingNodeHasher {
    /// Starts hashing node `(id, value)`, its prefix built in `prefix`, a
    /// buffer the caller reuses.
    fn new(alg: HashAlgorithm, id: ObjectId, value: &Value, prefix: &mut Vec<u8>) -> Self {
        prefix.clear();
        node_prefix_into(id, value, prefix);
        let mut hasher = alg.hasher();
        hasher.update(prefix);
        StreamingNodeHasher {
            hasher,
            child_count: 0,
            last_child: None,
        }
    }

    /// Folds in the next child's subtree hash.
    fn add_child(&mut self, child: ObjectId, hash: &[u8]) -> Result<(), StreamError> {
        if let Some(prev) = self.last_child {
            if child <= prev {
                return Err(StreamError::OutOfOrderChild { prev, next: child });
            }
        }
        self.hasher.update(hash);
        self.child_count += 1;
        self.last_child = Some(child);
        Ok(())
    }

    /// Finishes: returns `h(subtree)` for this node.
    fn finish(mut self) -> Digest {
        self.hasher.update(&self.child_count.to_be_bytes());
        self.hasher.finalize_fixed()
    }
}

/// Hash of a leaf node (no children).
pub fn leaf_hash(alg: HashAlgorithm, id: ObjectId, value: &Value) -> Vec<u8> {
    StreamingNodeHasher::new(alg, id, value, &mut Vec::new())
        .finish()
        .to_vec()
}

/// Recomputes a canonical subtree hash from a **depth-tagged DFS preorder**
/// stream of `(depth, id, value)` entries — the shape `tep-net` DATA frames
/// carry, and the natural order a sender produces by walking its forest.
///
/// The hasher keeps one node hasher per level of the current
/// root-to-leaf path, so memory is O(tree depth), never O(tree size), and
/// builds each node's prefix in one reused buffer and each finished child
/// hash on the stack, so it allocates O(tree depth) times too. An
/// entry at depth `d` first folds every open node deeper than `d` into its
/// parent, then opens a new node as a child of the node at depth `d - 1`.
/// Sibling order is enforced as each child is folded in, so a
/// reordered or duplicated stream fails instead of hashing to something
/// unexpected.
///
/// The result is bit-identical to [`crate::hashing::subtree_hash`] over the
/// equivalent in-memory forest. Streaming a table one row at a time — the
/// paper's large-database procedure — is the preorder table, row, cells,
/// row, cells, …: O(1) digest state, O(row) memory.
///
/// ```
/// use tep_core::streaming::DepthStreamHasher;
/// use tep_crypto::HashAlgorithm;
/// use tep_model::{ObjectId, Value};
///
/// let mut t = DepthStreamHasher::new(HashAlgorithm::Sha1);
/// t.push(0, ObjectId(1), &Value::text("Title")).unwrap();
/// for i in 0..1000u64 {
///     let base = 2 + i * 3;
///     t.push(1, ObjectId(base), &Value::Null).unwrap();
///     t.push(2, ObjectId(base + 1), &Value::Int(i as i64)).unwrap();
///     t.push(2, ObjectId(base + 2), &Value::text(format!("doc {i}"))).unwrap();
/// }
/// let (hash, nodes) = t.finish().unwrap();
/// assert_eq!(nodes, 1 + 1000 * 3);
/// assert_eq!(hash.len(), 20); // SHA-1
/// ```
pub struct DepthStreamHasher {
    alg: HashAlgorithm,
    /// Open nodes along the current path, outermost (depth 0) first.
    stack: Vec<(ObjectId, StreamingNodeHasher)>,
    nodes: u64,
    /// Set once the depth-0 node has been fully folded.
    root_hash: Option<Digest>,
    /// The buffer every node prefix is built in, in turn.
    prefix: Vec<u8>,
}

impl DepthStreamHasher {
    /// A fresh hasher expecting the root entry at depth 0 first.
    pub fn new(alg: HashAlgorithm) -> Self {
        DepthStreamHasher {
            alg,
            stack: Vec::new(),
            nodes: 0,
            root_hash: None,
            prefix: Vec::new(),
        }
    }

    /// Feeds the next preorder entry.
    pub fn push(&mut self, depth: usize, id: ObjectId, value: &Value) -> Result<(), StreamError> {
        if depth > self.stack.len() {
            return Err(StreamError::DepthSkipped {
                got: depth,
                max: self.stack.len(),
            });
        }
        while self.stack.len() > depth {
            self.fold_top()?;
        }
        if self.root_hash.is_some() {
            return Err(StreamError::MultipleRoots);
        }
        let node = StreamingNodeHasher::new(self.alg, id, value, &mut self.prefix);
        self.stack.push((id, node));
        Ok(())
    }

    /// Entries consumed so far.
    pub fn node_count(&self) -> u64 {
        self.nodes + self.stack.len() as u64
    }

    /// Folds remaining open nodes and returns `(subtree hash, node count)`.
    pub fn finish(mut self) -> Result<(Vec<u8>, u64), StreamError> {
        while !self.stack.is_empty() {
            self.fold_top()?;
        }
        match self.root_hash {
            Some(h) => Ok((h.to_vec(), self.nodes)),
            None => Err(StreamError::EmptyStream),
        }
    }

    fn fold_top(&mut self) -> Result<(), StreamError> {
        let (id, hasher) = self.stack.pop().expect("fold_top on empty stack");
        let hash = hasher.finish();
        self.nodes += 1;
        match self.stack.last_mut() {
            Some((_, parent)) => parent.add_child(id, hash.as_slice()),
            None => {
                self.root_hash = Some(hash);
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Resumable-transfer checkpoints
// ---------------------------------------------------------------------------

/// Magic bytes opening every sealed verifier checkpoint (family + version):
/// the same bytes a `crate::checkpoint::Checkpoint` opens with.
const CHECKPOINT_MAGIC: &[u8] = b"TEPCKPT\x01";

/// Domain-separation tag for the rolling record-stream digest.
const STREAM_DIGEST_TAG: &[u8] = b"tep-resume-stream\x01";

/// Rolling digest over the canonical byte encodings of a record stream:
/// `d₀ = h(tag ‖ alg ‖ target)`, `dᵢ₊₁ = h(dᵢ ‖ record_bytes)`.
///
/// Both ends of a resumable transfer compute this independently over the
/// records they have sent/accepted, so a RESUME handshake can prove — not
/// merely claim — that the first `k` records of both histories are
/// byte-identical. Chaining through the previous state makes the digest
/// position-dependent: reordered, dropped, or substituted records change
/// every subsequent state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordStreamDigest {
    alg: HashAlgorithm,
    state: Vec<u8>,
}

impl RecordStreamDigest {
    /// The digest of an empty stream for `target`.
    pub fn new(alg: HashAlgorithm, target: ObjectId) -> Self {
        let mut h = alg.hasher();
        h.update(STREAM_DIGEST_TAG);
        h.update(&[alg.wire_id()]);
        h.update(&target.raw().to_be_bytes());
        RecordStreamDigest {
            alg,
            state: h.finalize(),
        }
    }

    /// Rebuilds a digest from a previously observed `state` (e.g. out of a
    /// sealed checkpoint). The state is trusted only as far as the
    /// checkpoint's own authentication; a wrong state simply fails to match
    /// the peer's recomputation.
    pub fn resume(alg: HashAlgorithm, state: Vec<u8>) -> Self {
        RecordStreamDigest { alg, state }
    }

    /// Folds the next record's canonical bytes into the digest.
    pub fn push(&mut self, record_bytes: &[u8]) {
        let mut h = self.alg.hasher();
        h.update(&self.state);
        h.update(record_bytes);
        self.state.clear();
        self.state.extend_from_slice(h.finalize_fixed().as_slice());
    }

    /// Folds the next record's row, its bytes built in `scratch` (which
    /// the caller reuses across rows).
    pub fn push_row(&mut self, row: &StoredRecord, scratch: &mut Vec<u8>) {
        scratch.clear();
        row.encode_into(scratch);
        self.push(scratch);
    }

    /// The current digest state.
    pub fn current(&self) -> &[u8] {
        &self.state
    }
}

/// Why a sealed checkpoint blob was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The self-authenticating trailer digest does not match the body —
    /// the blob was corrupted or tampered with.
    BadSeal,
    /// The body failed structural decoding: among others a blob that does
    /// not open with the checkpoint magic ([`DecodeError::BadMagic`]) or
    /// names a hash algorithm this build does not know.
    Malformed(DecodeError),
    /// The body decoded but its fields contradict each other.
    Inconsistent(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadSeal => {
                write!(f, "checkpoint seal digest mismatch (corrupt or tampered)")
            }
            CheckpointError::Malformed(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::Inconsistent(why) => write!(f, "inconsistent checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
        CheckpointError::Malformed(e)
    }
}

/// A record slot `(oid, seq_id)` — the key every per-record table in a
/// checkpoint (and in the verifier it restores) is indexed by.
pub(crate) type RecordSlot = (ObjectId, u64);

codec_structs! {
    /// The full resumable state of a
    /// [`StreamingVerifier`](crate::verify::StreamingVerifier), with a
    /// **self-authenticating** byte encoding: [`seal`](Self::seal) appends a
    /// digest of everything before it, and [`open`](Self::open) refuses blobs
    /// whose trailer does not match. A checkpoint restored from a sealed blob
    /// is therefore exactly the state that was saved — a flipped bit anywhere
    /// (including in the trailer itself) surfaces as
    /// [`CheckpointError::BadSeal`], never as a silently different verifier.
    ///
    /// The encoding is deterministic (maps are serialized in sorted key order)
    /// so equal states seal to identical bytes.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub(crate) struct VerifierCheckpoint magic CHECKPOINT_MAGIC {
        /// Hash algorithm of the verification session.
        pub alg: HashAlgorithm,
        /// The object whose history is being verified.
        pub target: ObjectId,
        /// Records accepted so far (all clean — checkpoints of tampered
        /// sessions do not exist; evidence is never resumed past).
        pub records: u64,
        /// State of the rolling [`RecordStreamDigest`] after `records` records.
        pub stream_digest: Vec<u8>,
        /// `(seq_id, output_hash)` of the newest target record seen, if any.
        pub latest_target: Option<(u64, Vec<u8>)>,
        /// Participants seen, ascending.
        pub participants: Vec<ParticipantId> as List<4, ParticipantId>,
        /// Highest sequence id per object chain, sorted by object.
        pub chain_tail: Vec<RecordSlot> as List<4, RecordSlot>,
        /// Push order of accepted record slots.
        pub order: Vec<RecordSlot> as List<4, RecordSlot>,
        /// Checksum of every accepted record, sorted by `(oid, seq)`.
        pub checksums: Vec<(RecordSlot, Vec<u8>)> as List<4, (RecordSlot, Vec<u8>)>,
        /// Predecessor edges per record slot, sorted by `(oid, seq)`.
        pub edges: Vec<(RecordSlot, Vec<RecordSlot>)> as List<4, (RecordSlot, List<4, RecordSlot>)>,
    }
}

impl VerifierCheckpoint {
    /// Serializes and seals the checkpoint: `magic ‖ body ‖ digest(magic ‖ body)`.
    pub(crate) fn seal(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.checksums.len() * 64);
        Self::put(self, &mut out);
        let seal = self.alg.digest(&out);
        Vec::<u8>::put(&seal, &mut out);
        out
    }

    /// Parses and authenticates a sealed blob. Every failure mode —
    /// truncation, bit flips, trailing garbage, internal contradictions —
    /// is an error; no partially trusted checkpoint is ever returned.
    pub(crate) fn open(blob: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(blob);
        let cp = Self::take(&mut r)?;
        // Authenticate: the trailer must be the digest of everything
        // before it.
        let body_len = blob.len() - r.remaining();
        let seal = Vec::<u8>::take(&mut r)?;
        r.expect_end()?;
        if seal != cp.alg.digest(&blob[..body_len]) {
            return Err(CheckpointError::BadSeal);
        }
        cp.check_consistency()?;
        Ok(cp)
    }

    fn check_consistency(&self) -> Result<(), CheckpointError> {
        if self.records != self.order.len() as u64 {
            return Err(CheckpointError::Inconsistent(
                "record count disagrees with push order",
            ));
        }
        // A clean session pushed each slot once, so each table holds one
        // entry per pushed slot.
        if self.checksums.len() != self.order.len() || self.edges.len() != self.checksums.len() {
            return Err(CheckpointError::Inconsistent(
                "checksum/edge tables disagree with push order",
            ));
        }
        if !self.checksums.windows(2).all(|w| w[0].0 < w[1].0)
            || !self.edges.windows(2).all(|w| w[0].0 < w[1].0)
        {
            return Err(CheckpointError::Inconsistent(
                "map entries must be strictly sorted",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::subtree_hash;
    use tep_model::{relational, Forest};

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    #[test]
    fn leaf_hash_matches_forest() {
        let mut f = Forest::new();
        let a = f.insert(Value::Int(7), None).unwrap();
        assert_eq!(leaf_hash(ALG, a, &Value::Int(7)), subtree_hash(ALG, &f, a));
    }

    #[test]
    fn streamed_table_matches_in_memory_forest() {
        // Build in memory.
        let mut f = Forest::new();
        let root = relational::create_root(&mut f, "db");
        let th = relational::build_table(&mut f, root, "title", 20, 2, |r, a| {
            if a == 0 {
                Value::Int(r as i64)
            } else {
                Value::text(format!("doc title {r}"))
            }
        })
        .unwrap();
        let expected = subtree_hash(ALG, &f, th.id);

        // Stream the identical structure one row at a time.
        let mut stream = DepthStreamHasher::new(ALG);
        stream.push(0, th.id, &Value::text("title")).unwrap();
        for (r, row) in th.rows.iter().enumerate() {
            stream.push(1, row.id, &Value::Null).unwrap();
            stream.push(2, row.cells[0], &Value::Int(r as i64)).unwrap();
            let title = Value::text(format!("doc title {r}"));
            stream.push(2, row.cells[1], &title).unwrap();
        }
        let (hash, nodes) = stream.finish().unwrap();
        assert_eq!(hash, expected);
        assert_eq!(nodes, 1 + 20 + 40); // table + rows + cells
    }

    #[test]
    fn streamed_database_matches_forest() {
        let mut f = Forest::new();
        let root = relational::create_root(&mut f, "db");
        let t1 = relational::build_table(&mut f, root, "t1", 5, 3, |r, a| {
            Value::Int((r * 10 + a) as i64)
        })
        .unwrap();
        let t2 = relational::build_table(&mut f, root, "t2", 4, 2, |r, a| {
            Value::Int((r * 100 + a) as i64)
        })
        .unwrap();
        let expected = subtree_hash(ALG, &f, root);

        let mut db = DepthStreamHasher::new(ALG);
        db.push(0, root, &Value::text("db")).unwrap();
        for (th, name, mult) in [(&t1, "t1", 10i64), (&t2, "t2", 100)] {
            db.push(1, th.id, &Value::text(name)).unwrap();
            for (r, row) in th.rows.iter().enumerate() {
                db.push(2, row.id, &Value::Null).unwrap();
                for (a, &cid) in row.cells.iter().enumerate() {
                    let v = Value::Int(r as i64 * mult + a as i64);
                    db.push(3, cid, &v).unwrap();
                }
            }
        }
        let (hash, nodes) = db.finish().unwrap();
        assert_eq!(hash, expected);
        assert_eq!(nodes as usize, f.len());
    }

    #[test]
    fn out_of_order_children_rejected() {
        let mut n = StreamingNodeHasher::new(ALG, ObjectId(0), &Value::Null, &mut Vec::new());
        n.add_child(ObjectId(5), &[0u8; 32]).unwrap();
        assert_eq!(
            n.add_child(ObjectId(5), &[0u8; 32]),
            Err(StreamError::OutOfOrderChild {
                prev: ObjectId(5),
                next: ObjectId(5)
            })
        );
        assert!(n.add_child(ObjectId(3), &[0u8; 32]).is_err());
        assert!(n.add_child(ObjectId(6), &[0u8; 32]).is_ok());
    }

    /// Depth-tagged DFS preorder walk of `root`'s subtree, as a sender
    /// (or the `tep-net` DATA encoder) would emit it.
    fn preorder(f: &Forest, root: ObjectId) -> Vec<(usize, ObjectId, Value)> {
        let mut out = Vec::new();
        let mut work = vec![(0usize, root)];
        while let Some((depth, id)) = work.pop() {
            let node = f.node(id).expect("node exists");
            out.push((depth, id, node.value().clone()));
            // Children are in increasing-id order; push reversed so the
            // smallest id is visited first.
            let kids: Vec<ObjectId> = node.children().collect();
            for &c in kids.iter().rev() {
                work.push((depth + 1, c));
            }
        }
        out
    }

    #[test]
    fn depth_stream_matches_subtree_hash() {
        let mut f = Forest::new();
        let root = relational::create_root(&mut f, "db");
        relational::build_table(&mut f, root, "title", 7, 3, |r, a| {
            Value::text(format!("cell {r}/{a}"))
        })
        .unwrap();
        relational::build_table(&mut f, root, "cast", 4, 2, |r, a| {
            Value::Int((r + a) as i64)
        })
        .unwrap();

        let first_table = f
            .node(root)
            .unwrap()
            .children()
            .next()
            .expect("root has tables");
        for target in [root, first_table] {
            let mut h = DepthStreamHasher::new(ALG);
            let entries = preorder(&f, target);
            for (d, id, v) in &entries {
                h.push(*d, *id, v).unwrap();
            }
            assert_eq!(h.node_count(), entries.len() as u64);
            let (hash, nodes) = h.finish().unwrap();
            assert_eq!(hash, subtree_hash(ALG, &f, target));
            assert_eq!(nodes, entries.len() as u64);
        }
    }

    #[test]
    fn depth_stream_single_leaf() {
        let mut f = Forest::new();
        let a = f.insert(Value::Int(42), None).unwrap();
        let mut h = DepthStreamHasher::new(ALG);
        h.push(0, a, &Value::Int(42)).unwrap();
        let (hash, nodes) = h.finish().unwrap();
        assert_eq!(hash, subtree_hash(ALG, &f, a));
        assert_eq!(nodes, 1);
    }

    #[test]
    fn depth_stream_rejects_malformed_streams() {
        // Skipped level: root at 0, then an entry claiming depth 2.
        let mut h = DepthStreamHasher::new(ALG);
        h.push(0, ObjectId(0), &Value::Null).unwrap();
        assert_eq!(
            h.push(2, ObjectId(1), &Value::Null),
            Err(StreamError::DepthSkipped { got: 2, max: 1 })
        );

        // First entry must be the root.
        let mut h = DepthStreamHasher::new(ALG);
        assert_eq!(
            h.push(1, ObjectId(0), &Value::Null),
            Err(StreamError::DepthSkipped { got: 1, max: 0 })
        );

        // Two depth-0 entries: a second root is not a subtree.
        let mut h = DepthStreamHasher::new(ALG);
        h.push(0, ObjectId(0), &Value::Null).unwrap();
        assert_eq!(
            h.push(0, ObjectId(1), &Value::Null),
            Err(StreamError::MultipleRoots)
        );

        // Out-of-order siblings propagate the node hasher's error.
        let mut h = DepthStreamHasher::new(ALG);
        h.push(0, ObjectId(0), &Value::Null).unwrap();
        h.push(1, ObjectId(5), &Value::Null).unwrap();
        h.push(1, ObjectId(3), &Value::Null).unwrap();
        assert!(matches!(
            h.finish(),
            Err(StreamError::OutOfOrderChild { .. })
        ));

        // Empty stream has no hash.
        assert_eq!(
            DepthStreamHasher::new(ALG).finish(),
            Err(StreamError::EmptyStream)
        );
    }

    #[test]
    fn empty_table_hash_is_defined() {
        let mut f = Forest::new();
        let t = f.insert(Value::text("empty"), None).unwrap();
        let mut stream = DepthStreamHasher::new(ALG);
        stream.push(0, t, &Value::text("empty")).unwrap();
        let (hash, nodes) = stream.finish().unwrap();
        assert_eq!(hash, subtree_hash(ALG, &f, t));
        assert_eq!(nodes, 1);
    }

    fn sample_checkpoint() -> VerifierCheckpoint {
        VerifierCheckpoint {
            alg: ALG,
            target: ObjectId(7),
            records: 3,
            stream_digest: vec![0xAB; 32],
            latest_target: Some((2, vec![0xCD; 32])),
            participants: vec![ParticipantId(1), ParticipantId(4)],
            chain_tail: vec![(ObjectId(3), 1), (ObjectId(7), 2)],
            order: vec![(ObjectId(3), 0), (ObjectId(3), 1), (ObjectId(7), 2)],
            checksums: vec![
                ((ObjectId(3), 0), vec![1; 64]),
                ((ObjectId(3), 1), vec![2; 64]),
                ((ObjectId(7), 2), vec![3; 64]),
            ],
            edges: vec![
                ((ObjectId(3), 0), vec![]),
                ((ObjectId(3), 1), vec![(ObjectId(3), 0)]),
                ((ObjectId(7), 2), vec![(ObjectId(3), 1)]),
            ],
        }
    }

    #[test]
    fn checkpoint_seal_open_roundtrips() {
        let cp = sample_checkpoint();
        let blob = cp.seal();
        let back = VerifierCheckpoint::open(&blob).unwrap();
        assert_eq!(back, cp);
        // Determinism: equal states seal to identical bytes.
        assert_eq!(cp.seal(), blob);
    }

    #[test]
    fn checkpoint_rejects_every_single_bit_flip() {
        let blob = sample_checkpoint().seal();
        for byte in 0..blob.len() {
            let mut bad = blob.clone();
            bad[byte] ^= 0x01;
            assert!(
                VerifierCheckpoint::open(&bad).is_err(),
                "flipped bit in byte {byte} of {} went unnoticed",
                blob.len()
            );
        }
    }

    #[test]
    fn checkpoint_rejects_truncation_and_trailing_garbage() {
        let blob = sample_checkpoint().seal();
        for cut in 0..blob.len() {
            assert!(
                VerifierCheckpoint::open(&blob[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        let mut extended = blob.clone();
        extended.push(0);
        assert!(VerifierCheckpoint::open(&extended).is_err());
    }

    #[test]
    fn checkpoint_rejects_internal_contradictions() {
        // Re-sealed with a record count that disagrees with the order list:
        // structurally valid, correctly sealed, still refused.
        let mut cp = sample_checkpoint();
        cp.records = 99;
        assert_eq!(
            VerifierCheckpoint::open(&cp.seal()),
            Err(CheckpointError::Inconsistent(
                "record count disagrees with push order"
            ))
        );

        let mut cp = sample_checkpoint();
        cp.checksums.swap(0, 1); // unsorted map entries
        assert!(matches!(
            VerifierCheckpoint::open(&cp.seal()),
            Err(CheckpointError::Inconsistent(_))
        ));
    }

    #[test]
    fn record_stream_digest_is_position_and_content_dependent() {
        let a = b"record-a".as_slice();
        let b = b"record-b".as_slice();
        let mut ab = RecordStreamDigest::new(ALG, ObjectId(1));
        ab.push(a);
        ab.push(b);
        let mut ba = RecordStreamDigest::new(ALG, ObjectId(1));
        ba.push(b);
        ba.push(a);
        assert_ne!(ab.current(), ba.current(), "order must matter");

        let mut other_target = RecordStreamDigest::new(ALG, ObjectId(2));
        other_target.push(a);
        let mut same = RecordStreamDigest::new(ALG, ObjectId(1));
        same.push(a);
        assert_ne!(
            other_target.current(),
            same.current(),
            "target must be domain-separated"
        );

        // Resuming from a serialized state continues the same chain.
        let mut resumed = RecordStreamDigest::resume(ALG, same.current().to_vec());
        resumed.push(b);
        assert_eq!(resumed.current(), ab.current());
    }
}
