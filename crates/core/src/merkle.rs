//! Merkle summaries over the object-ID space, for replica anti-entropy.
//!
//! A primary and its replicas each summarize a shard — the sorted set of
//! object IDs they store, with one digest per object's record history —
//! as a binary [`ShardTree`]. Comparing two shards then costs one root
//! exchange when they agree, and a descent into only the mismatching
//! subtrees when they do not: divergence at a single object is located in
//! `depth + 2 ≤ log2(n) + O(1)` round trips (summary, one node per
//! level, one leaf probe).
//!
//! The descent is *self-authenticating*: every response's child hashes
//! must recombine to the parent hash the same peer claimed one round
//! earlier. A forged root (or any forged interior node) therefore cannot
//! steer the walk anywhere useful — it is caught structurally and
//! reported as [`AeOutcome::Forged`], which callers surface as
//! [`TamperEvidence::ForgedRoot`](crate::verify::TamperEvidence). This is
//! transport-independent: the same check catches a lying peer and a
//! man-in-the-middle mutating anti-entropy frames.
//!
//! The oracle seam ([`AeOracle`]) abstracts *where* the remote tree
//! lives: tep-net implements it over AE_REQ/AE_RESP wire frames, and this
//! module's tests answer from an in-process tree (down to 100k-object
//! shards, where signing real records would drown the measurement).

use crate::streaming::RecordStreamDigest;
use tep_crypto::digest::{Digest, HashAlgorithm};
use tep_model::ObjectId;
use tep_storage::ProvenanceDb;

/// Domain separator for leaf hashes.
const LEAF_TAG: &[u8] = b"tep-ae-leaf\x01";
/// Domain separator for interior-node hashes.
const NODE_TAG: &[u8] = b"tep-ae-node\x01";
/// Domain separator for the root of an empty shard.
const EMPTY_TAG: &[u8] = b"tep-ae-empty\x01";

/// Hash of one leaf: binds the object's identity to its record-history
/// digest, so two shards that store *different objects* at the same
/// position disagree even if the history digests collide positionally.
pub fn leaf_hash(alg: HashAlgorithm, oid: ObjectId, history_digest: &[u8]) -> Digest {
    let mut h = alg.hasher();
    h.update(LEAF_TAG);
    h.update(&oid.raw().to_be_bytes());
    h.update(history_digest);
    h.finalize_fixed()
}

/// Hash of an interior node over its (1 or 2) children, in order.
///
/// The tag and two digests of at most 32 bytes fit a stack buffer, so the
/// tree build and the path fold allocate nothing here; only a peer's
/// oversized node spills to the heap.
pub(crate) fn combine(alg: HashAlgorithm, children: &[impl AsRef<[u8]>]) -> Digest {
    let len = NODE_TAG.len() + children.iter().map(|c| c.as_ref().len()).sum::<usize>();
    let mut stack = [0u8; NODE_TAG.len() + 2 * 32];
    let mut heap = Vec::new();
    let buf = if len <= stack.len() {
        &mut stack[..len]
    } else {
        heap.resize(len, 0);
        &mut heap[..]
    };
    buf[..NODE_TAG.len()].copy_from_slice(NODE_TAG);
    let mut at = NODE_TAG.len();
    for c in children {
        let c = c.as_ref();
        buf[at..at + c.len()].copy_from_slice(c);
        at += c.len();
    }
    alg.digest_fixed(buf)
}

/// A binary Merkle tree over a shard's sorted object-ID space.
///
/// Level 0 holds one [`leaf_hash`] per object (sorted by `ObjectId`);
/// each higher level pairs adjacent nodes (an odd tail node is hashed
/// alone, preserving its position). `depth` is the number of levels
/// above the leaves, so `depth = ceil(log2(n))` for `n ≥ 1` leaves.
#[derive(Clone, Debug)]
pub struct ShardTree {
    alg: HashAlgorithm,
    oids: Vec<ObjectId>,
    /// History digests, index-aligned with `oids` — the leaf-hash
    /// preimages, retained so non-membership proofs can ship them (a
    /// verifier must recompute `leaf_hash(oid, digest)` itself to know the
    /// claimed `oid` is really bound into the presented leaf).
    digests: Vec<Vec<u8>>,
    /// `levels[0]` = leaf hashes … `levels[depth]` = `[root]`.
    levels: Vec<Vec<Vec<u8>>>,
}

impl ShardTree {
    /// Builds the tree over `(oid, history_digest)` pairs. Input order
    /// does not matter — leaves are sorted by `ObjectId` so two peers
    /// storing the same objects build byte-identical trees.
    pub fn build(alg: HashAlgorithm, mut leaves: Vec<(ObjectId, Vec<u8>)>) -> Self {
        leaves.sort_by_key(|(oid, _)| *oid);
        let oids: Vec<ObjectId> = leaves.iter().map(|(oid, _)| *oid).collect();
        let base: Vec<Vec<u8>> = leaves
            .iter()
            .map(|(oid, d)| leaf_hash(alg, *oid, d).to_vec())
            .collect();
        let digests: Vec<Vec<u8>> = leaves.into_iter().map(|(_, d)| d).collect();
        let mut levels = vec![base];
        while levels.last().map(Vec::len).unwrap_or(0) > 1 {
            let below = levels.last().expect("at least one level");
            let up: Vec<Vec<u8>> = below
                .chunks(2)
                .map(|pair| combine(alg, pair).to_vec())
                .collect();
            levels.push(up);
        }
        ShardTree {
            alg,
            oids,
            digests,
            levels,
        }
    }

    /// The well-defined root of an **empty** shard (the tagged empty
    /// hash), against which non-membership in an empty tree verifies.
    pub(crate) fn empty_root(alg: HashAlgorithm) -> Vec<u8> {
        alg.digest(EMPTY_TAG)
    }

    /// The shard's hash algorithm.
    pub fn alg(&self) -> HashAlgorithm {
        self.alg
    }

    /// Number of leaves (objects) in the shard.
    pub fn leaf_count(&self) -> u64 {
        self.oids.len() as u64
    }

    /// Levels above the leaves (`0` for an empty or single-object shard).
    pub fn depth(&self) -> u32 {
        (self.levels.len() as u32).saturating_sub(1)
    }

    /// The root hash. An empty shard has a well-defined root (the tagged
    /// empty hash) so "both empty" still compares as converged.
    pub fn root(&self) -> Vec<u8> {
        match self.levels.last().and_then(|l| l.first()) {
            Some(r) => r.clone(),
            None => self.alg.digest(EMPTY_TAG),
        }
    }

    /// The node hash at `(level, index)`, if in range.
    pub fn node(&self, level: u32, index: u64) -> Option<&[u8]> {
        self.levels
            .get(level as usize)?
            .get(index as usize)
            .map(Vec::as_slice)
    }

    /// The (1 or 2) child hashes of the node at `(level, index)`;
    /// empty at level 0.
    pub fn children(&self, level: u32, index: u64) -> Vec<Vec<u8>> {
        if level == 0 {
            return Vec::new();
        }
        let below = match self.levels.get(level as usize - 1) {
            Some(l) => l,
            None => return Vec::new(),
        };
        let base = (index as usize) * 2;
        below.iter().skip(base).take(2).cloned().collect()
    }

    /// The object at leaf `index`, if in range.
    pub(crate) fn leaf_oid(&self, index: u64) -> Option<ObjectId> {
        self.oids.get(index as usize).copied()
    }

    /// The history digest (leaf-hash preimage) at leaf `index`.
    pub(crate) fn leaf_digest(&self, index: u64) -> Option<&[u8]> {
        self.digests.get(index as usize).map(Vec::as_slice)
    }

    /// Where `oid` sits in the sorted leaf space: `Ok(index)` when
    /// present, `Err(insertion_point)` when absent — the two adjacent
    /// leaves around an insertion point are exactly a non-membership
    /// proof's witnesses.
    pub(crate) fn oid_position(&self, oid: ObjectId) -> Result<u64, u64> {
        self.oids
            .binary_search(&oid)
            .map(|i| i as u64)
            .map_err(|i| i as u64)
    }

    /// The authenticated sibling path from leaf `index` to the root: one
    /// entry per level below the root, `Some(sibling_hash)` when the node
    /// has a sibling at that level and `None` when it is an odd tail
    /// hashed alone. Verify with `ShardTree::verify_leaf_path`.
    pub fn leaf_path(&self, index: u64) -> Option<Vec<Option<Vec<u8>>>> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut path = Vec::with_capacity(self.depth() as usize);
        for level in 0..self.depth() {
            let idx = (index >> level) as usize;
            let sibling = idx ^ 1;
            path.push(self.levels[level as usize].get(sibling).cloned());
        }
        Some(path)
    }

    /// Recomputes the root a leaf hash and its sibling path fold up to,
    /// checking the path's **position** at every level: a `Some` sibling
    /// combines on the side `index` dictates, and a `None` entry is only
    /// legal where the tree shape for `leaf_count` really has an unpaired
    /// tail node. `None` when the path does not fit that shape. Every
    /// node of the fold is a [`Digest`] on the stack.
    pub(crate) fn fold_leaf_path<S: AsRef<[u8]>>(
        alg: HashAlgorithm,
        leaf_count: u64,
        index: u64,
        leaf: Digest,
        path: impl ExactSizeIterator<Item = Option<S>>,
    ) -> Option<Digest> {
        if index >= leaf_count {
            return None;
        }
        // Expected depth for this cardinality.
        let mut expected_depth = 0u32;
        let mut c = leaf_count;
        while c > 1 {
            c = c.div_ceil(2);
            expected_depth += 1;
        }
        if path.len() != expected_depth as usize {
            return None;
        }
        let mut h = leaf;
        let mut idx = index;
        let mut count = leaf_count;
        for sibling in path {
            h = match sibling {
                Some(sib) => {
                    let sib = sib.as_ref();
                    if idx.is_multiple_of(2) {
                        // A right sibling must actually exist at this level.
                        if idx + 1 >= count {
                            return None;
                        }
                        combine(alg, &[h.as_slice(), sib])
                    } else {
                        combine(alg, &[sib, h.as_slice()])
                    }
                }
                None => {
                    // Only the unpaired tail node may combine alone.
                    if !idx.is_multiple_of(2) || idx + 1 != count {
                        return None;
                    }
                    combine(alg, &[h])
                }
            };
            idx >>= 1;
            count = count.div_ceil(2);
        }
        Some(h)
    }

    /// `true` iff [`Self::fold_leaf_path`] lands on `root`.
    pub(crate) fn verify_leaf_path(
        alg: HashAlgorithm,
        root: &[u8],
        leaf_count: u64,
        index: u64,
        leaf: Digest,
        path: &[Option<Vec<u8>>],
    ) -> bool {
        Self::fold_leaf_path(
            alg,
            leaf_count,
            index,
            leaf,
            path.iter().map(Option::as_ref),
        )
        .is_some_and(|folded| folded == *root)
    }

    /// This shard's [`AeSummary`] (what a root exchange ships).
    pub fn summary(&self) -> AeSummary {
        AeSummary {
            leaf_count: self.leaf_count(),
            depth: self.depth(),
            root: self.root(),
        }
    }

    /// The [`AeNodeInfo`] a peer would answer for `(level, index)`, or
    /// `None` if out of range.
    pub fn node_info(&self, level: u32, index: u64) -> Option<AeNodeInfo> {
        let hash = self.node(level, index)?.to_vec();
        Some(AeNodeInfo {
            hash,
            children: self.children(level, index),
            oid: if level == 0 {
                self.leaf_oid(index)
            } else {
                None
            },
        })
    }
}

/// Builds the shard tree summarizing an entire provenance store: one
/// leaf per object id present in `db`, whose digest is the rolling
/// [`RecordStreamDigest`] over the object's stored records in sequence
/// order — the same digest the RESUME handshake proves positions with,
/// so a primary and a fully-caught-up replica build byte-identical
/// trees from their independent stores.
pub fn shard_tree_of(alg: HashAlgorithm, db: &ProvenanceDb) -> ShardTree {
    let mut scratch = Vec::new();
    let leaves = db
        .object_ids()
        .into_iter()
        .map(|oid| {
            let mut d = RecordStreamDigest::new(alg, oid);
            for row in db.records_for(oid) {
                d.push_row(&row, &mut scratch);
            }
            (oid, d.current().to_vec())
        })
        .collect();
    ShardTree::build(alg, leaves)
}

/// A shard's tree summary: the payload of the anti-entropy root exchange.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AeSummary {
    /// Leaves (objects) in the shard.
    pub leaf_count: u64,
    /// Levels above the leaves.
    pub depth: u32,
    /// Root hash.
    pub root: Vec<u8>,
}

/// One node of the remote tree, as presented during descent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AeNodeInfo {
    /// The node's own hash.
    pub hash: Vec<u8>,
    /// Its (1 or 2) child hashes; empty at leaf level.
    pub children: Vec<Vec<u8>>,
    /// At leaf level, the leaf's object — `None` for interior nodes.
    pub oid: Option<ObjectId>,
}

/// Anti-entropy transport/protocol failure (not evidence — a refusal or
/// broken connection, retryable by policy).
#[derive(Debug)]
pub enum AeError {
    /// The transport failed (socket error, peer refusal, decode failure).
    Transport(String),
    /// The peer answered with a structurally unusable response (missing
    /// node, wrong arity) that is not self-contradictory enough to be
    /// forgery evidence on its own.
    Protocol(String),
}

impl std::fmt::Display for AeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AeError::Transport(s) => write!(f, "anti-entropy transport error: {s}"),
            AeError::Protocol(s) => write!(f, "anti-entropy protocol error: {s}"),
        }
    }
}

impl std::error::Error for AeError {}

/// Where the remote tree's answers come from: wire frames (tep-net) or,
/// in tests, an in-process tree.
pub trait AeOracle {
    /// The peer's root exchange (one round trip).
    fn summary(&mut self) -> Result<AeSummary, AeError>;
    /// The peer's node at `(level, index)` (one round trip).
    fn node(&mut self, level: u32, index: u64) -> Result<AeNodeInfo, AeError>;
}

/// The verdict of one anti-entropy pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AeOutcome {
    /// Roots agree: the shards are record-digest identical.
    Converged {
        /// Round trips spent (always 1: the summary exchange).
        rounds: u64,
    },
    /// The shards hold different numbers of objects — benign lag, not
    /// evidence; the smaller side should catch up and re-run.
    CountMismatch {
        /// Local leaf count.
        local: u64,
        /// Remote leaf count.
        remote: u64,
        /// Round trips spent.
        rounds: u64,
    },
    /// Equal-cardinality shards disagree at a located leaf. The caller
    /// re-verifies both histories and attributes the divergence
    /// ([`TamperEvidence::ReplicaDivergence`](crate::verify::TamperEvidence)).
    Diverged {
        /// The divergent leaf's index.
        index: u64,
        /// The local object at that leaf.
        oid: ObjectId,
        /// The remote object at that leaf (differs from `oid` when the
        /// shards store different object sets of equal size).
        remote_oid: Option<ObjectId>,
        /// Round trips spent locating it.
        rounds: u64,
        /// Tree depth (the `log2 n` term of the bound).
        depth: u32,
    },
    /// The peer's answers are self-contradictory: children fail to
    /// recombine to a previously claimed parent, or the claimed shape is
    /// impossible. Forgery evidence regardless of whose data is right.
    Forged {
        /// Level of the node that fails authentication.
        level: u32,
        /// Its index within the level.
        index: u64,
        /// Round trips spent.
        rounds: u64,
    },
}

/// Compares `local` against the peer behind `oracle`, descending only
/// into mismatching subtrees.
///
/// Round-trip cost: 1 when converged; `depth + 2` at most when a single
/// leaf diverges (summary + one node per level + one leaf probe), i.e.
/// `≤ log2(n) + O(1)`.
pub fn locate_divergence(
    local: &ShardTree,
    oracle: &mut dyn AeOracle,
) -> Result<AeOutcome, AeError> {
    let mut rounds = 1u64;
    let remote = oracle.summary()?;
    if remote.leaf_count != local.leaf_count() {
        return Ok(AeOutcome::CountMismatch {
            local: local.leaf_count(),
            remote: remote.leaf_count,
            rounds,
        });
    }
    if remote.root == local.root() {
        return Ok(AeOutcome::Converged { rounds });
    }
    // Same leaf count ⇒ same shape: a peer claiming a different depth for
    // the same cardinality is structurally lying.
    if remote.depth != local.depth() {
        return Ok(AeOutcome::Forged {
            level: local.depth(),
            index: 0,
            rounds,
        });
    }

    let mut level = local.depth();
    let mut index = 0u64;
    let mut expected = remote.root;
    while level > 0 {
        let info = oracle.node(level, index)?;
        rounds += 1;
        if info.hash != expected || combine(local.alg, &info.children) != *info.hash {
            return Ok(AeOutcome::Forged {
                level,
                index,
                rounds,
            });
        }
        let base = index * 2;
        let mut next = None;
        for (k, child) in info.children.iter().enumerate() {
            if local.node(level - 1, base + k as u64) != Some(child.as_slice()) {
                next = Some((base + k as u64, child.clone()));
                break;
            }
        }
        match next {
            Some((i, h)) => {
                index = i;
                expected = h;
                level -= 1;
            }
            // Every presented child matches the local tree, yet the
            // parent differed: impossible for an honest peer.
            None => {
                return Ok(AeOutcome::Forged {
                    level,
                    index,
                    rounds,
                });
            }
        }
    }
    // One leaf probe confirms the divergent leaf and learns its oid.
    let leaf = oracle.node(0, index)?;
    rounds += 1;
    if leaf.hash != expected {
        return Ok(AeOutcome::Forged {
            level: 0,
            index,
            rounds,
        });
    }
    let oid = local
        .leaf_oid(index)
        .ok_or_else(|| AeError::Protocol(format!("local shard has no leaf {index}")))?;
    Ok(AeOutcome::Diverged {
        index,
        oid,
        remote_oid: leaf.oid,
        rounds,
        depth: local.depth(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    /// An [`AeOracle`] answering from a local [`ShardTree`] — the "remote"
    /// side of these tests, with zero transport cost.
    struct TreeOracle<'a> {
        tree: &'a ShardTree,
    }

    impl<'a> TreeOracle<'a> {
        /// Wraps `tree` as the remote peer.
        fn new(tree: &'a ShardTree) -> Self {
            TreeOracle { tree }
        }
    }

    impl AeOracle for TreeOracle<'_> {
        fn summary(&mut self) -> Result<AeSummary, AeError> {
            Ok(self.tree.summary())
        }

        fn node(&mut self, level: u32, index: u64) -> Result<AeNodeInfo, AeError> {
            self.tree
                .node_info(level, index)
                .ok_or_else(|| AeError::Protocol(format!("no node at level {level} index {index}")))
        }
    }

    fn shard(n: u64) -> Vec<(ObjectId, Vec<u8>)> {
        (0..n)
            .map(|i| (ObjectId(i + 1), ALG.digest(&i.to_be_bytes())))
            .collect()
    }

    #[test]
    fn combine_equals_the_streamed_node_hash_on_and_off_the_stack() {
        // Two SHA-256 digests fill the stack buffer exactly; a peer's third
        // child, or one longer digest, spills to the heap.
        let kids: Vec<Vec<u8>> = vec![vec![1; 32], vec![2; 32], vec![3; 32], vec![4; 33]];
        for children in [&kids[..0], &kids[..1], &kids[..2], &kids[..3], &kids[1..]] {
            let mut h = ALG.hasher();
            h.update(NODE_TAG);
            for c in children {
                h.update(c);
            }
            assert_eq!(combine(ALG, children).as_slice(), h.finalize());
        }
        assert_eq!(
            combine(ALG, &[&kids[0][..], &kids[3][..]]).as_slice(),
            ALG.digest(&[NODE_TAG, &kids[0], &kids[3]].concat())
        );
    }

    #[test]
    fn identical_shards_converge_in_one_round() {
        for n in [0u64, 1, 2, 3, 7, 8, 9, 100] {
            let a = ShardTree::build(ALG, shard(n));
            let b = ShardTree::build(ALG, shard(n));
            let mut oracle = TreeOracle::new(&b);
            assert_eq!(
                locate_divergence(&a, &mut oracle).unwrap(),
                AeOutcome::Converged { rounds: 1 },
                "n = {n}"
            );
        }
    }

    #[test]
    fn leaf_order_is_canonical() {
        let mut leaves = shard(9);
        leaves.reverse();
        let a = ShardTree::build(ALG, shard(9));
        let b = ShardTree::build(ALG, leaves);
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn single_divergence_located_at_every_position_within_bound() {
        for n in [1u64, 2, 3, 7, 8, 9, 33] {
            for pos in 0..n {
                let local = ShardTree::build(ALG, shard(n));
                let mut leaves = shard(n);
                leaves[pos as usize].1 = ALG.digest(b"tampered history");
                let remote = ShardTree::build(ALG, leaves);
                let mut oracle = TreeOracle::new(&remote);
                match locate_divergence(&local, &mut oracle).unwrap() {
                    AeOutcome::Diverged {
                        index,
                        oid,
                        rounds,
                        depth,
                        ..
                    } => {
                        assert_eq!(index, pos, "n = {n}");
                        assert_eq!(oid, ObjectId(pos + 1));
                        assert_eq!(depth, local.depth());
                        assert!(
                            rounds <= u64::from(local.depth()) + 2,
                            "n = {n} pos = {pos}: {rounds} rounds > depth {} + 2",
                            local.depth()
                        );
                    }
                    other => panic!("n = {n} pos = {pos}: expected divergence, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn differing_object_sets_diverge_with_remote_oid() {
        let local = ShardTree::build(ALG, shard(4));
        let mut leaves = shard(4);
        leaves[2].0 = ObjectId(99); // same digest, different object
        let remote = ShardTree::build(ALG, leaves);
        let mut oracle = TreeOracle::new(&remote);
        match locate_divergence(&local, &mut oracle).unwrap() {
            AeOutcome::Diverged {
                oid, remote_oid, ..
            } => {
                assert_eq!(oid, ObjectId(3));
                assert_eq!(remote_oid, Some(ObjectId(4)));
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn count_mismatch_is_lag_not_evidence() {
        let local = ShardTree::build(ALG, shard(3));
        let remote = ShardTree::build(ALG, shard(5));
        let mut oracle = TreeOracle::new(&remote);
        assert_eq!(
            locate_divergence(&local, &mut oracle).unwrap(),
            AeOutcome::CountMismatch {
                local: 3,
                remote: 5,
                rounds: 1
            }
        );
    }

    /// An oracle that forwards to a real tree but lies about one node's
    /// hash — the children it presents then cannot recombine to it.
    struct LyingOracle<'a> {
        inner: TreeOracle<'a>,
        lie_level: u32,
    }

    impl AeOracle for LyingOracle<'_> {
        fn summary(&mut self) -> Result<AeSummary, AeError> {
            let mut s = self.inner.summary()?;
            if self.lie_level == s.depth {
                s.root = ALG.digest(b"forged root");
            }
            Ok(s)
        }

        fn node(&mut self, level: u32, index: u64) -> Result<AeNodeInfo, AeError> {
            let mut info = self.inner.node(level, index)?;
            if level == self.lie_level {
                info.hash = ALG.digest(b"forged node");
            }
            Ok(info)
        }
    }

    #[test]
    fn forged_root_or_node_fails_self_authentication_at_every_level() {
        // The remote genuinely diverges at leaf 0, so the descent walks
        // the leftmost path — and meets the lie at whichever level it
        // was planted on.
        let local = ShardTree::build(ALG, shard(8));
        let mut leaves = shard(8);
        leaves[0].1 = ALG.digest(b"tampered");
        let remote = ShardTree::build(ALG, leaves);
        for lie_level in 0..=local.depth() {
            let mut oracle = LyingOracle {
                inner: TreeOracle::new(&remote),
                lie_level,
            };
            match locate_divergence(&local, &mut oracle).unwrap() {
                AeOutcome::Forged { .. } => {}
                other => panic!("lie at level {lie_level} undetected: {other:?}"),
            }
        }
    }

    #[test]
    fn hundred_k_shard_locates_divergence_in_log_rounds() {
        let n = 100_000u64;
        let local = ShardTree::build(ALG, shard(n));
        let mut leaves = shard(n);
        leaves[(n / 2) as usize].1 = ALG.digest(b"flip");
        let remote = ShardTree::build(ALG, leaves);
        let mut oracle = TreeOracle::new(&remote);
        match locate_divergence(&local, &mut oracle).unwrap() {
            AeOutcome::Diverged { rounds, depth, .. } => {
                assert_eq!(depth, 17); // ceil(log2(100_000))
                assert!(rounds <= 19, "{rounds} rounds exceeds log2(n) + 2");
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }
}
