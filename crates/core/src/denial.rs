//! Authenticated denial: signed non-membership and completeness proofs.
//!
//! The paper makes tampering with *present* records evident; a server can
//! still lie by **omission** — "no such entry" is unfalsifiable, and a
//! range answer can silently withhold a match. This module closes both
//! gaps on top of the [`ShardTree`](crate::merkle::ShardTree) over the
//! sorted object-ID space:
//!
//! * a **non-membership proof** ([`DenialProof`]) shows the two leaves
//!   adjacent to where an absent ID *would* sort, each carrying an
//!   authenticated sibling path to the root — since leaves are sorted and
//!   the paths pin their positions, adjacent leaves straddling the ID
//!   prove no leaf between them exists;
//! * a **completeness proof** ([`RangeProof`]) shows a contiguous run of
//!   leaves covering an ID range plus the straddling boundary leaves —
//!   any withheld match would have to occupy one of the proven positions;
//! * a [`SignedRoot`] binds either proof to a server identity: the root,
//!   shape, and a monotonic `log_records` high-water mark are signed by
//!   the serving participant, so a forged proof is *attributable* and a
//!   pre-compaction stale root is detectable by replicas.
//!
//! Verification failures are typed ([`DenialFault`]) so the caller can
//! attribute the right evidence kind: a proof that does not verify is
//! `ForgedDenial`, a range answer that omits a proven member is
//! `IncompleteResponse` (see `crate::verify`).

use crate::merkle::{leaf_hash, ShardTree};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{KeyDirectory, Participant};
use tep_model::codec_structs;
use tep_model::encode::{Framed, List};
use tep_model::{ObjectId, ParticipantId};

/// Domain separator for root signatures.
const ROOT_SIGN_TAG: &[u8] = b"tep-root-sign\x01";

/// Why a denial or completeness proof failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DenialFault {
    /// The root signature does not verify against the claimed signer.
    BadRootSignature,
    /// A witness leaf's sibling path does not recombine to the signed
    /// root at its claimed position.
    BadPath,
    /// The witnesses are not adjacent leaves (a leaf could hide between
    /// them).
    NotAdjacent,
    /// Leaf object IDs violate sorted order relative to the claim.
    OrderViolation,
    /// A boundary witness is missing where the shape requires one (e.g.
    /// no predecessor presented but the successor is not leaf 0).
    MissingWitness,
    /// The proof bytes do not decode.
    Malformed,
}

impl std::fmt::Display for DenialFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DenialFault::BadRootSignature => write!(f, "root signature does not verify"),
            DenialFault::BadPath => write!(f, "sibling path fails authentication"),
            DenialFault::NotAdjacent => write!(f, "witness leaves are not adjacent"),
            DenialFault::OrderViolation => write!(f, "leaf order contradicts the claim"),
            DenialFault::MissingWitness => write!(f, "required boundary witness missing"),
            DenialFault::Malformed => write!(f, "proof bytes do not decode"),
        }
    }
}

codec_structs! {
    /// One witness leaf: its position, identity, history digest (the
    /// leaf-hash preimage) and authenticated sibling path to the root.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct DenialLeaf {
        /// The leaf's index in the sorted leaf space.
        pub index: u64,
        /// The object stored at that leaf.
        pub oid: ObjectId,
        /// The object's record-history digest (leaf-hash preimage).
        pub digest: Vec<u8>,
        /// Sibling hash per level below the root (`None` = unpaired tail);
        /// a path longer than 64 levels is impossible for a u64 ID space.
        pub path: Vec<Option<Vec<u8>>> as List<4, Option<Vec<u8>>, 64>,
    }

    /// A non-membership ("gap") proof for one absent object ID.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct DenialProof impl to_bytes, from_bytes {
        /// The ID claimed absent.
        pub absent: ObjectId,
        /// The greatest leaf below `absent` (`None` when `absent` sorts
        /// before the whole shard).
        pub pred: Option<DenialLeaf>,
        /// The least leaf above `absent` (`None` when `absent` sorts after
        /// the whole shard).
        pub succ: Option<DenialLeaf>,
    }

    /// A completeness proof for an inclusive object-ID range: every member is
    /// presented with an authenticated path, the members are contiguous in
    /// the leaf space, and boundary witnesses straddle the range — no
    /// qualifying leaf can have been withheld.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct RangeProof impl to_bytes, from_bytes {
        /// Inclusive lower bound of the claimed range.
        pub lo: ObjectId,
        /// Inclusive upper bound.
        pub hi: ObjectId,
        /// Every leaf whose object falls in `[lo, hi]`, in leaf order.
        pub members: Vec<DenialLeaf> as List<4, DenialLeaf>,
        /// The greatest leaf below `lo` (`None` when the members start at
        /// leaf 0).
        pub pred: Option<DenialLeaf>,
        /// The least leaf above `hi` (`None` when the members end the shard).
        pub succ: Option<DenialLeaf>,
    }

    /// A shard root signed by the serving participant: the trust anchor every
    /// denial and completeness proof hangs off, carrying a monotonic
    /// `log_records` high-water mark so a rolled-back (pre-compaction, stale)
    /// root is detectable by anyone who has seen a fresher one.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SignedRoot impl to_bytes, from_bytes {
        /// Hash algorithm of the tree.
        pub alg: HashAlgorithm,
        /// The shard root hash.
        pub root: Vec<u8>,
        /// Leaves under the root.
        pub leaf_count: u64,
        /// Tree depth (levels above the leaves).
        pub depth: u32,
        /// Cumulative records appended when the root was signed — monotonic;
        /// a peer presenting a *lower* value than previously attested is
        /// serving a stale (pre-compaction rollback) view.
        pub log_records: u64,
        /// Who signed.
        pub signer: ParticipantId,
        /// Signature over the domain-tagged root statement.
        pub sig: Vec<u8>,
    }

    /// A denial proof bundled with the signed root it verifies against —
    /// what a NOT_FOUND wire response actually carries: the root, then the
    /// proof, each length-prefixed.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SignedDenial impl to_bytes, from_bytes {
        /// The serving participant's signed shard root.
        pub root: SignedRoot as Framed<SignedRoot>,
        /// The gap proof under that root.
        pub proof: DenialProof as Framed<DenialProof>,
    }

    /// A completeness proof bundled with its signed root — what a range/query
    /// response carries alongside the actual records: the root, then the
    /// proof, each length-prefixed.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SignedRange impl to_bytes, from_bytes {
        /// The serving participant's signed shard root.
        pub root: SignedRoot as Framed<SignedRoot>,
        /// The completeness proof under that root.
        pub proof: RangeProof as Framed<RangeProof>,
    }
}

impl DenialLeaf {
    /// Extracts the witness for leaf `index` of `tree`.
    pub fn witness(tree: &ShardTree, index: u64) -> Option<DenialLeaf> {
        Some(DenialLeaf {
            index,
            oid: tree.leaf_oid(index)?,
            digest: tree.leaf_digest(index)?.to_vec(),
            path: tree.leaf_path(index)?,
        })
    }

    /// Checks this witness against a root: recomputes the leaf hash from
    /// `(oid, digest)` — binding the claimed identity — and verifies the
    /// positional sibling path.
    pub fn check(&self, alg: HashAlgorithm, root: &[u8], leaf_count: u64) -> bool {
        let leaf = leaf_hash(alg, self.oid, &self.digest);
        ShardTree::verify_leaf_path(alg, root, leaf_count, self.index, leaf, &self.path)
    }
}

impl DenialProof {
    /// Builds the gap proof for `oid` from `tree`, or `None` when the
    /// object is present (a present ID has no honest denial).
    pub fn prove(tree: &ShardTree, oid: ObjectId) -> Option<DenialProof> {
        let insertion = match tree.oid_position(oid) {
            Ok(_) => return None,
            Err(i) => i,
        };
        let pred = insertion
            .checked_sub(1)
            .and_then(|i| DenialLeaf::witness(tree, i));
        let succ = if insertion < tree.leaf_count() {
            DenialLeaf::witness(tree, insertion)
        } else {
            None
        };
        Some(DenialProof {
            absent: oid,
            pred,
            succ,
        })
    }

    /// The gap claim as what it is: a completeness proof for
    /// `[absent, absent]` with no members. No member is presented, so none
    /// can be proven — the range check passing *is* the gap claim.
    pub(crate) fn gap(&self) -> RangeProof {
        RangeProof {
            lo: self.absent,
            hi: self.absent,
            members: Vec::new(),
            pred: self.pred.clone(),
            succ: self.succ.clone(),
        }
    }

    /// Verifies the gap claim against a root: the witnesses authenticate
    /// at their positions, are adjacent (or pin a shard edge), and
    /// straddle `absent`.
    pub fn check(
        &self,
        alg: HashAlgorithm,
        root: &[u8],
        leaf_count: u64,
    ) -> Result<(), DenialFault> {
        self.gap().check(alg, root, leaf_count).map(drop)
    }
}

impl RangeProof {
    /// Builds the completeness proof for `[lo, hi]` from `tree`.
    pub fn prove(tree: &ShardTree, lo: ObjectId, hi: ObjectId) -> RangeProof {
        let start = match tree.oid_position(lo) {
            Ok(i) | Err(i) => i,
        };
        let mut members = Vec::new();
        let mut at = start;
        while let Some(oid) = tree.leaf_oid(at) {
            if oid > hi {
                break;
            }
            members.push(DenialLeaf::witness(tree, at).expect("in-range leaf"));
            at += 1;
        }
        let pred = start
            .checked_sub(1)
            .and_then(|i| DenialLeaf::witness(tree, i));
        let succ = if at < tree.leaf_count() {
            DenialLeaf::witness(tree, at)
        } else {
            None
        };
        RangeProof {
            lo,
            hi,
            members,
            pred,
            succ,
        }
    }

    /// Verifies completeness against a root and returns the proven member
    /// set — the caller cross-checks it against whatever the server
    /// actually answered (an answer missing a proven member, or a proof
    /// missing a leaf the boundaries require, is an omission).
    pub fn check(
        &self,
        alg: HashAlgorithm,
        root: &[u8],
        leaf_count: u64,
    ) -> Result<Vec<ObjectId>, DenialFault> {
        if self.lo > self.hi {
            return Err(DenialFault::OrderViolation);
        }
        if leaf_count == 0 {
            if self.pred.is_some() || self.succ.is_some() || !self.members.is_empty() {
                return Err(DenialFault::MissingWitness);
            }
            if root != ShardTree::empty_root(alg) {
                return Err(DenialFault::BadPath);
            }
            return Ok(Vec::new());
        }

        // Establish the contiguous index run the proof must cover.
        let first = match &self.pred {
            Some(pred) => {
                if !pred.check(alg, root, leaf_count) {
                    return Err(DenialFault::BadPath);
                }
                if pred.oid >= self.lo {
                    return Err(DenialFault::OrderViolation);
                }
                pred.index + 1
            }
            None => 0,
        };
        let mut at = first;
        let mut prev_oid: Option<ObjectId> = self.pred.as_ref().map(|p| p.oid);
        for m in &self.members {
            if m.index != at {
                return Err(DenialFault::NotAdjacent);
            }
            if !m.check(alg, root, leaf_count) {
                return Err(DenialFault::BadPath);
            }
            if m.oid < self.lo || m.oid > self.hi {
                return Err(DenialFault::OrderViolation);
            }
            if prev_oid.is_some_and(|p| p >= m.oid) {
                return Err(DenialFault::OrderViolation);
            }
            prev_oid = Some(m.oid);
            at += 1;
        }
        match &self.succ {
            Some(succ) => {
                if succ.index != at {
                    return Err(DenialFault::NotAdjacent);
                }
                if !succ.check(alg, root, leaf_count) {
                    return Err(DenialFault::BadPath);
                }
                if succ.oid <= self.hi {
                    return Err(DenialFault::OrderViolation);
                }
                if prev_oid.is_some_and(|p| p >= succ.oid) {
                    return Err(DenialFault::OrderViolation);
                }
            }
            None => {
                // Without a successor the members must run to the end of
                // the shard — otherwise a leaf after them could qualify.
                if at != leaf_count {
                    return Err(DenialFault::MissingWitness);
                }
            }
        }
        Ok(self.members.iter().map(|m| m.oid).collect())
    }
}

impl SignedRoot {
    fn message(
        alg: HashAlgorithm,
        root: &[u8],
        leaf_count: u64,
        depth: u32,
        log_records: u64,
    ) -> Vec<u8> {
        let mut m = Vec::with_capacity(ROOT_SIGN_TAG.len() + 29 + root.len());
        m.extend_from_slice(ROOT_SIGN_TAG);
        m.push(alg.wire_id());
        m.extend_from_slice(&leaf_count.to_be_bytes());
        m.extend_from_slice(&depth.to_be_bytes());
        m.extend_from_slice(&log_records.to_be_bytes());
        m.extend_from_slice(&(root.len() as u64).to_be_bytes());
        m.extend_from_slice(root);
        m
    }

    /// Signs `tree`'s root with `signer`.
    pub fn sign(
        tree: &ShardTree,
        log_records: u64,
        signer: &Participant,
    ) -> Result<SignedRoot, crate::error::CoreError> {
        let alg = tree.alg();
        let root = tree.root();
        let leaf_count = tree.leaf_count();
        let depth = tree.depth();
        let msg = Self::message(alg, &root, leaf_count, depth, log_records);
        let sig = signer
            .sign(alg, &msg)
            .map_err(crate::error::CoreError::Rsa)?;
        Ok(SignedRoot {
            alg,
            root,
            leaf_count,
            depth,
            log_records,
            signer: signer.id(),
            sig,
        })
    }

    /// Verifies the signature against the key directory.
    pub fn verify(&self, keys: &KeyDirectory) -> bool {
        let msg = Self::message(
            self.alg,
            &self.root,
            self.leaf_count,
            self.depth,
            self.log_records,
        );
        keys.verify_signature(self.signer, self.alg, &msg, &self.sig)
            .is_ok()
    }
}

impl SignedDenial {
    /// Full verification: root signature, then the gap proof under it.
    pub fn check(&self, keys: &KeyDirectory) -> Result<(), DenialFault> {
        if !self.root.verify(keys) {
            return Err(DenialFault::BadRootSignature);
        }
        self.proof
            .check(self.root.alg, &self.root.root, self.root.leaf_count)
    }
}

impl SignedRange {
    /// Full verification: root signature, then completeness; returns the
    /// proven member set.
    pub fn check(&self, keys: &KeyDirectory) -> Result<Vec<ObjectId>, DenialFault> {
        if !self.root.verify(keys) {
            return Err(DenialFault::BadRootSignature);
        }
        self.proof
            .check(self.root.alg, &self.root.root, self.root.leaf_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tep_crypto::pki::CertificateAuthority;

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    fn tree(ids: &[u64]) -> ShardTree {
        ShardTree::build(
            ALG,
            ids.iter()
                .map(|&i| (ObjectId(i), ALG.digest(&i.to_be_bytes())))
                .collect(),
        )
    }

    fn pki() -> (KeyDirectory, Participant) {
        let mut rng = StdRng::seed_from_u64(7);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let p = ca.enroll(ParticipantId(1), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        keys.register(p.certificate().clone()).unwrap();
        (keys, p)
    }

    #[test]
    fn leaf_paths_authenticate_at_every_position_and_size() {
        for n in [1u64, 2, 3, 4, 5, 7, 8, 9, 33, 100] {
            let t = tree(&(1..=n).collect::<Vec<_>>());
            let root = t.root();
            for i in 0..n {
                let leaf = DenialLeaf::witness(&t, i).unwrap();
                assert!(leaf.check(ALG, &root, n), "n={n} i={i}");
                // Wrong position fails.
                let mut moved = leaf.clone();
                moved.index = (i + 1) % n;
                if n > 1 {
                    assert!(!moved.check(ALG, &root, n), "n={n} i={i} moved");
                }
                // Claiming a different oid with the same path fails.
                let mut relabeled = leaf.clone();
                relabeled.oid = ObjectId(999);
                assert!(!relabeled.check(ALG, &root, n), "n={n} i={i} relabel");
            }
        }
    }

    #[test]
    fn absent_ids_prove_and_verify_everywhere() {
        let ids = [2u64, 4, 6, 8, 10];
        let t = tree(&ids);
        let root = t.root();
        for absent in [1u64, 3, 5, 7, 9, 11, 100] {
            let proof = DenialProof::prove(&t, ObjectId(absent)).unwrap();
            proof
                .check(ALG, &root, t.leaf_count())
                .unwrap_or_else(|f| panic!("absent={absent}: {f}"));
        }
        // Present IDs have no denial.
        for present in ids {
            assert!(DenialProof::prove(&t, ObjectId(present)).is_none());
        }
    }

    #[test]
    fn empty_tree_denies_everything() {
        let t = tree(&[]);
        let proof = DenialProof::prove(&t, ObjectId(5)).unwrap();
        assert!(proof.pred.is_none() && proof.succ.is_none());
        proof.check(ALG, &t.root(), 0).unwrap();
        // …but only under the genuine empty root.
        assert_eq!(
            proof.check(ALG, &ALG.digest(b"fake"), 0),
            Err(DenialFault::BadPath)
        );
    }

    #[test]
    fn non_adjacent_witnesses_rejected() {
        let t = tree(&[2, 4, 6, 8]);
        let root = t.root();
        // Honest proof for 5 uses leaves 1 and 2; widen the gap to 1..3.
        let mut proof = DenialProof::prove(&t, ObjectId(5)).unwrap();
        proof.succ = DenialLeaf::witness(&t, 3);
        assert_eq!(
            proof.check(ALG, &root, t.leaf_count()),
            Err(DenialFault::NotAdjacent)
        );
    }

    #[test]
    fn dropped_witnesses_rejected() {
        let t = tree(&[2, 4, 6]);
        let (root, n) = (t.root(), t.leaf_count());
        // Every honest shape minus a witness leaves a hole a leaf could
        // hide in.
        for absent in [1u64, 5, 7] {
            let honest = DenialProof::prove(&t, ObjectId(absent)).unwrap();
            for (pred, succ) in [(None, honest.succ.clone()), (honest.pred.clone(), None)] {
                let cut = DenialProof {
                    absent: ObjectId(absent),
                    pred,
                    succ,
                };
                if cut != honest {
                    assert!(cut.check(ALG, &root, n).is_err(), "absent={absent}");
                }
            }
        }
        // …and an empty shard admits no witnesses at all.
        let empty = tree(&[]);
        let mut proof = DenialProof::prove(&empty, ObjectId(1)).unwrap();
        proof.succ = DenialLeaf::witness(&t, 0);
        assert_eq!(
            proof.check(ALG, &empty.root(), 0),
            Err(DenialFault::MissingWitness)
        );
    }

    #[test]
    fn denial_of_present_id_rejected() {
        let t = tree(&[2, 4, 6]);
        let root = t.root();
        // Forge: claim 4 absent using the honest witnesses around 3.
        let mut proof = DenialProof::prove(&t, ObjectId(3)).unwrap();
        proof.absent = ObjectId(4);
        assert_eq!(
            proof.check(ALG, &root, t.leaf_count()),
            Err(DenialFault::OrderViolation)
        );
    }

    #[test]
    fn range_proofs_are_complete_and_ordered() {
        let t = tree(&[2, 4, 6, 8, 10]);
        let root = t.root();
        let cases: [(u64, u64, &[u64]); 6] = [
            (3, 9, &[4, 6, 8]),
            (2, 10, &[2, 4, 6, 8, 10]),
            (1, 1, &[]),
            (11, 20, &[]),
            (4, 4, &[4]),
            (0, 100, &[2, 4, 6, 8, 10]),
        ];
        for (lo, hi, want) in cases {
            let proof = RangeProof::prove(&t, ObjectId(lo), ObjectId(hi));
            let members = proof
                .check(ALG, &root, t.leaf_count())
                .unwrap_or_else(|f| panic!("[{lo},{hi}]: {f}"));
            let want: Vec<ObjectId> = want.iter().map(|&i| ObjectId(i)).collect();
            assert_eq!(members, want, "[{lo},{hi}]");
        }
    }

    #[test]
    fn withheld_range_member_is_caught() {
        let t = tree(&[2, 4, 6, 8, 10]);
        let root = t.root();
        let mut proof = RangeProof::prove(&t, ObjectId(3), ObjectId(9));
        // Server withholds the middle match (6).
        proof.members.retain(|m| m.oid != ObjectId(6));
        assert_eq!(
            proof.check(ALG, &root, t.leaf_count()),
            Err(DenialFault::NotAdjacent)
        );
        // Withholding the last match breaks the successor adjacency too.
        let mut proof = RangeProof::prove(&t, ObjectId(3), ObjectId(9));
        proof.members.pop();
        assert_eq!(
            proof.check(ALG, &root, t.leaf_count()),
            Err(DenialFault::NotAdjacent)
        );
    }

    #[test]
    fn signed_root_and_bundles_roundtrip_and_verify() {
        let (keys, p) = pki();
        let t = tree(&[1, 3, 5]);
        let signed = SignedRoot::sign(&t, 42, &p).unwrap();
        assert!(signed.verify(&keys));
        assert_eq!(SignedRoot::from_bytes(&signed.to_bytes()).unwrap(), signed);

        let denial = SignedDenial {
            root: signed.clone(),
            proof: DenialProof::prove(&t, ObjectId(2)).unwrap(),
        };
        denial.check(&keys).unwrap();
        assert_eq!(
            SignedDenial::from_bytes(&denial.to_bytes()).unwrap(),
            denial
        );

        let range = SignedRange {
            root: signed.clone(),
            proof: RangeProof::prove(&t, ObjectId(2), ObjectId(4)),
        };
        assert_eq!(range.check(&keys).unwrap(), vec![ObjectId(3)]);
        assert_eq!(SignedRange::from_bytes(&range.to_bytes()).unwrap(), range);

        // Tampering with the signed statement invalidates the bundle.
        let mut stale = denial.clone();
        stale.root.log_records = 41;
        assert_eq!(stale.check(&keys), Err(DenialFault::BadRootSignature));
    }
}
