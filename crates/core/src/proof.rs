//! Merkle inclusion proofs over compound-object hashes.
//!
//! The recursive subtree hash of §4.3 is a Merkle tree, which buys more
//! than cheap recomputation: a participant can prove that **one cell**
//! belongs to a signed database state — e.g. the `h(subtree(A))` bound into
//! a provenance checksum — by shipping only the root-path and sibling
//! hashes, without revealing or transferring the rest of the tree.
//!
//! A [`SubtreeProof`] carries, for each node on the path from the target to
//! the proven root: the node's canonical prefix (binding its id and value)
//! and the sibling child-hashes on either side of the path child. Verifying
//! folds the target hash back up and compares against the trusted root
//! hash. Soundness rests on the hash function: fabricating any step
//! requires a collision.

use crate::error::CoreError;
use crate::hashing::HashCache;
use std::fmt;
use tep_crypto::digest::HashAlgorithm;
use tep_model::codec_structs;
use tep_model::encode::{node_prefix, List};
use tep_model::{Forest, ModelError, ObjectId, Value};

/// Magic prefix of the [`SubtreeProof`] encoding.
const PROOF_MAGIC: &[u8] = b"TEPPROOF\x01";

codec_structs! {
    /// One level of a [`SubtreeProof`]: a node on the path from the target to
    /// the root.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ProofStep {
        /// The path node's id.
        pub node: ObjectId,
        /// Canonical `node_prefix(id, value)` bytes of the path node.
        pub prefix: Vec<u8>,
        /// Subtree hashes of siblings ordered **before** the path child.
        pub before: Vec<Vec<u8>> as List<8, Vec<u8>>,
        /// Subtree hashes of siblings ordered **after** the path child.
        pub after: Vec<Vec<u8>> as List<8, Vec<u8>>,
    }

    /// An inclusion proof: `target`'s subtree hash is contained in the proven
    /// root's subtree hash. Its bytes are what ships to recipients.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SubtreeProof magic PROOF_MAGIC impl to_bytes, from_bytes {
        /// Hash algorithm the tree uses.
        pub alg: HashAlgorithm,
        /// The object whose inclusion is proven.
        pub target: ObjectId,
        /// The proven root.
        pub root: ObjectId,
        /// Path steps from the target's parent up to (and including) the root.
        pub steps: Vec<ProofStep> as List<8, ProofStep>,
    }
}

/// Why proof verification failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// Recomputed root hash does not match the trusted one.
    RootMismatch,
    /// The claimed target value does not hash to the proof's starting point.
    ValueMismatch,
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::RootMismatch => write!(f, "proof does not fold to the trusted root hash"),
            ProofError::ValueMismatch => write!(f, "claimed value does not match the proof target"),
        }
    }
}

impl std::error::Error for ProofError {}

/// Builds an inclusion proof for `target` under `root`.
///
/// `cache` supplies (and memoizes) the sibling subtree hashes.
pub fn prove(
    forest: &Forest,
    cache: &mut HashCache,
    root: ObjectId,
    target: ObjectId,
) -> Result<SubtreeProof, CoreError> {
    forest.get(target).map_err(CoreError::Model)?;
    forest.get(root).map_err(CoreError::Model)?;
    if target != root && !forest.ancestors(target).contains(&root) {
        return Err(CoreError::Model(ModelError::UnknownObject(target)));
    }

    let alg = cache.algorithm();
    let mut steps = Vec::new();
    let mut child = target;
    while child != root {
        let parent = forest
            .node(child)
            .and_then(|n| n.parent())
            .expect("child below root has a parent");
        let pnode = forest.get(parent).map_err(CoreError::Model)?;
        let mut before = Vec::new();
        let mut after = Vec::new();
        let mut seen_child = false;
        for c in pnode.children() {
            if c == child {
                seen_child = true;
            } else {
                let h = cache.get_or_compute(forest, c);
                if seen_child {
                    after.push(h);
                } else {
                    before.push(h);
                }
            }
        }
        steps.push(ProofStep {
            node: parent,
            prefix: node_prefix(parent, pnode.value()),
            before,
            after,
        });
        child = parent;
    }

    Ok(SubtreeProof {
        target,
        root,
        alg,
        steps,
    })
}

impl SubtreeProof {
    /// Folds the proof from `target_hash` up and checks it against the
    /// trusted `root_hash`.
    pub(crate) fn verify_hash(
        &self,
        target_hash: &[u8],
        root_hash: &[u8],
    ) -> Result<(), ProofError> {
        let mut h = target_hash.to_vec();
        for step in &self.steps {
            let mut hasher = self.alg.hasher();
            hasher.update(&step.prefix);
            let mut count = 0u64;
            for sib in &step.before {
                hasher.update(sib);
                count += 1;
            }
            hasher.update(&h);
            count += 1;
            for sib in &step.after {
                hasher.update(sib);
                count += 1;
            }
            hasher.update(&count.to_be_bytes());
            h = hasher.finalize();
        }
        if h == root_hash {
            Ok(())
        } else {
            Err(ProofError::RootMismatch)
        }
    }

    /// Verifies that leaf `target` holds `value` under `root_hash`.
    ///
    /// Recomputes the leaf hash from the claimed `(id, value)` pair, so a
    /// verifier needs nothing but the trusted root hash and this proof.
    pub fn verify_leaf_value(&self, value: &Value, root_hash: &[u8]) -> Result<(), ProofError> {
        let leaf_hash = crate::streaming::leaf_hash(self.alg, self.target, value);
        self.verify_hash(&leaf_hash, root_hash)
            .map_err(|_| ProofError::ValueMismatch)
    }

    /// Total sibling hashes carried (proof size metric).
    pub fn sibling_count(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.before.len() + s.after.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::subtree_hash;
    use tep_model::relational;

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    fn table() -> (Forest, ObjectId, relational::TableHandle) {
        let mut f = Forest::new();
        let root = relational::create_root(&mut f, "db");
        let th = relational::build_table(&mut f, root, "t", 10, 4, |r, a| {
            Value::Int((r * 10 + a) as i64)
        })
        .unwrap();
        (f, root, th)
    }

    #[test]
    fn leaf_proof_verifies_value() {
        let (f, root, th) = table();
        let mut cache = HashCache::new(ALG);
        let root_hash = cache.get_or_compute(&f, root);
        let cell = th.rows[3].cells[2];

        let proof = prove(&f, &mut cache, root, cell).unwrap();
        assert_eq!(proof.steps.len(), 3); // row, table, root
        proof
            .verify_leaf_value(&Value::Int(32), &root_hash)
            .unwrap();
        // Wrong value rejected.
        assert_eq!(
            proof.verify_leaf_value(&Value::Int(33), &root_hash),
            Err(ProofError::ValueMismatch)
        );
    }

    #[test]
    fn interior_node_proof_verifies_subtree_hash() {
        let (f, root, th) = table();
        let mut cache = HashCache::new(ALG);
        let root_hash = cache.get_or_compute(&f, root);
        let row = th.rows[7].id;
        let row_hash = subtree_hash(ALG, &f, row);

        let proof = prove(&f, &mut cache, root, row).unwrap();
        proof.verify_hash(&row_hash, &root_hash).unwrap();
        // A different row's hash does not fit this proof's position.
        let other = subtree_hash(ALG, &f, th.rows[2].id);
        assert!(proof.verify_hash(&other, &root_hash).is_err());
    }

    #[test]
    fn proof_against_stale_root_fails() {
        let (mut f, root, th) = table();
        let mut cache = HashCache::new(ALG);
        let old_root_hash = cache.get_or_compute(&f, root);
        let cell = th.rows[0].cells[0];
        let proof = prove(&f, &mut cache, root, cell).unwrap();

        // Mutate an unrelated cell: the root hash changes, the proof no
        // longer folds to it.
        f.update(th.rows[9].cells[3], Value::Int(999)).unwrap();
        let mut fresh = HashCache::new(ALG);
        let new_root_hash = fresh.get_or_compute(&f, root);
        assert_ne!(old_root_hash, new_root_hash);
        assert!(proof
            .verify_leaf_value(&Value::Int(0), &new_root_hash)
            .is_err());
        // Against the old (signed) root it still verifies — proofs pin a
        // specific state, which is exactly what checksums sign.
        proof
            .verify_leaf_value(&Value::Int(0), &old_root_hash)
            .unwrap();
    }

    #[test]
    fn tampered_proof_steps_rejected() {
        let (f, root, th) = table();
        let mut cache = HashCache::new(ALG);
        let root_hash = cache.get_or_compute(&f, root);
        let cell = th.rows[1].cells[1];
        let clean = prove(&f, &mut cache, root, cell).unwrap();

        // Flip a sibling hash bit.
        let mut p = clean.clone();
        p.steps[0].before[0][0] ^= 1;
        assert!(p.verify_leaf_value(&Value::Int(11), &root_hash).is_err());

        // Corrupt a node prefix.
        let mut p = clean.clone();
        let last = p.steps.len() - 1;
        p.steps[last].prefix[1] ^= 1;
        assert!(p.verify_leaf_value(&Value::Int(11), &root_hash).is_err());

        // Drop a step.
        let mut p = clean.clone();
        p.steps.remove(1);
        assert!(p.verify_leaf_value(&Value::Int(11), &root_hash).is_err());

        // Reorder siblings (move one from before to after).
        let mut p = clean;
        if let Some(s) = p.steps[1].before.pop() {
            p.steps[1].after.insert(0, s);
            assert!(p.verify_leaf_value(&Value::Int(11), &root_hash).is_err());
        }
    }

    #[test]
    fn proof_size_is_logarithmic_ish() {
        // Depth-4 relational tree: siblings per level, not whole-tree.
        let (f, root, th) = table();
        let mut cache = HashCache::new(ALG);
        cache.get_or_compute(&f, root);
        let proof = prove(&f, &mut cache, root, th.rows[0].cells[0]).unwrap();
        // 3 sibling cells + 9 sibling rows + 0 sibling tables = 12,
        // versus 55 nodes in the full tree.
        assert_eq!(proof.sibling_count(), 12);
    }

    #[test]
    fn proof_bytes_roundtrip() {
        let (f, root, th) = table();
        let mut cache = HashCache::new(ALG);
        let root_hash = cache.get_or_compute(&f, root);
        let cell = th.rows[5].cells[0];
        let proof = prove(&f, &mut cache, root, cell).unwrap();
        let bytes = proof.to_bytes();
        let back = SubtreeProof::from_bytes(&bytes).unwrap();
        assert_eq!(back, proof);
        back.verify_leaf_value(&Value::Int(50), &root_hash).unwrap();
        // Corruption rejected or fails verification — never accepted.
        assert!(SubtreeProof::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(SubtreeProof::from_bytes(b"junk").is_err());
    }

    #[test]
    fn prove_rejects_non_descendants() {
        let (mut f, root, th) = table();
        let stranger = f.insert(Value::Int(1), None).unwrap();
        let mut cache = HashCache::new(ALG);
        assert!(prove(&f, &mut cache, root, stranger).is_err());
        assert!(prove(&f, &mut cache, root, ObjectId(9999)).is_err());
        // Target == root is the degenerate valid case.
        let proof = prove(&f, &mut cache, root, root).unwrap();
        assert!(proof.steps.is_empty());
        let rh = cache.get_or_compute(&f, root);
        proof.verify_hash(&rh, &rh).unwrap();
        let _ = th;
    }
}
