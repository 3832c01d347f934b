//! Provenance integrity for **atomic objects** (§3 of the paper).
//!
//! [`AtomicLedger`] is the standalone form of the scheme for databases of
//! plain `(id, value)` objects — no tree structure, hashes computed as
//! `h(A, val)` — supporting linear chains (insert/update) and non-linear
//! DAGs (aggregate). It reproduces Figure 3's worked example exactly,
//! including aggregation of *historical* versions (Figure 2 aggregates the
//! original value of `A` after `A` had already been updated).
//!
//! The full compound-object scheme (§4) lives in
//! [`crate::tracker::ProvenanceTracker`]; both share the same record,
//! storage, and verification machinery.

use crate::chain::ChainHeads;
use crate::error::CoreError;
use crate::hashing::hash_atom;
use crate::provenance::{collect, ProvenanceObject};
use crate::record::{InputRef, ProvenanceRecord, RecordKind};
use std::collections::HashMap;
use std::sync::Arc;
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::Participant;
use tep_model::{ModelError, ObjectId, Value};
use tep_storage::ProvenanceDb;

/// A database of atomic objects with checksummed provenance.
///
/// ```
/// use std::sync::Arc;
/// use rand::{rngs::StdRng, SeedableRng};
/// use tep_core::prelude::*;
/// use tep_model::Value;
///
/// let mut rng = StdRng::seed_from_u64(9);
/// let ca = CertificateAuthority::new(512, HashAlgorithm::Sha256, &mut rng);
/// let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
///
/// let mut ledger = AtomicLedger::new(HashAlgorithm::Sha256, Arc::new(ProvenanceDb::in_memory()));
/// let a = ledger.insert(&alice, Value::Int(1)).unwrap();
/// let b = ledger.insert(&alice, Value::Int(2)).unwrap();
/// let c = ledger.aggregate(&alice, &[a, b], Value::Int(3)).unwrap(); // non-linear!
/// assert_eq!(ledger.provenance_of(c).unwrap().len(), 3);
/// ```
pub struct AtomicLedger {
    alg: HashAlgorithm,
    db: Arc<ProvenanceDb>,
    heads: ChainHeads,
    values: HashMap<ObjectId, Value>,
    next_id: u64,
}

impl AtomicLedger {
    /// Creates an empty ledger writing records to `db`.
    pub fn new(alg: HashAlgorithm, db: Arc<ProvenanceDb>) -> Self {
        AtomicLedger {
            alg,
            db,
            heads: ChainHeads::new(),
            values: HashMap::new(),
            next_id: 0,
        }
    }

    /// The provenance store.
    pub fn db(&self) -> &Arc<ProvenanceDb> {
        &self.db
    }

    /// Current value of an object.
    pub fn value(&self, id: ObjectId) -> Option<&Value> {
        self.values.get(&id)
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no objects exist.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// `h(A, val)` for the object's current value.
    pub fn object_hash(&self, id: ObjectId) -> Result<Vec<u8>, CoreError> {
        let value = self
            .values
            .get(&id)
            .ok_or(CoreError::Model(ModelError::UnknownObject(id)))?;
        Ok(hash_atom(self.alg, id, value))
    }

    /// Latest chain seq for an object.
    pub fn head_seq(&self, id: ObjectId) -> Option<u64> {
        self.heads.get(id).map(|h| h.seq)
    }

    /// **Insert**: `C₀ = S_SKp(0 ‖ h(A,val) ‖ 0)`.
    pub fn insert(&mut self, signer: &Participant, value: Value) -> Result<ObjectId, CoreError> {
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        let output_hash = hash_atom(self.alg, id, &value);
        let record = ProvenanceRecord::create(
            self.alg,
            signer,
            RecordKind::Insert,
            0,
            vec![],
            id,
            output_hash,
            &[],
        )?;
        self.heads.advance(id, 0, record.checksum.clone());
        self.db.append(record.to_stored())?;
        self.values.insert(id, value);
        Ok(id)
    }

    /// **Update**: `Cᵢ = S_SKp(h(A,val) ‖ h(A,val′) ‖ Cᵢ₋₁)`.
    pub fn update(
        &mut self,
        signer: &Participant,
        id: ObjectId,
        value: Value,
    ) -> Result<(), CoreError> {
        let old = self
            .values
            .get(&id)
            .ok_or(CoreError::Model(ModelError::UnknownObject(id)))?;
        let input_hash = hash_atom(self.alg, id, old);
        let output_hash = hash_atom(self.alg, id, &value);
        let head = self
            .heads
            .get(id)
            .expect("live atomic object always has a head");
        let seq = head.seq + 1;
        let prev = head.checksum.clone();
        let record = ProvenanceRecord::create(
            self.alg,
            signer,
            RecordKind::Update,
            seq,
            vec![InputRef {
                oid: id,
                hash: input_hash,
                prev_seq: Some(head.seq),
            }],
            id,
            output_hash,
            &[&prev],
        )?;
        self.heads.advance(id, seq, record.checksum.clone());
        self.db.append(record.to_stored())?;
        self.values.insert(id, value);
        Ok(())
    }

    /// **Delete**: removes the object; its provenance object is no longer
    /// relevant (§2.1 footnote 3) so no record is emitted.
    pub fn delete(&mut self, id: ObjectId) -> Result<Value, CoreError> {
        let value = self
            .values
            .remove(&id)
            .ok_or(CoreError::Model(ModelError::UnknownObject(id)))?;
        self.heads.remove(id);
        Ok(value)
    }

    /// **Aggregate** of the inputs' *current* versions:
    /// `C = S_SKp(h(h(A₁,v₁)‖…‖h(Aₙ,vₙ)) ‖ h(B,val) ‖ C₁‖…‖Cₙ)`.
    pub fn aggregate(
        &mut self,
        signer: &Participant,
        inputs: &[ObjectId],
        value: Value,
    ) -> Result<ObjectId, CoreError> {
        let versions: Result<Vec<(ObjectId, u64)>, CoreError> = inputs
            .iter()
            .map(|&oid| {
                let head = self
                    .heads
                    .get(oid)
                    .ok_or(CoreError::Model(ModelError::UnknownObject(oid)))?;
                Ok((oid, head.seq))
            })
            .collect();
        self.aggregate_versions(signer, &versions?, value)
    }

    /// **Aggregate of specific historical versions** — Figure 2/3 combine
    /// the *original* value of `A` (seq 0) after `A` has moved on. Each
    /// input is `(object, seqID)` naming the version whose record hash and
    /// checksum are chained.
    pub(crate) fn aggregate_versions(
        &mut self,
        signer: &Participant,
        inputs: &[(ObjectId, u64)],
        value: Value,
    ) -> Result<ObjectId, CoreError> {
        if inputs.is_empty() {
            return Err(CoreError::Model(ModelError::EmptyAggregation));
        }
        let mut sorted = inputs.to_vec();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(CoreError::Model(ModelError::DuplicateAggregationInput(
                    w[0].0,
                )));
            }
        }

        // Resolve each referenced version's record: its output hash is
        // h(Aᵢ, vᵢ) for that version, its checksum is the chained Cᵢ.
        let mut input_refs = Vec::with_capacity(sorted.len());
        let mut prev_checksums = Vec::with_capacity(sorted.len());
        for &(oid, seq) in &sorted {
            let stored = self
                .db
                .records_for(oid)
                .into_iter()
                .find(|r| r.seq_id == seq)
                .ok_or(CoreError::NoProvenance(oid))?;
            let record = ProvenanceRecord::from_stored(&stored)
                .map_err(|error| CoreError::UndecodableRecord { oid, seq, error })?;
            input_refs.push(InputRef {
                oid,
                hash: record.output_hash,
                prev_seq: Some(seq),
            });
            prev_checksums.push(stored.checksum);
        }
        let prev_refs: Vec<&[u8]> = prev_checksums.iter().map(Vec::as_slice).collect();

        // seqID = 1 + max referenced seq (§2.1).
        let seq = sorted.iter().map(|&(_, s)| s).max().unwrap_or(0) + 1;

        let id = ObjectId(self.next_id);
        self.next_id += 1;
        let output_hash = hash_atom(self.alg, id, &value);
        let record = ProvenanceRecord::create(
            self.alg,
            signer,
            RecordKind::Aggregate,
            seq,
            input_refs,
            id,
            output_hash,
            &prev_refs,
        )?;
        self.heads.advance(id, seq, record.checksum.clone());
        self.db.append(record.to_stored())?;
        self.values.insert(id, value);
        Ok(id)
    }

    /// The provenance object (record DAG) for `id`.
    pub fn provenance_of(&self, id: ObjectId) -> Result<ProvenanceObject, CoreError> {
        collect(&self.db, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::Verifier;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tep_crypto::pki::{CertificateAuthority, KeyDirectory, ParticipantId};

    const ALG: HashAlgorithm = HashAlgorithm::Sha1; // paper fidelity

    struct World {
        ledger: AtomicLedger,
        keys: KeyDirectory,
        p1: Participant,
        p2: Participant,
        p3: Participant,
    }

    fn world() -> World {
        let mut rng = StdRng::seed_from_u64(2009);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let p1 = ca.enroll(ParticipantId(1), 512, &mut rng);
        let p2 = ca.enroll(ParticipantId(2), 512, &mut rng);
        let p3 = ca.enroll(ParticipantId(3), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        for p in [&p1, &p2, &p3] {
            keys.register(p.certificate().clone()).unwrap();
        }
        World {
            ledger: AtomicLedger::new(ALG, Arc::new(ProvenanceDb::in_memory())),
            keys,
            p1,
            p2,
            p3,
        }
    }

    /// Reproduces Figure 3 of the paper record-for-record.
    #[test]
    fn figure3_worked_example() {
        let mut w = world();
        // seq 0: p2 inserts A = a1 (C1) and B = b1 (C2).
        let a = w.ledger.insert(&w.p2, Value::text("a1")).unwrap();
        let b = w.ledger.insert(&w.p2, Value::text("b1")).unwrap();
        // seq 1: p1 updates A → a2 (C3); p2 updates B → b2 (C4).
        w.ledger.update(&w.p1, a, Value::text("a2")).unwrap();
        w.ledger.update(&w.p2, b, Value::text("b2")).unwrap();
        // seq 2: p2 updates A → a3 (C5); p3 aggregates {(A,a1),(B,b2)} → C (C6).
        w.ledger.update(&w.p2, a, Value::text("a3")).unwrap();
        let c = w
            .ledger
            .aggregate_versions(&w.p3, &[(a, 0), (b, 1)], Value::text("c1"))
            .unwrap();
        // seq 3: p1 aggregates {(A,a3),(C,c1)} → D (C7).
        let d = w
            .ledger
            .aggregate_versions(&w.p1, &[(a, 2), (c, 2)], Value::text("d1"))
            .unwrap();

        // Sequence ids match the paper's table.
        assert_eq!(w.ledger.head_seq(a), Some(2));
        assert_eq!(w.ledger.head_seq(b), Some(1));
        assert_eq!(w.ledger.head_seq(c), Some(2)); // 1 + max(0, 1)
        assert_eq!(w.ledger.head_seq(d), Some(3)); // 1 + max(2, 2)

        // The provenance object of D is the 7-record DAG of Figure 2/3.
        let prov = w.ledger.provenance_of(d).unwrap();
        assert_eq!(prov.len(), 7);

        // And the recipient can verify it end-to-end.
        let hash = w.ledger.object_hash(d).unwrap();
        let v = Verifier::new(&w.keys, ALG).verify(&hash, &prov);
        assert!(v.verified(), "issues: {:?}", v.issues);
        assert_eq!(v.participants.len(), 3);
    }

    #[test]
    fn insert_update_delete_lifecycle() {
        let mut w = world();
        let a = w.ledger.insert(&w.p1, Value::Int(5)).unwrap();
        assert_eq!(w.ledger.value(a), Some(&Value::Int(5)));
        w.ledger.update(&w.p1, a, Value::Int(6)).unwrap();
        assert_eq!(w.ledger.value(a), Some(&Value::Int(6)));
        assert_eq!(w.ledger.head_seq(a), Some(1));
        let last = w.ledger.delete(a).unwrap();
        assert_eq!(last, Value::Int(6));
        assert!(w.ledger.value(a).is_none());
        assert!(w.ledger.head_seq(a).is_none());
        assert!(w.ledger.is_empty());
    }

    #[test]
    fn update_unknown_object_fails() {
        let mut w = world();
        assert!(w.ledger.update(&w.p1, ObjectId(9), Value::Null).is_err());
        assert!(w.ledger.delete(ObjectId(9)).is_err());
        assert!(w.ledger.object_hash(ObjectId(9)).is_err());
    }

    #[test]
    fn aggregate_validates_inputs() {
        let mut w = world();
        let a = w.ledger.insert(&w.p1, Value::Int(1)).unwrap();
        assert!(w.ledger.aggregate(&w.p1, &[], Value::Null).is_err());
        assert!(w
            .ledger
            .aggregate_versions(&w.p1, &[(a, 0), (a, 0)], Value::Null)
            .is_err());
        assert!(w
            .ledger
            .aggregate(&w.p1, &[ObjectId(77)], Value::Null)
            .is_err());
        // Referencing a version that never existed fails.
        assert!(w
            .ledger
            .aggregate_versions(&w.p1, &[(a, 5)], Value::Null)
            .is_err());
    }

    #[test]
    fn aggregate_of_current_versions_verifies() {
        let mut w = world();
        let a = w.ledger.insert(&w.p1, Value::Int(1)).unwrap();
        let b = w.ledger.insert(&w.p2, Value::Int(2)).unwrap();
        w.ledger.update(&w.p2, b, Value::Int(3)).unwrap();
        let c = w.ledger.aggregate(&w.p3, &[a, b], Value::Int(4)).unwrap();
        assert_eq!(w.ledger.head_seq(c), Some(2));
        let prov = w.ledger.provenance_of(c).unwrap();
        let hash = w.ledger.object_hash(c).unwrap();
        let v = Verifier::new(&w.keys, ALG).verify(&hash, &prov);
        assert!(v.verified(), "issues: {:?}", v.issues);
    }

    #[test]
    fn per_object_chains_are_independent() {
        // §3.2: corrupting A's chain must not affect verifying B.
        let mut w = world();
        let a = w.ledger.insert(&w.p1, Value::Int(1)).unwrap();
        let b = w.ledger.insert(&w.p2, Value::Int(2)).unwrap();
        w.ledger.update(&w.p1, a, Value::Int(10)).unwrap();
        w.ledger.update(&w.p2, b, Value::Int(20)).unwrap();

        // Tamper with A's provenance...
        let mut prov_a = w.ledger.provenance_of(a).unwrap();
        prov_a.records[0].output_hash[0] ^= 1;
        let va = Verifier::new(&w.keys, ALG).verify(&w.ledger.object_hash(a).unwrap(), &prov_a);
        assert!(!va.verified());

        // ...B still verifies untouched.
        let prov_b = w.ledger.provenance_of(b).unwrap();
        let vb = Verifier::new(&w.keys, ALG).verify(&w.ledger.object_hash(b).unwrap(), &prov_b);
        assert!(vb.verified());
    }
}
