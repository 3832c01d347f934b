//! Tenancy: per-tenant signing identities and federated verification.
//!
//! A tenant is an **isolation domain**: its own signing key minted from
//! the simulated PKI, its own append-log shard
//! ([`tep_storage::TenantShards`]), its own key directory, and its own
//! evidence counters. The [`TenantDirectory`] is the control plane — it
//! mints tenant signers from the [`CertificateAuthority`] and scopes
//! every verification to the right key set so one tenant's records (or
//! forged denials) can never be accepted in another tenant's scope.
//!
//! [`federated_verify`] runs the full R1–R8 + denial verification
//! independently per tenant over a sharded store and aggregates the
//! results into one [`FederatedReport`], attributing every piece of
//! evidence (and every quarantined byte) to exactly one tenant.

use crate::denial::{DenialProof, SignedDenial, SignedRoot};
use crate::merkle::shard_tree_of;
use crate::provenance::collect;
use crate::verify::{storage_quarantine, EvidenceCounters, EvidenceKind, TamperEvidence, Verifier};
use rand::RngCore;
use std::collections::BTreeMap;
use std::sync::Arc;
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{Certificate, CertificateAuthority, KeyDirectory, Participant, PkiError};
use tep_crypto::rsa::RsaPublicKey;
use tep_crypto::ParticipantId;
use tep_model::{ObjectId, TenantId};
use tep_obs::Registry;
use tep_storage::TenantShards;

/// High bits folded into every tenant signer's [`ParticipantId`], so
/// tenant-signer ids can never collide with ordinary workload
/// participants (which use small ids) and the tenant is recoverable
/// from the id for attribution.
pub(crate) const TENANT_SIGNER_BASE: u64 = 0x7E4A_0000_0000_0000;

/// One tenant's identity material.
struct TenantEntry {
    signer: Arc<Participant>,
    keys: KeyDirectory,
}

/// The tenant control plane: per-tenant signers and key directories.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use tep_core::tenant::TenantDirectory;
/// use tep_crypto::digest::HashAlgorithm;
/// use tep_crypto::pki::CertificateAuthority;
/// use tep_model::TenantId;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let ca = CertificateAuthority::new(512, HashAlgorithm::Sha256, &mut rng);
/// let mut dir = TenantDirectory::new(&ca);
/// dir.mint(&ca, TenantId(1), 512, &mut rng);
/// assert!(dir.contains(TenantId(1)));
/// assert!(dir.signer(TenantId(2)).is_none()); // never minted
/// ```
pub struct TenantDirectory {
    alg: HashAlgorithm,
    ca_key: RsaPublicKey,
    tenants: BTreeMap<TenantId, TenantEntry>,
}

impl TenantDirectory {
    /// Creates an empty directory trusting `ca`.
    pub fn new(ca: &CertificateAuthority) -> TenantDirectory {
        TenantDirectory {
            alg: ca.algorithm(),
            ca_key: ca.public_key().clone(),
            tenants: BTreeMap::new(),
        }
    }

    /// The hash algorithm every tenant in this directory signs with.
    pub fn alg(&self) -> HashAlgorithm {
        self.alg
    }

    /// The deterministic signer identity of `tenant` — the key
    /// derivation is pure (tenant id → participant id), so any party
    /// can attribute a signature to its tenant without a lookup.
    pub(crate) fn signer_id(tenant: TenantId) -> ParticipantId {
        ParticipantId(TENANT_SIGNER_BASE | tenant.raw())
    }

    /// Mints `tenant`'s signing identity from the PKI: generates a
    /// fresh key pair, has `ca` certify it under
    /// `TenantDirectory::signer_id`.
    /// Re-minting an existing tenant rotates its key.
    pub fn mint(
        &mut self,
        ca: &CertificateAuthority,
        tenant: TenantId,
        key_bits: usize,
        rng: &mut dyn RngCore,
    ) -> Arc<Participant> {
        let signer = Arc::new(ca.enroll(Self::signer_id(tenant), key_bits, rng));
        let mut keys = KeyDirectory::new(self.ca_key.clone(), self.alg);
        keys.register(signer.certificate().clone())
            .expect("a certificate this CA just issued must register");
        self.tenants.insert(
            tenant,
            TenantEntry {
                signer: Arc::clone(&signer),
                keys,
            },
        );
        signer
    }

    /// Registers an additional CA-certified participant *within*
    /// `tenant`'s scope (a workload actor whose records that tenant's
    /// verifier should accept). Certificates registered for one tenant
    /// are invisible to every other tenant — that scoping is what makes
    /// cross-tenant replay attributable instead of accepted.
    pub fn register(&mut self, tenant: TenantId, cert: Certificate) -> Result<(), PkiError> {
        let entry = self
            .tenants
            .get_mut(&tenant)
            .ok_or(PkiError::UnknownParticipant(cert.subject()))?;
        entry.keys.register(cert)
    }

    /// `tenant`'s signing identity, if minted.
    pub fn signer(&self, tenant: TenantId) -> Option<Arc<Participant>> {
        self.tenants.get(&tenant).map(|e| Arc::clone(&e.signer))
    }

    /// `tenant`'s key directory (the CA plus every certificate
    /// registered in that tenant's scope), if minted.
    pub fn keys(&self, tenant: TenantId) -> Option<&KeyDirectory> {
        self.tenants.get(&tenant).map(|e| &e.keys)
    }

    /// `true` iff `tenant` has been minted.
    pub fn contains(&self, tenant: TenantId) -> bool {
        self.tenants.contains_key(&tenant)
    }

    /// Every minted tenant, in id order.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.tenants.keys().copied().collect()
    }
}

/// One tenant's slice of a [`FederatedReport`].
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// The tenant this slice describes.
    pub tenant: TenantId,
    /// Objects whose histories were verified.
    pub objects: usize,
    /// Records whose signatures were checked.
    pub records_checked: usize,
    /// Every piece of tamper evidence found in this tenant's scope.
    pub issues: Vec<TamperEvidence>,
    /// `true` when the tenant's signed denial tree was built and a
    /// non-membership proof under it verified (false when the shard is
    /// empty or the tenant has no signer to sign the root).
    pub denial_checked: bool,
    /// Why the tenant's shard failed to open, if it did (a failed open
    /// is isolation working: the damage stays in this report).
    pub shard_error: Option<String>,
}

impl TenantReport {
    /// `true` iff no evidence was found and the shard opened.
    pub fn verified(&self) -> bool {
        self.issues.is_empty() && self.shard_error.is_none()
    }
}

/// Aggregated per-tenant verification results — R1–R8 chain checks,
/// storage-recovery attribution, and denial-tree self-checks, each run
/// under the *tenant's own* key directory.
#[derive(Clone, Debug, Default)]
pub struct FederatedReport {
    /// One report per tenant, in tenant-id order.
    pub tenants: Vec<TenantReport>,
}

impl FederatedReport {
    /// `true` iff every tenant verified clean.
    pub fn verified(&self) -> bool {
        self.tenants.iter().all(|t| t.verified())
    }

    /// The report for `tenant`, if it was verified.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

/// Verifies every tenant's shard independently and aggregates the
/// results.
///
/// Per tenant: the shard's recovery report is surfaced as
/// [`TamperEvidence::StorageQuarantine`] when degraded; every object's
/// full history is collected and verified under the tenant's own
/// [`KeyDirectory`] (`hash_of` supplies the live object hash where one
/// exists — when it returns `None` the latest record's claimed output
/// hash anchors the chain checks, i.e. an audit-mode verify); and, when
/// the tenant has a signer and a non-empty shard, the denial tree is
/// built, its root signed, and a non-membership proof for an absent
/// object verified under the same keys.
///
/// When `registry` is given, every issue is recorded into that tenant's
/// labeled evidence counters — exact attribution, no cross-tenant bleed.
pub fn federated_verify(
    dir: &TenantDirectory,
    shards: &TenantShards,
    hash_of: impl Fn(TenantId, ObjectId) -> Option<Vec<u8>>,
    registry: Option<&Registry>,
) -> FederatedReport {
    let mut report = FederatedReport::default();
    for tenant in dir.tenants() {
        let mut tr = TenantReport {
            tenant,
            objects: 0,
            records_checked: 0,
            issues: Vec::new(),
            denial_checked: false,
            shard_error: shards.shard_error(tenant).map(str::to_owned),
        };
        if let Some(db) = shards.shard(tenant) {
            let keys = dir.keys(tenant).expect("tenant came from the directory");
            let verifier = Verifier::new(keys, dir.alg());
            let recovery = db.recovery();
            for oid in db.object_ids() {
                let Ok(prov) = collect(&db, oid) else {
                    continue;
                };
                let hash =
                    hash_of(tenant, oid).or_else(|| prov.latest().map(|r| r.output_hash.clone()));
                let Some(hash) = hash else { continue };
                let v = verifier.verify_recovered(&hash, &prov, &recovery);
                tr.objects += 1;
                tr.records_checked += v.records_checked;
                tr.issues.extend(v.issues);
            }
            // `verify_recovered` attributes quarantined storage per
            // object; if the damage wiped every chain (or emptied the
            // shard) there is no object left to carry it, so surface it
            // here once instead.
            if !tr
                .issues
                .iter()
                .any(|i| i.kind() == EvidenceKind::StorageQuarantine)
            {
                tr.issues.extend(storage_quarantine(&recovery));
            }
            // Denial self-check: the tenant's own signer must be able to
            // prove non-membership under its own signed root.
            if let Some(signer) = dir.signer(tenant) {
                if !db.is_empty() {
                    let tree = shard_tree_of(dir.alg(), &db);
                    let absent =
                        ObjectId(db.object_ids().iter().map(|o| o.raw()).max().unwrap_or(0) + 1);
                    let root = SignedRoot::sign(&tree, db.len() as u64, &signer).ok();
                    match root.zip(DenialProof::prove(&tree, absent)) {
                        Some((root, proof)) => {
                            let denial = SignedDenial { root, proof };
                            tr.issues.extend(verifier.verify_denial(&denial).issues);
                            tr.denial_checked = true;
                        }
                        None => tr.issues.push(TamperEvidence::ForgedDenial { oid: absent }),
                    }
                }
            }
        }
        if let Some(reg) = registry {
            EvidenceCounters::for_tenant(reg, tenant).record_issues(&tr.issues);
        }
        report.tenants.push(tr);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::{ProvenanceTracker, TrackerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::PathBuf;
    use tep_model::Value;
    use tep_obs::names;
    use tep_storage::vfs::{FaultConfig, FaultVfs};
    use tep_storage::{shard_path, Vfs};

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    fn two_tenant_world() -> (CertificateAuthority, TenantDirectory, StdRng) {
        let mut rng = StdRng::seed_from_u64(0x7E4A);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let mut dir = TenantDirectory::new(&ca);
        dir.mint(&ca, TenantId(1), 512, &mut rng);
        dir.mint(&ca, TenantId(2), 512, &mut rng);
        (ca, dir, rng)
    }

    fn populate(
        dir: &TenantDirectory,
        shards: &TenantShards,
        tenant: TenantId,
        updates: usize,
    ) -> ObjectId {
        let signer = dir.signer(tenant).unwrap();
        let db = shards.shard(tenant).unwrap();
        let mut tracker = ProvenanceTracker::new(TrackerConfig::default(), db);
        let (obj, _) = tracker.insert(&signer, Value::Int(0), None).unwrap();
        for i in 1..=updates {
            tracker.update(&signer, obj, Value::Int(i as i64)).unwrap();
        }
        shards.shard(tenant).unwrap().sync().unwrap();
        obj
    }

    fn fault_shards(root: &str, vfs_a: Arc<FaultVfs>, vfs_b: Arc<FaultVfs>) -> TenantShards {
        TenantShards::open_with(
            root,
            vec![
                (TenantId(1), vfs_a as Arc<dyn Vfs>),
                (TenantId(2), vfs_b as Arc<dyn Vfs>),
            ],
        )
    }

    #[test]
    fn signer_ids_are_disjoint_from_workload_participants() {
        let a = TenantDirectory::signer_id(TenantId(1));
        let b = TenantDirectory::signer_id(TenantId(2));
        assert_ne!(a, b);
        assert!(a.0 >= TENANT_SIGNER_BASE);
        assert_ne!(a, ParticipantId(1));
    }

    #[test]
    fn cross_tenant_certificates_are_scoped() {
        let (ca, mut dir, mut rng) = two_tenant_world();
        // A workload participant certified by the CA, registered only in
        // tenant 1's scope.
        let worker = ca.enroll(ParticipantId(42), 512, &mut rng);
        dir.register(TenantId(1), worker.certificate().clone())
            .unwrap();
        assert!(dir
            .keys(TenantId(1))
            .unwrap()
            .public_key(worker.id())
            .is_ok());
        assert!(dir
            .keys(TenantId(2))
            .unwrap()
            .public_key(worker.id())
            .is_err());
        // Unknown tenant: registration refused.
        assert!(dir
            .register(TenantId(9), worker.certificate().clone())
            .is_err());
    }

    #[test]
    fn federated_verify_clean_two_tenants() {
        let (_ca, dir, _rng) = two_tenant_world();
        let vfs_a = FaultVfs::new(FaultConfig::default());
        let vfs_b = FaultVfs::new(FaultConfig::default());
        let shards = fault_shards("/fed", vfs_a, vfs_b);
        populate(&dir, &shards, TenantId(1), 3);
        populate(&dir, &shards, TenantId(2), 2);

        let registry = Registry::new();
        let report = federated_verify(&dir, &shards, |_, _| None, Some(&registry));
        assert!(report.verified(), "issues: {:?}", report.tenants);
        let t1 = report.tenant(TenantId(1)).unwrap();
        assert!(t1.denial_checked);
        assert!(t1.records_checked >= 4);
        for kind in EvidenceKind::ALL {
            for t in [1u64, 2] {
                assert_eq!(
                    registry.counter_value(&names::with_tenant(&kind.counter_name(), t)),
                    0
                );
            }
        }
    }

    #[test]
    fn corruption_is_attributed_to_the_right_tenant() {
        let (_ca, dir, _rng) = two_tenant_world();
        let vfs_a = FaultVfs::new(FaultConfig::default());
        let vfs_b = FaultVfs::new(FaultConfig::default());
        {
            let shards = fault_shards("/fed", Arc::clone(&vfs_a), Arc::clone(&vfs_b));
            populate(&dir, &shards, TenantId(1), 5);
            populate(&dir, &shards, TenantId(2), 5);
        }
        // Flip one byte in the interior of tenant 1's shard only.
        assert!(vfs_a.corrupt_byte(&shard_path(&PathBuf::from("/fed"), TenantId(1)), 300));
        let shards = fault_shards("/fed", vfs_a, vfs_b);

        let registry = Registry::new();
        let report = federated_verify(&dir, &shards, |_, _| None, Some(&registry));
        let t1 = report.tenant(TenantId(1)).unwrap();
        let t2 = report.tenant(TenantId(2)).unwrap();
        assert!(!t1.verified(), "tenant 1 must carry the damage");
        assert!(
            t1.issues
                .iter()
                .any(|i| i.kind() == EvidenceKind::StorageQuarantine),
            "damage must be attributed to quarantined storage: {:?}",
            t1.issues
        );
        assert!(t2.verified(), "tenant 2 must be untouched: {:?}", t2.issues);
        // Labeled counters: tenant 1 has the evidence, tenant 2 has none.
        let quarantine = names::with_tenant(&EvidenceKind::StorageQuarantine.counter_name(), 1);
        assert_eq!(registry.counter_value(&quarantine), 1);
        for kind in EvidenceKind::ALL {
            assert_eq!(
                registry.counter_value(&names::with_tenant(&kind.counter_name(), 2)),
                0,
                "tenant 2 must have zero {kind} evidence"
            );
        }
    }

    #[test]
    fn tenant_verify_rejects_records_signed_for_another_tenant() {
        // Records minted by tenant 1's signer, replayed into tenant 2's
        // shard: tenant 2's key directory has no certificate for tenant
        // 1's signer, so verification attributes every record rather
        // than accepting any.
        let (_ca, dir, _rng) = two_tenant_world();
        let vfs_a = FaultVfs::new(FaultConfig::default());
        let vfs_b = FaultVfs::new(FaultConfig::default());
        let shards = fault_shards("/fed", vfs_a, vfs_b);
        populate(&dir, &shards, TenantId(1), 2);
        // Replay A's rows into B's shard byte-for-byte.
        let a = shards.shard(TenantId(1)).unwrap();
        let b = shards.shard(TenantId(2)).unwrap();
        for rec in a.all_records() {
            b.append(rec).unwrap();
        }
        let report = federated_verify(&dir, &shards, |_, _| None, None);
        let t2 = report.tenant(TenantId(2)).unwrap();
        assert!(!t2.verified());
        assert!(
            t2.issues
                .iter()
                .any(|i| i.kind() == EvidenceKind::UnknownParticipant),
            "replayed records must be unattributable in tenant 2's scope: {:?}",
            t2.issues
        );
        // Tenant 1's own scope still verifies.
        assert!(report.tenant(TenantId(1)).unwrap().verified());
    }
}
