//! Primary→replica replication: verified log tailing plus Merkle
//! anti-entropy.
//!
//! A replica is a *recipient* in the paper's threat model (§2.2) that
//! happens to keep what it receives: it tails the primary's record log
//! over the ordinary FETCH/RESUME wire protocol and persists what it
//! verified into its own durable [`ProvenanceDb`]. The transfer itself —
//! opening it, reading its frames, verifying on receipt, the verdict — is
//! the client's ([`fetch_on`], the one [`Client::fetch_verified`](crate::Client)
//! runs); this module supplies what a replica adds to it. Nothing the
//! primary says is trusted:
//!
//! * **Catch-up** ([`Replica::catch_up`]) runs that transfer for each
//!   offered object, opened from a sealed [`StreamingVerifier`] checkpoint
//!   persisted through the storage [`Vfs`] seam ([`CheckpointStore`]) — a
//!   power cycle mid-catch-up resumes from the last *durable, verified*
//!   offset with a RESUME proof-of-position, never re-trusting records it
//!   already checked and never claiming records it cannot prove.
//! * **Reconcile-by-content** (the transfer's record sink): an arriving
//!   record that is byte-identical to a local one is re-verified and
//!   skipped; one that *differs* from verified local state is
//!   [`TamperEvidence::ReplicaDivergence`] — the replica never overwrites
//!   verified history to "converge"; a new one is appended once verified,
//!   the log fsynced before the checkpoint that covers it.
//! * **Anti-entropy** ([`Replica::anti_entropy`]) exchanges Merkle roots
//!   over the object-id space ([`tep_core::merkle`]) and descends only
//!   into mismatching subtrees, locating a divergent object in O(log n)
//!   round trips. Missing history is repaired by a fresh verified fetch;
//!   conflicting history yields the same attributed evidence pipeline as
//!   a wire attacker; a peer whose tree nodes fail self-authentication
//!   is [`TamperEvidence::ForgedRoot`].

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use tep_core::denial::SignedRoot;
use tep_core::merkle::{
    locate_divergence, shard_tree_of, AeError, AeNodeInfo, AeOracle, AeOutcome, AeSummary,
};
use tep_core::streaming::RecordStreamDigest;
use tep_core::verify::{EvidenceCounters, EvidenceKind, StreamingVerifier, TamperEvidence};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::KeyDirectory;
use tep_model::{ObjectId, TenantId};
use tep_obs::{names, Counter, Histogram, Registry};
use tep_storage::{CheckpointStore, ProvenanceDb, StoredRecord, Vfs};

use crate::client::{fetch_on, Connection, NetError, RecordSink};
use crate::wire::{Message, WireError, AE_SUMMARY_LEVEL};
use crate::TransferCounters;

/// Tuning for one replica.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaConfig {
    /// Hash algorithm (must match the primary's HELLO).
    pub alg: HashAlgorithm,
    /// Per-read socket timeout (rescaled per transfer like the client's).
    pub read_timeout: Duration,
    /// Records per durability batch: after this many *new* records the
    /// replica fsyncs its log and seals a fresh verifier checkpoint, so a
    /// crash loses at most one batch of (already verified) progress.
    pub batch: u64,
}

/// Upper bound on anti-entropy locate/repair passes before
/// [`Replica::anti_entropy`] gives up (defends against a primary that
/// manufactures endless fresh divergence).
const MAX_AE_PASSES: u64 = 64;

impl ReplicaConfig {
    /// Defaults for `alg`.
    pub fn new(alg: HashAlgorithm) -> Self {
        ReplicaConfig {
            alg,
            read_timeout: Duration::from_secs(5),
            batch: 32,
        }
    }
}

/// What one [`Replica::catch_up`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CatchUpReport {
    /// Offered objects synchronized.
    pub objects: u64,
    /// Records newly verified, appended, and fsynced.
    pub new_records: u64,
    /// Records re-verified but already present byte-identical (skipped).
    pub reverified: u64,
    /// Objects whose transfer resumed from a durable checkpoint.
    pub resumed: u64,
}

impl CatchUpReport {
    fn absorb(&mut self, other: CatchUpReport) {
        self.objects += other.objects;
        self.new_records += other.new_records;
        self.reverified += other.reverified;
        self.resumed += other.resumed;
    }
}

/// Terminal state of one [`Replica::anti_entropy`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AeStatus {
    /// Local and remote shard roots agree: record-digest identical.
    Converged,
    /// The replica holds *more* objects than the primary — benign from
    /// the replica's side (it never discards verified state), so the run
    /// stops without evidence and without "repair".
    PrimaryBehind {
        /// Local object count.
        local: u64,
        /// Remote object count.
        remote: u64,
    },
}

/// What one [`Replica::anti_entropy`] run found and fixed.
#[derive(Clone, Debug)]
pub struct AeReport {
    /// How the run ended.
    pub status: AeStatus,
    /// Locate/repair passes (1 for an already-converged pair).
    pub passes: u64,
    /// Total anti-entropy round trips across all passes.
    pub rounds: u64,
    /// Objects whose missing history was repaired by a verified re-fetch.
    pub repaired: Vec<ObjectId>,
}

/// Replication metric handles (`tep_net_repl_*`).
struct ReplObs {
    catchup_records: Counter,
    checkpoint_resumes: Counter,
    ae_rounds: Counter,
    converged: Counter,
    divergence_depth: Histogram,
}

impl ReplObs {
    fn new(registry: &Registry) -> Self {
        registry.gauge(names::NET_REPL_ROLE).set(1);
        ReplObs {
            catchup_records: registry.counter(names::NET_REPL_CATCHUP_RECORDS),
            checkpoint_resumes: registry.counter(names::NET_REPL_CHECKPOINT_RESUMES),
            ae_rounds: registry.counter(names::NET_REPL_ANTI_ENTROPY_ROUNDS),
            converged: registry.counter(names::NET_REPL_CONVERGED),
            divergence_depth: registry
                .histogram(names::NET_REPL_DIVERGENCE_DEPTH, &[0, 1, 2, 4, 8, 16, 32]),
        }
    }
}

/// A tamper-evident replica of one primary.
pub struct Replica {
    primary: SocketAddr,
    cfg: ReplicaConfig,
    /// The replica's own record store (durable through the same `vfs` in
    /// crash tests).
    db: Arc<ProvenanceDb>,
    /// Filesystem seam for checkpoint durability.
    vfs: Arc<dyn Vfs>,
    /// Directory holding one sealed checkpoint file per object.
    ckpt_dir: PathBuf,
    counters: Arc<TransferCounters>,
    registry: Option<Registry>,
    obs: Option<ReplObs>,
    /// Highest `log_records` attested by a verified signed shard root from
    /// the primary. Monotonic: a later root claiming *fewer* cumulative
    /// log records means the primary rolled back to a pre-compaction
    /// state — [`TamperEvidence::CheckpointMismatch`].
    root_highwater: Mutex<u64>,
}

impl Replica {
    /// A replica of the primary at `primary`, persisting records into
    /// `db` and catch-up checkpoints under `ckpt_dir` through `vfs`.
    pub fn new(
        primary: SocketAddr,
        cfg: ReplicaConfig,
        db: Arc<ProvenanceDb>,
        vfs: Arc<dyn Vfs>,
        ckpt_dir: PathBuf,
    ) -> Self {
        Replica {
            primary,
            cfg,
            db,
            vfs,
            ckpt_dir,
            counters: Arc::new(TransferCounters::new()),
            registry: None,
            obs: None,
            root_highwater: Mutex::new(0),
        }
    }

    /// The highest cumulative `log_records` a verified signed root from
    /// the primary has attested so far (0 before any signed summary).
    pub fn pinned_log_records(&self) -> u64 {
        *self
            .root_highwater
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Attaches metric instrumentation: traffic mirrors under `tep_net_*`,
    /// replication progress under `tep_net_repl_*` (and the role gauge is
    /// set to 1 = replica), evidence under `tep_core_evidence_*`.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.counters = Arc::new(TransferCounters::observed(registry));
        self.obs = Some(ReplObs::new(registry));
        self.registry = Some(registry.clone());
    }

    /// The replica's record store.
    pub fn db(&self) -> &Arc<ProvenanceDb> {
        &self.db
    }

    /// Tails the primary: streams every offered object with
    /// verify-on-receive, resuming each from its durable checkpoint.
    /// New records are appended and fsynced *before* the checkpoint that
    /// covers them is sealed, so the persisted verified offset never
    /// exceeds the durable record count. Evidence aborts immediately with
    /// the same attributed [`NetError::TamperDetected`] a wire attacker
    /// would earn; local verified state is left untouched.
    pub fn catch_up(&self, keys: &KeyDirectory) -> Result<CatchUpReport, NetError> {
        let mut conn = self.dial()?;
        let offered: Vec<ObjectId> = conn.offer.iter().map(|e| e.oid).collect();
        let mut local = self.local_index();
        let mut report = CatchUpReport::default();
        for oid in offered {
            let one = self.sync_object(&mut conn, oid, keys, &mut local)?;
            report.absorb(one);
            report.objects += 1;
        }
        Ok(report)
    }

    /// One anti-entropy run: exchange shard summaries, descend into
    /// mismatching subtrees, and repair (by verified re-fetch) or attribute
    /// (as evidence) every located divergence, looping until the trees
    /// converge or the primary is found to be behind. A node that fails
    /// self-authentication, or conflicting verified history, is terminal
    /// tamper evidence — never "repaired".
    pub fn anti_entropy(&self, keys: &KeyDirectory) -> Result<AeReport, NetError> {
        let mut report = AeReport {
            status: AeStatus::Converged,
            passes: 0,
            rounds: 0,
            repaired: Vec::new(),
        };
        loop {
            report.passes += 1;
            if report.passes > MAX_AE_PASSES {
                return Err(NetError::Protocol("anti-entropy failed to converge"));
            }
            let local = shard_tree_of(self.cfg.alg, &self.db);
            let mut conn = self.dial()?;
            let mut oracle = WireOracle {
                conn: &mut conn,
                summary_root: None,
            };
            let outcome = match locate_divergence(&local, &mut oracle) {
                Ok(o) => o,
                Err(AeError::Transport(_)) => return Err(NetError::Interrupted),
                Err(AeError::Protocol(_)) => {
                    return Err(NetError::Protocol("anti-entropy protocol violation"))
                }
            };
            // Validate and pin the signed root before acting on the
            // outcome: a stale or forged root poisons everything the
            // descent concluded.
            if let Some((bytes, hash, leaf_count)) = oracle.summary_root.take() {
                self.pin_signed_root(keys, &bytes, &hash, leaf_count)?;
            }
            match outcome {
                AeOutcome::Converged { rounds } => {
                    report.rounds += rounds;
                    if let Some(obs) = &self.obs {
                        obs.ae_rounds.add(rounds);
                        obs.converged.inc();
                    }
                    report.status = AeStatus::Converged;
                    return Ok(report);
                }
                AeOutcome::CountMismatch {
                    local: l,
                    remote: r,
                    rounds,
                } => {
                    report.rounds += rounds;
                    if let Some(obs) = &self.obs {
                        obs.ae_rounds.add(rounds);
                    }
                    if l < r {
                        // Benign lag: whole objects are missing locally.
                        drop(conn);
                        self.catch_up(keys)?;
                    } else {
                        report.status = AeStatus::PrimaryBehind {
                            local: l,
                            remote: r,
                        };
                        return Ok(report);
                    }
                }
                AeOutcome::Diverged {
                    oid,
                    remote_oid,
                    rounds,
                    depth,
                    ..
                } => {
                    report.rounds += rounds;
                    if let Some(obs) = &self.obs {
                        obs.ae_rounds.add(rounds);
                        obs.divergence_depth.observe(u64::from(depth));
                    }
                    drop(conn);
                    // Equal counts but different object sets: the leaf pair
                    // names two objects; repair whichever the primary
                    // offers, and let the next pass re-compare.
                    let target = remote_oid.unwrap_or(oid);
                    self.repair_object(target, keys, depth)?;
                    report.repaired.push(target);
                }
                AeOutcome::Forged {
                    level,
                    index,
                    rounds,
                } => {
                    report.rounds += rounds;
                    if let Some(obs) = &self.obs {
                        obs.ae_rounds.add(rounds);
                    }
                    self.record_evidence(EvidenceKind::ForgedRoot);
                    return Err(NetError::TamperDetected {
                        frame: None,
                        issues: vec![TamperEvidence::ForgedRoot { level, index }],
                    });
                }
            }
        }
    }

    /// Validates a signed shard root received on an anti-entropy summary
    /// and advances the monotonic `log_records` high-water mark.
    ///
    /// Terminal evidence on failure: a root whose signature, hash, or
    /// leaf count does not authenticate the summary it rode on is
    /// [`TamperEvidence::ForgedRoot`]; a *verified* root attesting fewer
    /// cumulative log records than an earlier one is
    /// [`TamperEvidence::CheckpointMismatch`] — the primary is replaying
    /// a pre-compaction state to resurrect excised history.
    fn pin_signed_root(
        &self,
        keys: &KeyDirectory,
        bytes: &[u8],
        summary_hash: &[u8],
        summary_leaves: u64,
    ) -> Result<(), NetError> {
        let forged = |self_: &Self| {
            self_.record_evidence(EvidenceKind::ForgedRoot);
            Err(NetError::TamperDetected {
                frame: None,
                issues: vec![TamperEvidence::ForgedRoot {
                    level: AE_SUMMARY_LEVEL,
                    index: 0,
                }],
            })
        };
        let Ok(root) = SignedRoot::from_bytes(bytes) else {
            return forged(self);
        };
        if !root.verify(keys) || root.root != summary_hash || root.leaf_count != summary_leaves {
            return forged(self);
        }
        let mut highwater = self
            .root_highwater
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if root.log_records < *highwater {
            self.record_evidence(EvidenceKind::CheckpointMismatch);
            return Err(NetError::TamperDetected {
                frame: None,
                issues: vec![TamperEvidence::CheckpointMismatch {
                    oid: ObjectId(0),
                    seq: root.log_records,
                }],
            });
        }
        *highwater = root.log_records;
        Ok(())
    }

    /// Re-fetches one divergent object from scratch (the stale checkpoint
    /// is cleared first — its resume proof no longer describes the stream
    /// the primary would send). Missing records are verified and appended;
    /// a record that *conflicts* with verified local state is
    /// [`TamperEvidence::ReplicaDivergence`], attributed at the depth the
    /// anti-entropy descent located it.
    fn repair_object(
        &self,
        oid: ObjectId,
        keys: &KeyDirectory,
        depth: u32,
    ) -> Result<CatchUpReport, NetError> {
        self.checkpoint_store(oid).clear()?;
        let mut conn = self.dial()?;
        if !conn.offer.iter().any(|e| e.oid == oid) {
            return Err(NetError::Protocol("divergent object is not offered"));
        }
        let mut local = self.local_index();
        match self.sync_object(&mut conn, oid, keys, &mut local) {
            Ok(r) => Ok(r),
            Err(NetError::TamperDetected { frame, mut issues }) => {
                // Attribute the located depth on divergence evidence.
                for issue in &mut issues {
                    if let TamperEvidence::ReplicaDivergence { depth: d, .. } = issue {
                        *d = depth;
                    }
                }
                Err(NetError::TamperDetected { frame, issues })
            }
            Err(e) => Err(e),
        }
    }

    /// Synchronizes one offered object: the client's transfer
    /// ([`fetch_on`]) opened from this replica's durable checkpoint and
    /// streamed into a [`Reconciler`].
    fn sync_object(
        &self,
        conn: &mut Connection,
        oid: ObjectId,
        keys: &KeyDirectory,
        local: &mut LocalIndex,
    ) -> Result<CatchUpReport, NetError> {
        let ckpt = self.checkpoint_store(oid);
        // RESUME from the durable checkpoint when one restores AND still
        // describes locally durable history, FETCH from zero otherwise. A
        // checkpoint that fails to load or open is local damage, honestly
        // treated as "start over" — never evidence. The local-history
        // check matters after storage damage: a quarantined record leaves
        // a hole the (still cryptographically valid) checkpoint would
        // otherwise hide behind its resume proof forever.
        let restored = ckpt
            .load()?
            .and_then(|blob| StreamingVerifier::restore(keys, &blob).ok())
            .filter(|v| self.checkpoint_covers_local(oid, v, local));
        let mut sink = Reconciler {
            replica: self,
            ckpt,
            local,
            report: CatchUpReport::default(),
            pending: 0,
        };
        let outcome = fetch_on(conn, oid, keys, restored, &mut sink);
        let resumed = match &outcome {
            Ok(transfer) => transfer.resumed,
            Err(cut) => cut.resumed,
        };
        if resumed {
            sink.report.resumed += 1;
            if let Some(obs) = &self.obs {
                obs.checkpoint_resumes.inc();
            }
        }
        outcome.map_err(|cut| cut.error)?;
        Ok(sink.report)
    }

    /// `true` when the sealed checkpoint's verified prefix is still
    /// locally reconstructible: the rolling stream digest over the local
    /// rows of the slots the restored verifier was pushed, in its push
    /// order, equals the checkpoint's digest. A replica whose log lost
    /// records — torn tail, quarantined corruption — fails this and falls
    /// back to a full reconciling fetch, which repairs the hole.
    fn checkpoint_covers_local(
        &self,
        oid: ObjectId,
        v: &StreamingVerifier<'_>,
        local: &LocalIndex,
    ) -> bool {
        let mut d = RecordStreamDigest::new(self.cfg.alg, oid);
        for slot in v.pushed() {
            let Some(row) = local.get(&slot) else {
                return false;
            };
            d.push(row);
        }
        d.current() == v.stream_digest()
    }

    fn local_index(&self) -> LocalIndex {
        self.db
            .all_records()
            .into_iter()
            .map(|r| ((r.oid, r.seq_id), r.to_bytes()))
            .collect()
    }

    fn checkpoint_store(&self, oid: ObjectId) -> CheckpointStore {
        CheckpointStore::new(
            Arc::clone(&self.vfs),
            self.ckpt_dir.join(format!("ckpt-{}", oid.0)),
        )
    }

    fn record_evidence(&self, kind: EvidenceKind) {
        self.counters.verify_failure();
        if let Some(reg) = &self.registry {
            EvidenceCounters::new(reg).record(kind);
        }
    }

    /// Dials the primary and completes the HELLO/OFFER exchange.
    fn dial(&self) -> Result<Connection, NetError> {
        Connection::establish(
            self.primary,
            self.cfg.alg,
            TenantId::DEFAULT,
            self.cfg.read_timeout,
            Arc::clone(&self.counters),
            self.registry.clone(),
        )
    }
}

/// Byte index of everything locally durable, keyed by record slot.
type LocalIndex = HashMap<(ObjectId, u64), Vec<u8>>;

/// The replica's side of a transfer: reconcile each arriving record with
/// local history by content, append the verified new ones, and keep the log
/// durable ahead of the checkpoint that covers it.
struct Reconciler<'a> {
    replica: &'a Replica,
    ckpt: CheckpointStore,
    local: &'a mut LocalIndex,
    report: CatchUpReport,
    /// New records appended since the last flush.
    pending: u64,
}

impl Reconciler<'_> {
    /// Fsyncs the record log, then seals and persists the verifier state
    /// that covers it. Crash between the two steps leaves the checkpoint
    /// *behind* the log — the safe direction, reconciled by content on the
    /// next catch-up.
    fn flush(&mut self, verifier: &StreamingVerifier<'_>) -> Result<(), NetError> {
        self.replica.db.sync().map_err(store_error)?;
        if let Some(blob) = verifier.checkpoint() {
            self.ckpt.save(&blob)?;
        }
        if let Some(obs) = &self.replica.obs {
            obs.catchup_records.add(self.pending);
        }
        self.pending = 0;
        Ok(())
    }
}

impl RecordSink for Reconciler<'_> {
    /// A record that differs from the verified local one in its slot is
    /// evidence before the verifier sees it: the primary's history
    /// conflicts with verified local state, which is never overwritten.
    fn arriving(&mut self, record: &StoredRecord, frame: u64) -> Result<(), NetError> {
        match self.local.get(&(record.oid, record.seq_id)) {
            Some(mine) if *mine != record.to_bytes() => {
                self.replica
                    .record_evidence(EvidenceKind::ReplicaDivergence);
                Err(NetError::TamperDetected {
                    frame: Some(frame),
                    issues: vec![TamperEvidence::ReplicaDivergence {
                        oid: record.oid,
                        depth: 0,
                    }],
                })
            }
            _ => Ok(()),
        }
    }

    /// Already durable (and, having passed `arriving`, byte-identical): the
    /// verifier re-verified it into its rolling state, skip the append.
    /// Absent: append, and flush once a batch is pending.
    fn verified(
        &mut self,
        record: StoredRecord,
        verifier: &StreamingVerifier<'_>,
    ) -> Result<(), NetError> {
        let key = (record.oid, record.seq_id);
        if self.local.contains_key(&key) {
            self.report.reverified += 1;
            return Ok(());
        }
        let bytes = record.to_bytes();
        self.replica.db.append(record).map_err(store_error)?;
        self.local.insert(key, bytes);
        self.report.new_records += 1;
        self.pending += 1;
        if self.pending >= self.replica.cfg.batch {
            self.flush(verifier)?;
        }
        Ok(())
    }

    /// Durability *before* the final verdict: everything appended was
    /// individually verified, and the sealed checkpoint must never outrun
    /// the fsynced log.
    fn before_verdict(&mut self, verifier: &StreamingVerifier<'_>) -> Result<(), NetError> {
        self.flush(verifier)
    }
}

/// [`AeOracle`] over the wire: each summary/node request is one
/// AE_REQ/AE_RESP round trip on an established connection.
struct WireOracle<'a> {
    conn: &'a mut Connection,
    /// Signed-root bytes from the latest summary reply that carried one,
    /// with the `(hash, leaf_count)` of that reply — validated by
    /// [`Replica::pin_signed_root`] after the descent.
    summary_root: Option<(Vec<u8>, Vec<u8>, u64)>,
}

impl WireOracle<'_> {
    fn exchange(&mut self, level: u32, index: u64) -> Result<(u64, u32, AeNodeInfo), AeError> {
        self.conn
            .writer
            .write_message(&Message::AeReq { level, index })
            .map_err(|e| AeError::Transport(e.to_string()))?;
        match self
            .conn
            .reader
            .read_message()
            .map_err(|e| AeError::Transport(e.to_string()))?
        {
            Some(Message::AeResp {
                leaf_count,
                depth,
                hash,
                children,
                oid,
                signed_root,
            }) => {
                if let Some(bytes) = signed_root {
                    self.summary_root = Some((bytes, hash.clone(), leaf_count));
                }
                Ok((
                    leaf_count,
                    depth,
                    AeNodeInfo {
                        hash,
                        children,
                        oid,
                    },
                ))
            }
            Some(Message::Error { code, detail, .. }) => Err(AeError::Protocol(format!(
                "peer refused AE_REQ ({code}): {detail}"
            ))),
            Some(_) => Err(AeError::Protocol("expected AE_RESP".into())),
            None => Err(AeError::Transport("connection closed".into())),
        }
    }
}

impl AeOracle for WireOracle<'_> {
    fn summary(&mut self) -> Result<AeSummary, AeError> {
        let (leaf_count, depth, info) = self.exchange(AE_SUMMARY_LEVEL, 0)?;
        Ok(AeSummary {
            leaf_count,
            depth,
            root: info.hash,
        })
    }

    fn node(&mut self, level: u32, index: u64) -> Result<AeNodeInfo, AeError> {
        let (_, _, info) = self.exchange(level, index)?;
        Ok(info)
    }
}

fn store_error(e: tep_storage::StoreError) -> NetError {
    NetError::Wire(WireError::Io(std::io::Error::other(e.to_string())))
}
