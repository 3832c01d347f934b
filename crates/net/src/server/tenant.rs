//! What a server serves, per tenant: the [`Catalog`], the [`TenantSpec`]
//! a caller lists it under, the [`TenantEnv`] it is served from, and the
//! `Retry-After` hint a shed connection gets.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex, PoisonError};

use tep_core::denial::SignedRoot;
use tep_core::merkle::{shard_tree_of, ShardTree};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::Participant;
use tep_model::{Forest, ObjectId, TenantId};
use tep_obs::{names, Counter, Registry};
use tep_query::QueryEngine;
use tep_storage::ProvenanceDb;

use crate::wire::{DataEntry, OfferEntry};

/// What a server serves: a snapshot of the data forest, the provenance
/// store, and the set of objects offered to clients.
pub struct Catalog {
    pub(super) forest: Forest,
    pub(super) db: Arc<ProvenanceDb>,
    pub(super) alg: HashAlgorithm,
    offered: Vec<ObjectId>,
    /// When set, misses are answered with signed non-membership proofs
    /// (DENIAL frames) and RANGE_REQ is served with completeness proofs;
    /// without it the server falls back to plain `ERR unknown-object`.
    pub(super) signer: Option<Arc<Participant>>,
}

impl Catalog {
    /// Builds a catalog offering `offered` (deduplicated, sorted).
    pub fn new(
        forest: Forest,
        db: Arc<ProvenanceDb>,
        alg: HashAlgorithm,
        mut offered: Vec<ObjectId>,
    ) -> Self {
        offered.sort();
        offered.dedup();
        Catalog {
            forest,
            db,
            alg,
            offered,
            signer: None,
        }
    }

    /// Equips the catalog with a signing identity: misses become signed
    /// DENIAL proofs, range requests carry completeness proofs, and
    /// anti-entropy summary replies attach the signed shard root.
    pub fn with_signer(mut self, signer: Arc<Participant>) -> Self {
        self.signer = Some(signer);
        self
    }

    /// The OFFER manifest.
    pub(crate) fn offer_entries(&self) -> Vec<OfferEntry> {
        self.offered
            .iter()
            .map(|&oid| OfferEntry {
                oid,
                records: self.db.records_for(oid).len() as u64,
                nodes: if self.forest.contains(oid) {
                    self.forest.subtree_ids(oid).len() as u64
                } else {
                    0
                },
            })
            .collect()
    }

    pub(super) fn is_offered(&self, oid: ObjectId) -> bool {
        self.offered.binary_search(&oid).is_ok()
    }

    /// The depth-tagged DFS preorder walk of `root`'s data subtree.
    pub(super) fn data_entries(&self, root: ObjectId) -> Vec<DataEntry> {
        let mut out = Vec::new();
        let mut work = vec![(0u16, root)];
        while let Some((depth, id)) = work.pop() {
            let Some(node) = self.forest.node(id) else {
                continue;
            };
            out.push(DataEntry {
                depth,
                id,
                value: node.value().clone(),
            });
            // Children pushed in reverse, so the smallest id pops first.
            let from = work.len();
            work.extend(node.children().map(|c| (depth + 1, c)));
            work[from..].reverse();
        }
        out
    }
}

/// The `Retry-After` hint sent with a shed connection, scaled to the
/// backlog the refused client would have waited behind (deterministic, so
/// tests can pin it).
pub(super) fn shed_retry_after_ms(backlog: usize) -> u64 {
    ((backlog as u64).saturating_add(1))
        .saturating_mul(25)
        .min(1_000)
}

/// One tenant's serving surface plus its connection quota, handed to
/// [`super::serve`]. Each tenant gets its own catalog (typically over its own
/// shard of a [`tep_storage::TenantShards`] root) so a fault or
/// quarantine in one tenant's log never touches another's. A tenant not
/// in the list is refused at HELLO with `ERR unknown-tenant`.
pub struct TenantSpec {
    /// The tenant scope this catalog serves.
    pub tenant: TenantId,
    /// What this tenant's connections can fetch/query.
    pub catalog: Arc<Catalog>,
    /// Max concurrently admitted connections for this tenant. Beyond it,
    /// HELLO answers retryable `ERR busy` with a `Retry-After` scaled to
    /// *this tenant's* backlog — one tenant's connect storm cannot eat
    /// another tenant's slots.
    pub max_connections: usize,
}

impl TenantSpec {
    /// A spec with no connection quota.
    pub fn new(tenant: TenantId, catalog: Arc<Catalog>) -> Self {
        TenantSpec {
            tenant,
            catalog,
            max_connections: usize::MAX,
        }
    }

    /// Caps concurrently admitted connections for this tenant.
    pub fn with_max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }
}

/// Per-tenant serving state: the catalog, query engine, anti-entropy
/// caches, connection quota, and tenant-labeled counters. Everything a
/// dispatch touches after admission lives here, so request handling for
/// tenant A can never read (or poison) tenant B's state.
pub(super) struct TenantEnv {
    pub(super) catalog: Arc<Catalog>,
    pub(super) max_connections: usize,
    /// Connections currently admitted under this tenant's scope; the
    /// quota check compares against this, the event loop decrements it
    /// when an admitted connection closes.
    pub(super) active: AtomicUsize,
    /// Serves QUERY frames over this tenant's record log; its secondary
    /// indexes tail the log lazily on each request.
    pub(super) query: QueryEngine,
    /// Anti-entropy shard tree over this tenant's record log and the
    /// signed root over that tree, cached together behind one record-count
    /// watermark: rebuilt and re-signed only when the log has grown since
    /// the cached build (the log is append-only, so equal length ⇒
    /// identical tree; signing is an RSA operation — far too expensive to
    /// redo per miss). One entry under one lock, so a root is never cached
    /// under a length its tree was not built at.
    shard_cache: Mutex<Option<(usize, ShardView)>>,
    /// Tenant-labeled mirrors of the admission counters (the unlabeled
    /// aggregates stay in [`super::ServerObs`]).
    pub(super) connections: Counter,
    pub(super) shed: Counter,
    pub(super) quota_sheds: Counter,
}

impl TenantEnv {
    /// Every listed tenant's state, keyed by raw tenant id. A tenant
    /// listed twice is refused before anything is registered: only one of
    /// its specs could be served, yet both would leave counters behind.
    pub(super) fn all(
        specs: Vec<TenantSpec>,
        registry: &Registry,
    ) -> io::Result<BTreeMap<u64, TenantEnv>> {
        let mut seen = BTreeSet::new();
        if let Some(dup) = specs.iter().find(|s| !seen.insert(s.tenant)) {
            let why = format!("tenant t{} is listed twice", dup.tenant.raw());
            return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        }
        Ok(specs
            .into_iter()
            .map(|spec| TenantEnv::new(spec, registry))
            .collect())
    }

    fn new(spec: TenantSpec, registry: &Registry) -> (u64, Self) {
        let t = spec.tenant.raw();
        let mut query = QueryEngine::new(Arc::clone(&spec.catalog.db), spec.catalog.alg);
        query.attach_obs(registry);
        let env = TenantEnv {
            catalog: spec.catalog,
            max_connections: spec.max_connections,
            active: AtomicUsize::new(0),
            query,
            shard_cache: Mutex::new(None),
            connections: registry.counter(&names::with_tenant(names::NET_CONNECTIONS, t)),
            shed: registry.counter(&names::with_tenant(names::NET_SHED, t)),
            quota_sheds: registry.counter(&names::with_tenant(names::NET_TENANT_QUOTA_SHEDS, t)),
        };
        (t, env)
    }

    /// The current shard tree and the signed root over that very tree,
    /// both from one read of the log length. The root is `None` when the
    /// catalog has no signing identity (or the signer's key refuses, which
    /// 512-bit test keys never do).
    ///
    /// `log_records` is the *cumulative* log high-water mark — frames
    /// excised by compaction still count — so a replica holding an older
    /// root can detect a server rolled back to a pre-compaction state.
    pub(super) fn shard_view(&self) -> ShardView {
        let mut cache = self
            .shard_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let len = self.catalog.db.len();
        if let Some((watermark, view)) = cache.as_ref() {
            if *watermark == len {
                return view.clone();
            }
        }
        let tree = Arc::new(shard_tree_of(self.catalog.alg, &self.catalog.db));
        let root = self.catalog.signer.as_ref().and_then(|signer| {
            let excised = self
                .catalog
                .db
                .recovery()
                .compaction
                .map(|s| s.excised_frames)
                .unwrap_or(0);
            let root = SignedRoot::sign(&tree, excised + len as u64, signer).ok()?;
            Some(Arc::new(root))
        });
        let view = (tree, root);
        *cache = Some((len, view.clone()));
        view
    }
}

/// A shard tree and, when the catalog signs, the signed root over it.
pub(super) type ShardView = (Arc<ShardTree>, Option<Arc<SignedRoot>>);
