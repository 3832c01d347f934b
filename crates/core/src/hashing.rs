//! Compound-object hashing (§4.3 of the paper).
//!
//! The hash of a compound object is defined recursively, Merkle-style
//! (Fig. 5): `h(subtree(A)) = H(prefix(A) ‖ h(c₁) ‖ … ‖ h(c_k) ‖ k)` with
//! children in global `ObjectId` order. Atomic objects hash as
//! `h(A, val) = H(TAG_ATOM ‖ A ‖ val)` (§3).
//!
//! [`HashCache`] implements the two evaluation strategies the paper
//! compares in Figure 7:
//!
//! * **Basic** — re-walk the whole tree for every operation (the cache is
//!   cleared first); cost is proportional to database size regardless of
//!   how little changed.
//! * **Economical** — keep per-node hashes, invalidate only the nodes an
//!   operation dirtied (the touched node plus its root path), and recompute
//!   bottom-up reusing every clean child hash; cost tracks the size of the
//!   change. [`HashCache::rehash_roots`] visits only the roots a
//!   [`HashCache::sync`] dirtied, so not even the number of roots shows.

use tep_crypto::digest::{Digest, HashAlgorithm};
use tep_model::encode::{atom_preimage, node_prefix_into};
use tep_model::idhash::IdMap;
use tep_model::{DirtyMark, Forest, ObjectId, Value};
use tep_obs::{Counter, Registry};

/// Cache instrumentation: `tep_core_cache_{hits,misses,evictions}_total`.
/// Hits count the clean child subtrees a recompute reuses (a probe of a
/// walk root that is already cached does no work and counts nothing);
/// misses count nodes actually hashed; evictions count entries dropped by
/// invalidation, dirty-log sync, or a Basic-strategy clear.
#[derive(Clone, Debug)]
struct CacheObs {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

/// Hash of an atomic object: the paper's `h(A, val)` (§3).
pub fn hash_atom(alg: HashAlgorithm, id: ObjectId, value: &Value) -> Vec<u8> {
    alg.digest(&atom_preimage(id, value))
}

/// Which hashing strategy the tracker uses (§4.3, "Economical Approach").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HashingStrategy {
    /// Re-hash the whole tree on every operation.
    Basic,
    /// Cache per-node hashes and recompute only dirtied paths.
    #[default]
    Economical,
}

/// A cache of `h(subtree(n))` for forest nodes.
///
/// Entries are inline [`Digest`] values (not `Vec<u8>`), so a warm cache of
/// `n` nodes is one flat hash map with no per-node heap allocations.
#[derive(Clone, Debug, Default)]
pub struct HashCache {
    alg: HashAlgorithm,
    hashes: IdMap<Digest>,
    /// Subtree hash computations performed since the last counter reset
    /// (one per node hashed) — the work metric behind Figure 7.
    nodes_hashed: u64,
    /// `true` once [`Self::rehash_roots`] has walked every root since the
    /// cache was created or cleared. From then on every live root is
    /// cached except those in `dirty_roots`.
    warm: bool,
    /// Roots whose paths `sync` evicted since the last `rehash_roots`
    /// (noted only while warm; may repeat, may name deleted objects).
    dirty_roots: Vec<ObjectId>,
    /// Optional tep-obs counters (hit/miss/eviction).
    obs: Option<CacheObs>,
}

impl HashCache {
    /// Creates an empty cache for `alg`.
    pub fn new(alg: HashAlgorithm) -> Self {
        HashCache {
            alg,
            hashes: IdMap::default(),
            nodes_hashed: 0,
            warm: false,
            dirty_roots: Vec::new(),
            obs: None,
        }
    }

    /// Attaches tep-obs hit/miss/eviction counters
    /// (`tep_core_cache_*_total`).
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = Some(CacheObs {
            hits: registry.counter("tep_core_cache_hits_total"),
            misses: registry.counter("tep_core_cache_misses_total"),
            evictions: registry.counter("tep_core_cache_evictions_total"),
        });
    }

    #[inline]
    fn count_evictions(&self, n: u64) {
        if n > 0 {
            if let Some(obs) = &self.obs {
                obs.evictions.add(n);
            }
        }
    }

    /// The configured hash algorithm.
    pub fn algorithm(&self) -> HashAlgorithm {
        self.alg
    }

    /// Cached hash for `id`, if present.
    pub fn get(&self, id: ObjectId) -> Option<&[u8]> {
        self.hashes.get(&id).map(Digest::as_slice)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Nodes hashed since the counter was last reset.
    pub fn nodes_hashed(&self) -> u64 {
        self.nodes_hashed
    }

    /// Resets the work counter (start of a measured phase).
    pub(crate) fn reset_counter(&mut self) {
        self.nodes_hashed = 0;
    }

    /// Drains the forest's dirty log and applies exactly the invalidations
    /// it calls for: the touched node plus its root path per mutation, and
    /// eviction (plus the former parent's path) per deletion.
    ///
    /// This is the economical mode's incremental step: after `sync`, a
    /// [`Self::get_or_compute`] on a root rehashes only the dirtied paths
    /// and reuses every clean subtree hash. A warm cache also notes the
    /// root each evicted path ends in, for [`Self::rehash_roots`].
    pub fn sync(&mut self, forest: &mut Forest) {
        let marks = forest.drain_dirty();
        for mark in marks {
            match mark {
                DirtyMark::Path(id) => self.evict_path(forest, id),
                DirtyMark::Removed { id, parent } => {
                    self.hashes.remove(&id);
                    if let Some(p) = parent {
                        self.evict_path(forest, p);
                    }
                }
            }
        }
    }

    /// Evicts `id` and its root path, with an early exit for batch
    /// draining: evictions always remove whole root paths and a computed
    /// node always has its full subtree cached, so once an *ancestor*
    /// turns out to be already absent the rest of its path is absent too.
    /// (The start node is evicted unconditionally — a freshly inserted
    /// node is absent while its ancestors still hold stale entries.)
    ///
    /// A warm cache notes the root when the walk reaches it. An early exit
    /// needs no note: the absent ancestor went, by an earlier eviction or
    /// as a fresh insert whose own mark came first, since the last
    /// [`Self::rehash_roots`], and its root was noted then.
    fn evict_path(&mut self, forest: &Forest, id: ObjectId) {
        let mut evicted = u64::from(self.hashes.remove(&id).is_some());
        let mut top = id;
        let reached_root = loop {
            match forest.node(top).and_then(|n| n.parent()) {
                None => break true,
                Some(p) if self.hashes.remove(&p).is_some() => {
                    evicted += 1;
                    top = p;
                }
                Some(_) => break false,
            }
        };
        self.count_evictions(evicted);
        if self.warm && reached_root {
            self.dirty_roots.push(top);
        }
    }

    /// Clears everything (the Basic strategy does this before each walk).
    /// The next [`Self::rehash_roots`] walks every root again.
    pub fn clear(&mut self) {
        self.count_evictions(self.hashes.len() as u64);
        self.hashes.clear();
        self.warm = false;
        self.dirty_roots.clear();
    }

    /// Makes every live root's hash current, visiting only the roots the
    /// [`Self::sync`]s since the last call dirtied.
    ///
    /// A cold cache — new, [`Self::clear`]ed, or never walked over every
    /// root — walks every root once. After that walk each live root is
    /// cached except the ones `sync` notes, so a warm call probes only the
    /// noted roots that are still live roots: an operation's hashing work
    /// is proportional to what it dirtied, not to the number of roots.
    pub fn rehash_roots(&mut self, forest: &Forest) {
        if !self.warm {
            for root in forest.roots() {
                self.compute(forest, root);
            }
            self.warm = true;
            return;
        }
        let mut roots = std::mem::take(&mut self.dirty_roots);
        roots.sort_unstable();
        roots.dedup();
        for root in roots.drain(..) {
            if forest.node(root).is_some_and(|n| n.parent().is_none()) {
                self.compute(forest, root);
            }
        }
        self.dirty_roots = roots;
    }

    /// Returns `h(subtree(id))`, computing any missing entries bottom-up and
    /// reusing every cached descendant (the Economical evaluation).
    ///
    /// # Panics
    /// Panics if `id` is not in the forest.
    pub fn get_or_compute(&mut self, forest: &Forest, id: ObjectId) -> Vec<u8> {
        self.compute(forest, id).to_vec()
    }

    /// [`Self::get_or_compute`] without copying the digest out.
    fn compute(&mut self, forest: &Forest, id: ObjectId) -> &Digest {
        if self.hashes.contains_key(&id) {
            return &self.hashes[&id];
        }
        let mut hits = 0u64;
        let mut misses = 0u64;
        // Iterative post-order: compute children before parents without
        // recursing (trees may be arbitrarily deep). Only cache misses are
        // ever pushed (each node has one parent, so no node is pushed
        // twice), and every preimage is assembled in one reused buffer and
        // hashed in a single shot — no per-node allocation.
        // Stack entries: (node, children_scheduled).
        let mut preimage: Vec<u8> = Vec::with_capacity(256);
        let mut stack: Vec<(ObjectId, bool)> = vec![(id, false)];
        while let Some((n, expanded)) = stack.pop() {
            let node = forest
                .node(n)
                .unwrap_or_else(|| panic!("object {n} not in forest"));
            if expanded {
                preimage.clear();
                node_prefix_into(node.id(), node.value(), &mut preimage);
                let mut count = 0u64;
                for child in node.children() {
                    let ch = self
                        .hashes
                        .get(&child)
                        .expect("children computed before parent");
                    preimage.extend_from_slice(ch.as_slice());
                    count += 1;
                }
                preimage.extend_from_slice(&count.to_be_bytes());
                self.hashes.insert(n, self.alg.digest_fixed(&preimage));
                self.nodes_hashed += 1;
                misses += 1;
            } else {
                stack.push((n, true));
                for child in node.children() {
                    if !self.hashes.contains_key(&child) {
                        stack.push((child, false));
                    } else {
                        hits += 1;
                    }
                }
            }
        }
        if let Some(obs) = &self.obs {
            obs.hits.add(hits);
            obs.misses.add(misses);
        }
        &self.hashes[&id]
    }
}

/// One-shot subtree hash without a persistent cache.
pub fn subtree_hash(alg: HashAlgorithm, forest: &Forest, id: ObjectId) -> Vec<u8> {
    HashCache::new(alg).get_or_compute(forest, id)
}

/// Hash of an entire database (forest): the fold of all root hashes in
/// `ObjectId` order under a domain-separated prefix.
///
/// This is the "database hash" of Figure 6: hash every tree, then combine.
pub fn forest_hash(alg: HashAlgorithm, forest: &Forest, cache: &mut HashCache) -> Vec<u8> {
    let mut hasher = alg.hasher();
    hasher.update(b"TEP-FOREST\x01");
    let mut count = 0u64;
    for root in forest.roots() {
        let h = cache.get_or_compute(forest, root);
        hasher.update(&h);
        count += 1;
    }
    hasher.update(&count.to_be_bytes());
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tep_model::relational;

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    fn small_tree() -> (Forest, ObjectId, ObjectId, ObjectId, ObjectId) {
        // Figure 4: A -> {B -> {D}, C}
        let mut f = Forest::new();
        let a = f.insert(Value::text("a"), None).unwrap();
        let b = f.insert(Value::text("b"), Some(a)).unwrap();
        let c = f.insert(Value::text("c"), Some(a)).unwrap();
        let d = f.insert(Value::text("d"), Some(b)).unwrap();
        (f, a, b, c, d)
    }

    #[test]
    fn atom_hash_binds_id_and_value() {
        let h1 = hash_atom(ALG, ObjectId(1), &Value::Int(5));
        let h2 = hash_atom(ALG, ObjectId(2), &Value::Int(5));
        let h3 = hash_atom(ALG, ObjectId(1), &Value::Int(6));
        assert_ne!(h1, h2);
        assert_ne!(h1, h3);
        assert_eq!(h1.len(), 32);
    }

    #[test]
    fn subtree_hash_changes_with_any_descendant() {
        let (mut f, a, _, _, d) = small_tree();
        let before = subtree_hash(ALG, &f, a);
        f.update(d, Value::text("d2")).unwrap();
        let after = subtree_hash(ALG, &f, a);
        assert_ne!(before, after);
    }

    #[test]
    fn subtree_hash_changes_with_structure() {
        let (mut f, a, _, c, _) = small_tree();
        let before = subtree_hash(ALG, &f, a);
        f.delete(c).unwrap();
        let after = subtree_hash(ALG, &f, a);
        assert_ne!(before, after);
    }

    #[test]
    fn leaf_hash_differs_from_atom_hash() {
        // Compound (subtree) hashing of a leaf and §3 atomic hashing are
        // distinct domains by construction.
        let mut f = Forest::new();
        let a = f.insert(Value::Int(1), None).unwrap();
        assert_ne!(subtree_hash(ALG, &f, a), hash_atom(ALG, a, &Value::Int(1)));
    }

    #[test]
    fn stale_cache_detected_until_sync() {
        let (mut f, a, _, _, d) = small_tree();
        let mut cache = HashCache::new(ALG);
        let stale = cache.get_or_compute(&f, a);
        f.update(d, Value::text("d2")).unwrap();
        // Without invalidation the cache would (wrongly) return the old value;
        // draining the dirty log is what keeps Economical correct.
        assert_eq!(cache.get_or_compute(&f, a), stale);
        cache.sync(&mut f);
        assert_ne!(cache.get_or_compute(&f, a), stale);
    }

    #[test]
    fn sync_applies_dirty_marks() {
        let (mut f, a, _b, c, d) = small_tree();
        let mut cache = HashCache::new(ALG);
        f.clear_dirty();
        cache.get_or_compute(&f, a);

        // Update D: sync invalidates exactly D's root path; C survives.
        f.update(d, Value::text("d2")).unwrap();
        cache.reset_counter();
        cache.sync(&mut f);
        assert_eq!(cache.len(), 1); // only C
        let h = cache.get_or_compute(&f, a);
        assert_eq!(cache.nodes_hashed(), 3); // D, B, A — not C
        assert_eq!(h, subtree_hash(ALG, &f, a));

        // Delete C: the Removed mark evicts C and dirties A's path.
        f.delete(c).unwrap();
        cache.sync(&mut f);
        assert!(cache.get(c).is_none());
        assert_eq!(cache.get_or_compute(&f, a), subtree_hash(ALG, &f, a));
        assert!(f.dirty_marks().is_empty());
    }

    #[test]
    fn forest_hash_covers_all_roots() {
        let mut f = Forest::new();
        let r1 = f.insert(Value::Int(1), None).unwrap();
        let _r2 = f.insert(Value::Int(2), None).unwrap();
        let mut cache = HashCache::new(ALG);
        let h = forest_hash(ALG, &f, &mut cache);
        f.update(r1, Value::Int(99)).unwrap();
        cache.sync(&mut f);
        assert_ne!(forest_hash(ALG, &f, &mut cache), h);
    }

    #[test]
    fn sibling_order_is_by_id_not_insertion() {
        // Hash must not depend on insertion order of siblings.
        let mut f1 = Forest::new();
        let r1 = f1.insert(Value::Null, None).unwrap();
        f1.insert_with_id(ObjectId(10), Value::Int(1), Some(r1))
            .unwrap();
        f1.insert_with_id(ObjectId(20), Value::Int(2), Some(r1))
            .unwrap();

        let mut f2 = Forest::new();
        let r2 = f2.insert(Value::Null, None).unwrap();
        f2.insert_with_id(ObjectId(20), Value::Int(2), Some(r2))
            .unwrap();
        f2.insert_with_id(ObjectId(10), Value::Int(1), Some(r2))
            .unwrap();

        assert_eq!(subtree_hash(ALG, &f1, r1), subtree_hash(ALG, &f2, r2));
    }

    #[test]
    fn relational_tree_hash_is_deterministic() {
        let build = || {
            let mut f = Forest::new();
            let root = relational::create_root(&mut f, "db");
            relational::build_table(&mut f, root, "t", 50, 4, |r, a| {
                Value::Int((r * 100 + a) as i64)
            })
            .unwrap();
            (f, root)
        };
        let (f1, r1) = build();
        let (f2, r2) = build();
        assert_eq!(subtree_hash(ALG, &f1, r1), subtree_hash(ALG, &f2, r2));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut f = Forest::new();
        let mut parent = f.insert(Value::Int(0), None).unwrap();
        let root = parent;
        for i in 1..50_000 {
            parent = f.insert(Value::Int(i), Some(parent)).unwrap();
        }
        // Iterative traversal must handle a 50k-deep chain.
        let h = subtree_hash(ALG, &f, root);
        assert_eq!(h.len(), 32);
    }
}
