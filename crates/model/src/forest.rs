//! The database abstraction: a forest of object trees (§4.1).
//!
//! A [`Forest`] owns every atomic object and maintains the parent/child
//! relationships that make compound objects. It supports exactly the
//! paper's primitive operations — leaf insert, leaf delete, value update,
//! and aggregation — plus the traversals (subtree walks, ancestor chains)
//! the provenance layer needs.

use crate::error::ModelError;
use crate::id::ObjectId;
use crate::idhash::IdMap;
use crate::node::Node;
use crate::value::Value;
use std::collections::BTreeSet;

/// A stale-hash notice produced by a forest mutation.
///
/// The forest appends one mark per primitive mutation to an internal dirty
/// log; the provenance layer's hash cache drains the log and invalidates
/// exactly the root-to-leaf paths the mutations dirtied (the paper's
/// "economical" evaluation, §4.3/§5). Paths are resolved lazily at drain
/// time — parent links of live nodes never change, so the ancestor chain
/// observed then matches the one at mutation time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirtyMark {
    /// `id` is live and its subtree hash — and every ancestor's — is stale.
    Path(ObjectId),
    /// `id` was deleted: its cached hash must be evicted, and the former
    /// parent's path (recorded here because `id` no longer resolves) is
    /// stale.
    Removed {
        /// The deleted object.
        id: ObjectId,
        /// Its parent at deletion time, if it was not a root.
        parent: Option<ObjectId>,
    },
}

/// How an aggregation produces its output object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateMode {
    /// The output is a single atomic object whose value is supplied by the
    /// caller (a black-box combination, e.g. a sum or a user-defined
    /// function) — the Figure 2 case.
    Atomic,
    /// The output is a new compound object: a fresh root whose children are
    /// deep copies (with fresh ids) of the input subtrees — e.g. assembling
    /// an aggregate table from rows of other tables.
    CopySubtrees,
}

/// A forest of data objects with unique identifiers.
///
/// ```
/// use tep_model::{Forest, Value};
///
/// let mut f = Forest::new();
/// let table = f.insert(Value::text("patients"), None).unwrap();
/// let row = f.insert(Value::Null, Some(table)).unwrap();
/// let cell = f.insert(Value::Int(42), Some(row)).unwrap();
/// assert_eq!(f.ancestors(cell), vec![row, table]);
/// assert_eq!(f.subtree_size(table), 3);
/// let old = f.update(cell, Value::Int(43)).unwrap();
/// assert_eq!(old, Value::Int(42));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Forest {
    nodes: IdMap<Node>,
    roots: BTreeSet<ObjectId>,
    next_id: u64,
    /// Mutations since the last [`Self::drain_dirty`], oldest first.
    dirty: Vec<DirtyMark>,
}

impl Forest {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of atomic objects.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the forest holds no objects.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// `true` iff `id` names a live object.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Looks up a node.
    pub fn node(&self, id: ObjectId) -> Option<&Node> {
        self.nodes.get(&id)
    }

    /// Looks up a node, failing with [`ModelError::UnknownObject`].
    pub fn get(&self, id: ObjectId) -> Result<&Node, ModelError> {
        self.nodes.get(&id).ok_or(ModelError::UnknownObject(id))
    }

    /// Root objects in `ObjectId` order.
    pub fn roots(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.roots.iter().copied()
    }

    /// All object ids (unordered).
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.nodes.keys().copied()
    }

    /// The id the next auto-allocated insert would receive. Workload
    /// generators use this to pre-assign ids for batched inserts.
    pub fn next_id_hint(&self) -> ObjectId {
        ObjectId(self.next_id)
    }

    fn alloc_id(&mut self) -> ObjectId {
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Inserts a new leaf object with `value` under `parent` (or as a new
    /// root when `parent` is `None`). Returns the fresh id.
    pub fn insert(
        &mut self,
        value: Value,
        parent: Option<ObjectId>,
    ) -> Result<ObjectId, ModelError> {
        if let Some(p) = parent {
            if !self.nodes.contains_key(&p) {
                return Err(ModelError::UnknownParent(p));
            }
        }
        let id = self.alloc_id();
        self.attach_new(id, value, parent);
        Ok(id)
    }

    /// Inserts with a caller-chosen id (tests and replay). Fails on collision.
    pub fn insert_with_id(
        &mut self,
        id: ObjectId,
        value: Value,
        parent: Option<ObjectId>,
    ) -> Result<(), ModelError> {
        if self.nodes.contains_key(&id) {
            return Err(ModelError::DuplicateObject(id));
        }
        if let Some(p) = parent {
            if !self.nodes.contains_key(&p) {
                return Err(ModelError::UnknownParent(p));
            }
        }
        self.attach_new(id, value, parent);
        self.next_id = self.next_id.max(id.0 + 1);
        Ok(())
    }

    fn attach_new(&mut self, id: ObjectId, value: Value, parent: Option<ObjectId>) {
        self.nodes.insert(id, Node::new(id, value, parent));
        match parent {
            Some(p) => self
                .nodes
                .get_mut(&p)
                .expect("parent checked by caller")
                .add_child(id),
            None => {
                self.roots.insert(id);
            }
        }
        self.dirty.push(DirtyMark::Path(id));
    }

    /// Pending dirty marks, oldest first (inspection only — use
    /// [`Self::drain_dirty`] to consume them).
    pub fn dirty_marks(&self) -> &[DirtyMark] {
        &self.dirty
    }

    /// Takes (and clears) the dirty log accumulated since the last drain.
    pub fn drain_dirty(&mut self) -> Vec<DirtyMark> {
        std::mem::take(&mut self.dirty)
    }

    /// Discards the dirty log without processing it. Call after adopting a
    /// freshly built forest whose hashes were never cached — replaying its
    /// construction marks would be pure overhead.
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Updates an object's value, returning the previous value.
    pub fn update(&mut self, id: ObjectId, value: Value) -> Result<Value, ModelError> {
        let node = self
            .nodes
            .get_mut(&id)
            .ok_or(ModelError::UnknownObject(id))?;
        let old = node.set_value(value);
        self.dirty.push(DirtyMark::Path(id));
        Ok(old)
    }

    /// Deletes a **leaf** object, returning its last value.
    pub fn delete(&mut self, id: ObjectId) -> Result<Value, ModelError> {
        let node = self.nodes.get(&id).ok_or(ModelError::UnknownObject(id))?;
        if !node.is_leaf() {
            return Err(ModelError::NotALeaf(id));
        }
        let parent = node.parent();
        let node = self.nodes.remove(&id).expect("checked above");
        match parent {
            Some(p) => {
                if let Some(pn) = self.nodes.get_mut(&p) {
                    pn.remove_child(id);
                }
            }
            None => {
                self.roots.remove(&id);
            }
        }
        self.dirty.push(DirtyMark::Removed { id, parent });
        Ok(node.value().clone())
    }

    /// Removes an entire subtree (post-order), returning the removed ids.
    ///
    /// Not one of the paper's primitives — complex operations express it as
    /// a sequence of leaf deletes — but useful for workload generation.
    pub fn delete_subtree(&mut self, id: ObjectId) -> Result<Vec<ObjectId>, ModelError> {
        if !self.contains(id) {
            return Err(ModelError::UnknownObject(id));
        }
        let order = self.subtree_ids_postorder(id);
        for &n in &order {
            self.delete(n).expect("post-order makes each node a leaf");
        }
        Ok(order)
    }

    /// Aggregates `subtree(A1)…subtree(An)` into a new root object.
    ///
    /// Inputs must exist, be distinct, and not be nested inside one another.
    /// Returns the id of the new root `B`. Inputs are left untouched (as in
    /// Figure 2, where `A` continues to evolve after being aggregated).
    pub fn aggregate(
        &mut self,
        inputs: &[ObjectId],
        root_value: Value,
        mode: AggregateMode,
    ) -> Result<ObjectId, ModelError> {
        self.validate_aggregation_inputs(inputs)?;
        let out = self.alloc_id();
        self.attach_new(out, root_value, None);
        if mode == AggregateMode::CopySubtrees {
            // Copy inputs in global order so the result is deterministic.
            let mut sorted: Vec<ObjectId> = inputs.to_vec();
            sorted.sort_unstable();
            for src in sorted {
                self.deep_copy(src, Some(out));
            }
        }
        Ok(out)
    }

    fn validate_aggregation_inputs(&self, inputs: &[ObjectId]) -> Result<(), ModelError> {
        if inputs.is_empty() {
            return Err(ModelError::EmptyAggregation);
        }
        let mut seen = BTreeSet::new();
        for &id in inputs {
            self.get(id)?;
            if !seen.insert(id) {
                return Err(ModelError::DuplicateAggregationInput(id));
            }
        }
        for &id in inputs {
            for anc in self.ancestors(id) {
                if seen.contains(&anc) {
                    return Err(ModelError::NestedAggregationInput {
                        inner: id,
                        outer: anc,
                    });
                }
            }
        }
        Ok(())
    }

    /// Deep-copies `subtree(src)` under `parent` with fresh ids; returns the
    /// id of the copy's root.
    pub(crate) fn deep_copy(&mut self, src: ObjectId, parent: Option<ObjectId>) -> ObjectId {
        let value = self
            .nodes
            .get(&src)
            .expect("source validated by caller")
            .value()
            .clone();
        let children: Vec<ObjectId> = self.nodes[&src].children().collect();
        let copy = self.alloc_id();
        self.attach_new(copy, value, parent);
        for child in children {
            self.deep_copy(child, Some(copy));
        }
        copy
    }

    /// Ancestors of `id`, nearest first (excluding `id` itself).
    pub fn ancestors(&self, id: ObjectId) -> Vec<ObjectId> {
        let mut out = Vec::new();
        let mut cur = self.nodes.get(&id).and_then(Node::parent);
        while let Some(p) = cur {
            out.push(p);
            cur = self.nodes.get(&p).and_then(Node::parent);
        }
        out
    }

    /// Subtree ids in DFS pre-order (children in `ObjectId` order).
    pub fn subtree_ids(&self, id: ObjectId) -> Vec<ObjectId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if let Some(node) = self.nodes.get(&n) {
                out.push(n);
                // Push in reverse so the smallest child pops first.
                let children: Vec<ObjectId> = node.children().collect();
                for c in children.into_iter().rev() {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// Subtree ids in post-order (every node appears after its children).
    pub fn subtree_ids_postorder(&self, id: ObjectId) -> Vec<ObjectId> {
        let mut out = self.subtree_ids(id);
        out.reverse();
        out
    }

    /// Number of nodes in `subtree(id)` (0 if `id` is unknown).
    pub fn subtree_size(&self, id: ObjectId) -> usize {
        self.subtree_ids(id).len()
    }

    /// Depth of `id` below its root (root depth = 0).
    pub fn depth(&self, id: ObjectId) -> usize {
        self.ancestors(id).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Forest, ObjectId, ObjectId, ObjectId, ObjectId) {
        // A(root) -> B -> D ; A -> C   (Figure 4 shape)
        let mut f = Forest::new();
        let a = f.insert(Value::text("a"), None).unwrap();
        let b = f.insert(Value::text("b"), Some(a)).unwrap();
        let c = f.insert(Value::text("c"), Some(a)).unwrap();
        let d = f.insert(Value::text("d"), Some(b)).unwrap();
        (f, a, b, c, d)
    }

    #[test]
    fn insert_builds_structure() {
        let (f, a, b, c, d) = sample();
        assert_eq!(f.len(), 4);
        assert_eq!(f.roots().collect::<Vec<_>>(), vec![a]);
        assert_eq!(
            f.node(a).unwrap().children().collect::<Vec<_>>(),
            vec![b, c]
        );
        assert_eq!(f.node(d).unwrap().parent(), Some(b));
        assert_eq!(f.depth(d), 2);
    }

    #[test]
    fn insert_unknown_parent_fails() {
        let mut f = Forest::new();
        assert_eq!(
            f.insert(Value::Null, Some(ObjectId(99))),
            Err(ModelError::UnknownParent(ObjectId(99)))
        );
        assert!(f.is_empty());
    }

    #[test]
    fn insert_with_id_rejects_duplicates() {
        let mut f = Forest::new();
        f.insert_with_id(ObjectId(7), Value::Int(1), None).unwrap();
        assert_eq!(
            f.insert_with_id(ObjectId(7), Value::Int(2), None),
            Err(ModelError::DuplicateObject(ObjectId(7)))
        );
        // Fresh ids must not collide with explicitly chosen ones.
        let next = f.insert(Value::Int(3), None).unwrap();
        assert!(next > ObjectId(7));
    }

    #[test]
    fn update_returns_old_value() {
        let (mut f, _, b, _, _) = sample();
        let old = f.update(b, Value::text("b2")).unwrap();
        assert_eq!(old, Value::text("b"));
        assert_eq!(f.node(b).unwrap().value(), &Value::text("b2"));
        assert!(f.update(ObjectId(99), Value::Null).is_err());
    }

    #[test]
    fn delete_leaf_only() {
        let (mut f, a, b, c, d) = sample();
        assert_eq!(f.delete(b), Err(ModelError::NotALeaf(b)));
        assert_eq!(f.delete(d).unwrap(), Value::text("d"));
        // b became a leaf; now deletable.
        f.delete(b).unwrap();
        f.delete(c).unwrap();
        f.delete(a).unwrap();
        assert!(f.is_empty());
        assert_eq!(f.roots().count(), 0);
    }

    #[test]
    fn delete_subtree_removes_everything() {
        let (mut f, a, b, _, _) = sample();
        let removed = f.delete_subtree(b).unwrap();
        assert_eq!(removed.len(), 2); // d then b
        assert_eq!(f.len(), 2);
        assert!(f.contains(a));
    }

    #[test]
    fn ancestors_nearest_first() {
        let (f, a, b, _, d) = sample();
        assert_eq!(f.ancestors(d), vec![b, a]);
        assert_eq!(f.ancestors(a), Vec::<ObjectId>::new());
    }

    #[test]
    fn subtree_traversals() {
        let (f, a, b, c, d) = sample();
        assert_eq!(f.subtree_ids(a), vec![a, b, d, c]);
        assert_eq!(f.subtree_ids_postorder(a), vec![c, d, b, a]);
        assert_eq!(f.subtree_size(a), 4);
        assert_eq!(f.subtree_size(b), 2);
        assert_eq!(f.subtree_size(ObjectId(99)), 0);
    }

    #[test]
    fn aggregate_atomic_creates_root() {
        let (mut f, a, _, c, _) = sample();
        let out = f.aggregate(&[a, c], Value::Int(42), AggregateMode::Atomic);
        // c is inside a's subtree → nested input error.
        assert!(matches!(
            out,
            Err(ModelError::NestedAggregationInput { .. })
        ));

        let e = f.insert(Value::Int(5), None).unwrap();
        let out = f
            .aggregate(&[a, e], Value::Int(42), AggregateMode::Atomic)
            .unwrap();
        assert!(f.roots().any(|r| r == out));
        assert!(f.node(out).unwrap().is_leaf());
        // Inputs are untouched.
        assert!(f.contains(a) && f.contains(e));
    }

    #[test]
    fn aggregate_copy_subtrees() {
        let (mut f, a, _, _, _) = sample();
        let e = f.insert(Value::Int(5), None).unwrap();
        let before = f.len();
        let out = f
            .aggregate(&[e, a], Value::text("agg"), AggregateMode::CopySubtrees)
            .unwrap();
        // Copies of subtree(a) (4 nodes) + subtree(e) (1 node) + new root.
        assert_eq!(f.len(), before + 4 + 1 + 1);
        assert_eq!(f.node(out).unwrap().child_count(), 2);
        assert_eq!(f.subtree_size(out), 6);
        // Original subtree unchanged.
        assert_eq!(f.subtree_size(a), 4);
    }

    #[test]
    fn aggregate_validates_inputs() {
        let (mut f, a, _, _, _) = sample();
        assert_eq!(
            f.aggregate(&[], Value::Null, AggregateMode::Atomic),
            Err(ModelError::EmptyAggregation)
        );
        assert_eq!(
            f.aggregate(&[a, a], Value::Null, AggregateMode::Atomic),
            Err(ModelError::DuplicateAggregationInput(a))
        );
        assert_eq!(
            f.aggregate(&[ObjectId(99)], Value::Null, AggregateMode::Atomic),
            Err(ModelError::UnknownObject(ObjectId(99)))
        );
    }

    #[test]
    fn dirty_log_tracks_mutations() {
        let (mut f, a, b, _c, d) = sample();
        // Construction pushed one Path mark per insert.
        assert_eq!(f.dirty_marks().len(), 4);
        f.clear_dirty();
        assert!(f.dirty_marks().is_empty());

        f.update(d, Value::text("d2")).unwrap();
        assert_eq!(f.dirty_marks(), &[DirtyMark::Path(d)]);

        f.delete(d).unwrap();
        assert_eq!(
            f.drain_dirty(),
            vec![
                DirtyMark::Path(d),
                DirtyMark::Removed {
                    id: d,
                    parent: Some(b)
                }
            ]
        );
        assert!(f.dirty_marks().is_empty());

        // Root deletes record parent: None; failed ops record nothing.
        assert!(f.update(ObjectId(99), Value::Null).is_err());
        assert!(f.delete(a).is_err()); // not a leaf
        assert!(f.dirty_marks().is_empty());
        f.delete(b).unwrap();
        f.drain_dirty();
        let e = f.insert(Value::Int(1), None).unwrap();
        f.drain_dirty();
        f.delete(e).unwrap();
        assert_eq!(
            f.drain_dirty(),
            vec![DirtyMark::Removed {
                id: e,
                parent: None
            }]
        );
    }

    #[test]
    fn deep_copy_preserves_values_with_fresh_ids() {
        let (mut f, a, _, _, _) = sample();
        let copy = f.deep_copy(a, None);
        assert_ne!(copy, a);
        assert_eq!(f.subtree_size(copy), 4);
        let orig_vals: Vec<Value> = f
            .subtree_ids(a)
            .iter()
            .map(|&i| f.node(i).unwrap().value().clone())
            .collect();
        let copy_vals: Vec<Value> = f
            .subtree_ids(copy)
            .iter()
            .map(|&i| f.node(i).unwrap().value().clone())
            .collect();
        assert_eq!(orig_vals, copy_vals);
    }
}
