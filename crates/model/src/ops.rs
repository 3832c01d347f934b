//! Primitive database operations as first-class values.
//!
//! Workload generators produce sequences of [`PrimitiveOp`]s; the provenance
//! tracker applies them to a [`Forest`] and documents each application with
//! a checksummed provenance record. Keeping operations as data also lets
//! complex operations (§4.4) batch them transactionally.

use crate::error::ModelError;
use crate::forest::{AggregateMode, Forest};
use crate::id::ObjectId;
use crate::value::Value;

/// A primitive database operation (§2 / §4.1 of the paper).
#[derive(Clone, Debug, PartialEq)]
pub enum PrimitiveOp {
    /// Add a new leaf object (a new root when `parent` is `None`).
    Insert {
        /// Explicit id for the new object, or `None` to auto-allocate.
        /// Workload generators pre-assign ids (from
        /// [`Forest::next_id_hint`]) so that later operations in the same
        /// batch can reference objects the batch itself creates (e.g. the
        /// cells of a freshly inserted row).
        id: Option<ObjectId>,
        /// Initial value.
        value: Value,
        /// Optional parent object.
        parent: Option<ObjectId>,
    },
    /// Remove an existing leaf object.
    Delete {
        /// Object to delete.
        id: ObjectId,
    },
    /// Replace an object's value.
    Update {
        /// Object to update.
        id: ObjectId,
        /// New value.
        value: Value,
    },
    /// Combine `subtree(A_1) … subtree(A_n)` into a new object.
    Aggregate {
        /// Input objects (must be distinct, non-nested).
        inputs: Vec<ObjectId>,
        /// Value for the output root.
        root_value: Value,
        /// Atomic output vs. deep-copied compound output.
        mode: AggregateMode,
    },
}

/// The observable outcome of applying a [`PrimitiveOp`].
#[derive(Clone, Debug, PartialEq)]
pub enum OpOutcome {
    /// A new object was created.
    Inserted(ObjectId),
    /// An object was removed; carries its final value.
    Deleted {
        /// The removed object.
        id: ObjectId,
        /// Its value at deletion time.
        old_value: Value,
    },
    /// An object's value changed.
    Updated {
        /// The updated object.
        id: ObjectId,
        /// The value before the update.
        old_value: Value,
    },
    /// An aggregation produced a new output object.
    Aggregated {
        /// The new output root.
        output: ObjectId,
        /// The aggregation inputs, in global order.
        inputs: Vec<ObjectId>,
    },
}

impl PrimitiveOp {
    /// Applies the operation to `forest`.
    pub fn apply(&self, forest: &mut Forest) -> Result<OpOutcome, ModelError> {
        match self {
            PrimitiveOp::Insert { id, value, parent } => match id {
                Some(id) => {
                    forest.insert_with_id(*id, value.clone(), *parent)?;
                    Ok(OpOutcome::Inserted(*id))
                }
                None => {
                    let id = forest.insert(value.clone(), *parent)?;
                    Ok(OpOutcome::Inserted(id))
                }
            },
            PrimitiveOp::Delete { id } => {
                let old_value = forest.delete(*id)?;
                Ok(OpOutcome::Deleted { id: *id, old_value })
            }
            PrimitiveOp::Update { id, value } => {
                let old_value = forest.update(*id, value.clone())?;
                Ok(OpOutcome::Updated { id: *id, old_value })
            }
            PrimitiveOp::Aggregate {
                inputs,
                root_value,
                mode,
            } => {
                let output = forest.aggregate(inputs, root_value.clone(), *mode)?;
                let mut sorted = inputs.clone();
                sorted.sort_unstable();
                Ok(OpOutcome::Aggregated {
                    output,
                    inputs: sorted,
                })
            }
        }
    }

    /// Short human-readable kind name.
    pub fn kind(&self) -> &'static str {
        match self {
            PrimitiveOp::Insert { .. } => "insert",
            PrimitiveOp::Delete { .. } => "delete",
            PrimitiveOp::Update { .. } => "update",
            PrimitiveOp::Aggregate { .. } => "aggregate",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_insert_update_delete() {
        let mut f = Forest::new();
        let out = PrimitiveOp::Insert {
            id: None,
            value: Value::Int(1),
            parent: None,
        }
        .apply(&mut f)
        .unwrap();
        let OpOutcome::Inserted(id) = out else {
            panic!("expected insert outcome")
        };

        let out = PrimitiveOp::Update {
            id,
            value: Value::Int(2),
        }
        .apply(&mut f)
        .unwrap();
        assert_eq!(
            out,
            OpOutcome::Updated {
                id,
                old_value: Value::Int(1)
            }
        );

        let out = PrimitiveOp::Delete { id }.apply(&mut f).unwrap();
        assert_eq!(
            out,
            OpOutcome::Deleted {
                id,
                old_value: Value::Int(2)
            }
        );
        assert!(f.is_empty());
    }

    #[test]
    fn apply_aggregate_sorts_inputs() {
        let mut f = Forest::new();
        let a = f.insert(Value::Int(1), None).unwrap();
        let b = f.insert(Value::Int(2), None).unwrap();
        let out = PrimitiveOp::Aggregate {
            inputs: vec![b, a],
            root_value: Value::Int(3),
            mode: AggregateMode::Atomic,
        }
        .apply(&mut f)
        .unwrap();
        let OpOutcome::Aggregated { inputs, .. } = out else {
            panic!("expected aggregate outcome")
        };
        assert_eq!(inputs, vec![a, b]);
    }

    #[test]
    fn errors_propagate() {
        let mut f = Forest::new();
        assert!(PrimitiveOp::Delete { id: ObjectId(5) }
            .apply(&mut f)
            .is_err());
        assert!(PrimitiveOp::Update {
            id: ObjectId(5),
            value: Value::Null
        }
        .apply(&mut f)
        .is_err());
    }

    #[test]
    fn kind_names() {
        assert_eq!(
            PrimitiveOp::Insert {
                id: None,
                value: Value::Null,
                parent: None
            }
            .kind(),
            "insert"
        );
        assert_eq!(PrimitiveOp::Delete { id: ObjectId(0) }.kind(), "delete");
    }
}
