//! Relational view: database → table → row → cell trees.
//!
//! The paper's experiments view "the back-end database as a tree of depth 4,
//! with a single root node, and subsequent levels representing tables, rows,
//! and cells" (§5.1). These helpers build and navigate that shape on top of
//! [`Forest`].

use crate::error::ModelError;
use crate::forest::Forest;
use crate::id::ObjectId;
use crate::value::Value;

/// Handle to a generated table and its structure.
#[derive(Clone, Debug)]
pub struct TableHandle {
    /// The table node.
    pub id: ObjectId,
    /// One handle per row, in creation order.
    pub rows: Vec<RowHandle>,
}

/// Handle to a generated row and its cells.
#[derive(Clone, Debug)]
pub struct RowHandle {
    /// The row node.
    pub id: ObjectId,
    /// Cell nodes in attribute order.
    pub cells: Vec<ObjectId>,
}

impl TableHandle {
    /// Total node count of the table subtree (table + rows + cells).
    pub fn node_count(&self) -> usize {
        1 + self.rows.len() + self.rows.iter().map(|r| r.cells.len()).sum::<usize>()
    }
}

/// Creates the single database root node.
pub fn create_root(forest: &mut Forest, name: &str) -> ObjectId {
    forest
        .insert(Value::text(name), None)
        .expect("root insert cannot fail")
}

/// Creates an empty table under `root`.
pub(crate) fn create_table(
    forest: &mut Forest,
    root: ObjectId,
    name: &str,
) -> Result<ObjectId, ModelError> {
    forest.insert(Value::text(name), Some(root))
}

/// Appends a row (a `Null`-valued structural node) to `table`.
pub(crate) fn create_row(forest: &mut Forest, table: ObjectId) -> Result<ObjectId, ModelError> {
    forest.insert(Value::Null, Some(table))
}

/// Appends a cell with `value` to `row`.
pub(crate) fn create_cell(
    forest: &mut Forest,
    row: ObjectId,
    value: Value,
) -> Result<ObjectId, ModelError> {
    forest.insert(value, Some(row))
}

/// Builds a full table of `num_rows × num_attrs` cells under `root`.
///
/// `cell_value` is called with `(row_index, attr_index)` for each cell.
pub fn build_table(
    forest: &mut Forest,
    root: ObjectId,
    name: &str,
    num_rows: usize,
    num_attrs: usize,
    mut cell_value: impl FnMut(usize, usize) -> Value,
) -> Result<TableHandle, ModelError> {
    let table = create_table(forest, root, name)?;
    let mut rows = Vec::with_capacity(num_rows);
    for r in 0..num_rows {
        let row = create_row(forest, table)?;
        let mut cells = Vec::with_capacity(num_attrs);
        for a in 0..num_attrs {
            cells.push(create_cell(forest, row, cell_value(r, a))?);
        }
        rows.push(RowHandle { id: row, cells });
    }
    Ok(TableHandle { id: table, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_four_structure() {
        let mut f = Forest::new();
        let root = create_root(&mut f, "db");
        let t = build_table(&mut f, root, "t1", 3, 2, |r, a| {
            Value::Int((r * 10 + a) as i64)
        })
        .unwrap();
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0].cells.len(), 2);
        // 1 root + 1 table + 3 rows + 6 cells
        assert_eq!(f.len(), 11);
        assert_eq!(t.node_count(), 10);
        // Depth: root=0, table=1, row=2, cell=3.
        assert_eq!(f.depth(root), 0);
        assert_eq!(f.depth(t.id), 1);
        assert_eq!(f.depth(t.rows[0].id), 2);
        assert_eq!(f.depth(t.rows[0].cells[0]), 3);
        // Cell values match the generator.
        assert_eq!(f.node(t.rows[2].cells[1]).unwrap().value(), &Value::Int(21));
    }

    #[test]
    fn paper_table_one_node_count() {
        // Table 1(a) row 1: 8 attributes × 4000 rows → 36 002 nodes
        // including the root (1 + 1 + 4000 + 32000).
        let mut f = Forest::new();
        let root = create_root(&mut f, "db");
        build_table(&mut f, root, "t1", 4000, 8, |_, _| Value::Int(0)).unwrap();
        assert_eq!(f.len(), 36_002);
    }
}
