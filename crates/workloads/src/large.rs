//! The large-scale streaming workload (§5.2): the `Title` table.
//!
//! The paper hashes a single-table database of 18,962,041 rows with two
//! fields — `Document ID (integer)` and `Title (varchar)` — for a total of
//! 56,886,125 nodes (3 per row + table + root), one row at a time. This
//! module generates such a table lazily so databases far larger than memory
//! can be hashed through [`tep_core::streaming`].

use tep_core::streaming::DepthStreamHasher;
use tep_crypto::digest::HashAlgorithm;
use tep_model::{ObjectId, Value};

/// The paper's exact row count.
pub const PAPER_TITLE_ROWS: u64 = 18_962_041;

/// Reserved ids: 0 = database root, 1 = the title table.
const ROOT_ID: ObjectId = ObjectId(0);
const TABLE_ID: ObjectId = ObjectId(1);
const FIRST_ROW_BASE: u64 = 2;

/// One generated row of the Title table.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct TitleRow {
    /// Structural row node id.
    pub row_id: ObjectId,
    /// `(cell id, value)` pairs: Document ID then Title, ids increasing.
    pub cells: [(ObjectId, Value); 2],
}

/// Lazily generates Title-table rows with deterministic ids and contents.
pub(crate) struct TitleRowIter {
    next: u64,
    rows: u64,
}

impl TitleRowIter {
    /// Iterator over `rows` generated rows.
    pub(crate) fn new(rows: u64) -> Self {
        TitleRowIter { next: 0, rows }
    }
}

impl Iterator for TitleRowIter {
    type Item = TitleRow;

    fn next(&mut self) -> Option<TitleRow> {
        if self.next >= self.rows {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let base = FIRST_ROW_BASE + i * 3;
        Some(TitleRow {
            row_id: ObjectId(base),
            cells: [
                (ObjectId(base + 1), Value::Int(i as i64)),
                (
                    ObjectId(base + 2),
                    // Deterministic pseudo-title; length varies with i the
                    // way real titles do.
                    Value::text(format!("Study of subject {} under condition {}", i, i % 97)),
                ),
            ],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.rows - self.next) as usize;
        (left, Some(left))
    }
}

/// Result of streaming the Title database.
#[derive(Clone, Debug)]
pub struct TitleHashResult {
    /// Hash of the database root (root → table → rows → cells).
    pub hash: Vec<u8>,
    /// Total nodes hashed, including table and root.
    pub nodes: u64,
}

/// Streams and hashes a generated Title database of `rows` rows without
/// materializing it — the paper's §5.2 experiment.
pub fn stream_title_database(alg: HashAlgorithm, rows: u64) -> TitleHashResult {
    // Depth-tagged preorder: root 0, table 1, each row 2 then its cells 3.
    let mut h = DepthStreamHasher::new(alg);
    let mut push = |depth, id, value: &Value| {
        h.push(depth, id, value)
            .expect("generated ids are strictly increasing")
    };
    push(0, ROOT_ID, &Value::text("title-db"));
    push(1, TABLE_ID, &Value::text("Title"));
    for row in TitleRowIter::new(rows) {
        push(2, row.row_id, &Value::Null);
        for (id, value) in &row.cells {
            push(3, *id, value);
        }
    }
    let (hash, nodes) = h.finish().expect("generated ids are strictly increasing");
    TitleHashResult { hash, nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tep_core::hashing::subtree_hash;
    use tep_model::Forest;

    const ALG: HashAlgorithm = HashAlgorithm::Sha1;

    /// Node count for a Title database of `rows` rows (3 per row + table +
    /// root).
    fn title_node_count(rows: u64) -> u64 {
        rows * 3 + 2
    }

    #[test]
    fn paper_row_count_implies_paper_node_count() {
        // 18,962,041 rows → 56,886,125 nodes (§5.2).
        assert_eq!(title_node_count(PAPER_TITLE_ROWS), 56_886_125);
    }

    #[test]
    fn iterator_yields_exact_rows_with_increasing_ids() {
        let rows: Vec<TitleRow> = TitleRowIter::new(5).collect();
        assert_eq!(rows.len(), 5);
        let mut last = ObjectId(0);
        for r in &rows {
            assert!(r.row_id > last);
            assert!(r.cells[0].0 > r.row_id);
            assert!(r.cells[1].0 > r.cells[0].0);
            last = r.cells[1].0;
        }
        assert_eq!(TitleRowIter::new(3).size_hint(), (3, Some(3)));
    }

    #[test]
    fn generation_is_deterministic() {
        let a: Vec<TitleRow> = TitleRowIter::new(10).collect();
        let b: Vec<TitleRow> = TitleRowIter::new(10).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn streamed_hash_matches_materialized_forest() {
        const ROWS: u64 = 200;
        // Materialize the identical structure in a forest.
        let mut f = Forest::new();
        f.insert_with_id(ROOT_ID, Value::text("title-db"), None)
            .unwrap();
        f.insert_with_id(TABLE_ID, Value::text("Title"), Some(ROOT_ID))
            .unwrap();
        for row in TitleRowIter::new(ROWS) {
            f.insert_with_id(row.row_id, Value::Null, Some(TABLE_ID))
                .unwrap();
            for (cid, v) in &row.cells {
                f.insert_with_id(*cid, v.clone(), Some(row.row_id)).unwrap();
            }
        }
        let expected = subtree_hash(ALG, &f, ROOT_ID);

        let result = stream_title_database(ALG, ROWS);
        assert_eq!(result.hash, expected);
        assert_eq!(result.nodes, title_node_count(ROWS));
        assert_eq!(result.nodes as usize, f.len());
    }
}
