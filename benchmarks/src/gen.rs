//! Seeded input generators. The program under test only ever sees what
//! these produce; the same `--seed` gives the same inputs. Nothing here
//! knows a library type: objects are `u64` ids, values are `i64`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

// --------------------------------------------------------------------------
// ingest_mixed
// --------------------------------------------------------------------------

pub struct Row {
    pub id: u64,
    pub cells: Vec<u64>,
}

pub struct Table {
    pub id: u64,
    pub rows: Vec<Row>,
}

/// One complex operation of the producer path.
pub enum IngestOp {
    /// Update 4 cells: 2 in each of 2 rows of one table.
    Update { cells: Vec<(u64, i64)> },
    /// Insert a row and its cells (a 9-node subtree) under `table`.
    InsertRow { table: u64, values: Vec<i64> },
    /// Delete a row: its cells leaf-first, then the row.
    DeleteRow { row: u64, cells: Vec<u64> },
    /// Atomic-mode aggregate of two rows into a new root object.
    Aggregate { rows: [u64; 2], value: i64 },
}

impl IngestOp {
    pub fn class(&self) -> usize {
        match self {
            IngestOp::Update { .. } => 0,
            IngestOp::InsertRow { .. } => 1,
            IngestOp::DeleteRow { .. } => 2,
            IngestOp::Aggregate { .. } => 3,
        }
    }
}

pub const INGEST_CLASSES: [&str; 4] = ["update", "insert_row", "delete_row", "aggregate"];

/// The 70/10/10/10 mix, exact over every block of ten operations (the order
/// inside a block is seeded), so records/op and bytes/record do not wander
/// with the seed.
const BLOCK: [usize; 10] = [0, 0, 0, 0, 0, 0, 0, 1, 2, 3];

pub struct IngestGen {
    rng: StdRng,
    pub tables: Vec<Table>,
    cells_per_row: usize,
    block: [usize; 10],
    at: usize,
    /// Table the pending `InsertRow` went to, until `inserted` reports ids.
    pending_insert: Option<usize>,
}

impl IngestGen {
    pub fn new(seed: u64, tables: Vec<Table>, cells_per_row: usize) -> IngestGen {
        IngestGen {
            rng: rng(seed, 1),
            tables,
            cells_per_row,
            block: BLOCK,
            at: BLOCK.len(),
            pending_insert: None,
        }
    }

    pub fn next_op(&mut self) -> IngestOp {
        if self.at == self.block.len() {
            self.block.shuffle(&mut self.rng);
            self.at = 0;
        }
        let class = self.block[self.at];
        self.at += 1;
        let t = self.rng.gen_range(0..self.tables.len());
        match class {
            0 => {
                let (a, b) = self.two_rows(t);
                let mut cells = Vec::with_capacity(4);
                for r in [a, b] {
                    let c0 = self.rng.gen_range(0..self.cells_per_row);
                    let c1 = (c0 + 1 + self.rng.gen_range(0..self.cells_per_row - 1))
                        % self.cells_per_row;
                    for c in [c0, c1] {
                        let v = self.rng.gen_range(0..1_000_000i64);
                        cells.push((self.tables[t].rows[r].cells[c], v));
                    }
                }
                IngestOp::Update { cells }
            }
            1 => {
                self.pending_insert = Some(t);
                let values = (0..self.cells_per_row)
                    .map(|_| self.rng.gen_range(0..1_000_000i64))
                    .collect();
                IngestOp::InsertRow {
                    table: self.tables[t].id,
                    values,
                }
            }
            2 => {
                // The larger table gives up a row, so neither ever runs dry.
                let t = (0..self.tables.len())
                    .max_by_key(|&i| self.tables[i].rows.len())
                    .expect("at least one table");
                let r = self.rng.gen_range(0..self.tables[t].rows.len());
                let row = self.tables[t].rows.swap_remove(r);
                IngestOp::DeleteRow {
                    row: row.id,
                    cells: row.cells,
                }
            }
            _ => {
                let (a, b) = self.two_rows(t);
                let rows = &self.tables[t].rows;
                IngestOp::Aggregate {
                    rows: [rows[a].id, rows[b].id],
                    value: self.rng.gen_range(0..1_000_000i64),
                }
            }
        }
    }

    /// Reports the ids an `InsertRow` created: the row, then its cells.
    pub fn inserted(&mut self, created: &[u64]) {
        if let Some(t) = self.pending_insert.take() {
            self.tables[t].rows.push(Row {
                id: created[0],
                cells: created[1..].to_vec(),
            });
        }
    }

    fn two_rows(&mut self, t: usize) -> (usize, usize) {
        let n = self.tables[t].rows.len();
        let a = self.rng.gen_range(0..n);
        let b = (a + 1 + self.rng.gen_range(0..n - 1)) % n;
        (a, b)
    }
}

// --------------------------------------------------------------------------
// audit_live
// --------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    Lineage,
    Ancestors,
    Descendants,
    Polynomial,
    Audit,
}

/// A provenance query: `target` is an object id, or a participant id (1-based)
/// for an audit.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    pub kind: QueryKind,
    pub target: u64,
}

/// One step of building a 16-record derivation cluster. Indices refer to the
/// cluster's own objects in creation order.
pub enum ClusterStep {
    Insert { value: i64 },
    Update { obj: usize, value: i64 },
    Aggregate { inputs: Vec<usize>, value: i64 },
}

/// 6 inserts, 6 updates, 2 three-input aggregates, 1 update, 1 closing
/// aggregate: 16 records over 9 objects. Object 0 (the cluster root) feeds
/// the first aggregate, object 8 closes the cluster.
pub fn cluster_steps(rng: &mut StdRng) -> Vec<ClusterStep> {
    let mut val = || rng.gen_range(0..1_000_000i64);
    let mut steps: Vec<ClusterStep> = (0..6)
        .map(|_| ClusterStep::Insert { value: val() })
        .collect();
    let mut updated: Vec<usize> = (0..6).collect();
    updated.shuffle(rng);
    for obj in updated {
        let value = rng.gen_range(0..1_000_000i64);
        steps.push(ClusterStep::Update { obj, value });
    }
    let mut others = [1usize, 2, 3, 4, 5];
    others.shuffle(rng);
    for inputs in [vec![0, others[0], others[1]], others[2..].to_vec()] {
        let value = rng.gen_range(0..1_000_000i64);
        steps.push(ClusterStep::Aggregate { inputs, value });
    }
    let value = rng.gen_range(0..1_000_000i64);
    steps.push(ClusterStep::Update { obj: 6, value });
    let value = rng.gen_range(0..1_000_000i64);
    steps.push(ClusterStep::Aggregate {
        inputs: vec![6, 7],
        value,
    });
    steps
}

pub const CLUSTER_RECORDS: usize = 16;

/// A finished cluster: where backward queries start (the closer) and where
/// forward ones do (the root).
#[derive(Clone, Copy)]
pub struct Cluster {
    pub root: u64,
    pub closer: u64,
}
