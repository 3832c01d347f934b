//! Heap allocations per admitted record, counted by a thread-local
//! counting allocator: the recipient's fold keeps a record's checksum and
//! predecessor edges in flat lists and pays nothing per signature check,
//! however long the history, and decoding an arriving row into the one
//! record a transfer keeps reuses that record's buffers.
//!
//! `cargo test -p tep-core --test admission_allocations -- --nocapture`
//! prints the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tep_core::hashing::HashingStrategy;
use tep_core::provenance::{collect, collect_rows};
use tep_core::streaming::DepthStreamHasher;
use tep_core::verify::StreamingVerifier;
use tep_core::{ChecksumFormat, ProvenanceRecord, ProvenanceTracker, TrackerConfig};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{CertificateAuthority, KeyDirectory, ParticipantId};
use tep_model::{ObjectId, Value};
use tep_storage::{ProvenanceDb, StoredRecord};

/// Counts this thread's allocations (the test threads run concurrently;
/// each counts only its own).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local `Cell`, which neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

/// Allocations a record costs the fold, at most: the amortized growth of
/// its checksum arena, predecessor list, push-order log and slot index.
/// The signature check itself — message, batch path, digests, RSA block —
/// allocates nothing.
const PER_RECORD: f64 = 0.5;

/// Allocations an arriving record costs, at most: its row's two owned
/// buffers (checksum and payload) and its admission. Decoding the row into
/// the transfer's record allocates nothing once that record has held a
/// row as large.
const PER_ARRIVAL: f64 = 2.5;

/// A history of `rounds` updates of a cell in a table row. The table's
/// provenance is its insert (signed alone: v2) and one inherited record
/// per round (signed once with the cell's and the row's: v3). Returns its
/// rows and records in wire order, the keys, and the table.
fn history(
    rounds: i64,
) -> (
    Vec<(StoredRecord, ProvenanceRecord)>,
    KeyDirectory,
    ObjectId,
) {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let ca = CertificateAuthority::new(512, ALG, &mut rng);
    let signer = ca.enroll(ParticipantId(1), 512, &mut rng);
    let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
    keys.register(signer.certificate().clone()).unwrap();
    let db = Arc::new(ProvenanceDb::in_memory());
    let mut t = ProvenanceTracker::new(
        TrackerConfig {
            alg: ALG,
            strategy: HashingStrategy::Economical,
        },
        Arc::clone(&db),
    );
    let (table, _) = t.insert(&signer, Value::text("t"), None).unwrap();
    let (row, _) = t.insert(&signer, Value::Null, Some(table)).unwrap();
    let (cell, _) = t.insert(&signer, Value::Int(0), Some(row)).unwrap();
    for i in 1..=rounds {
        t.update(&signer, cell, Value::Int(i)).unwrap();
    }
    let rows = collect_rows(&db, table).unwrap();
    let records = collect(&db, table).unwrap().records;
    let formats: Vec<ChecksumFormat> = records.iter().map(|r| r.checksum_format).collect();
    assert!(formats.contains(&ChecksumFormat::PerRecord));
    assert!(formats.contains(&ChecksumFormat::Batched));
    (rows.into_iter().zip(records).collect(), keys, table)
}

/// Pushes every record as a transport does, with the row it arrived as;
/// returns the records and the allocations the pushes made, then the
/// allocations the arrivals made as a whole: decoding the row's bytes,
/// decoding the record into the one the transfer keeps, and pushing it.
fn count(rounds: i64) -> (u64, u64, u64) {
    let (history, keys, target) = history(rounds);
    let mut verifier = StreamingVerifier::new(&keys, ALG, target);
    let before = allocations();
    for (row, record) in &history {
        assert_eq!(verifier.push_record((record, row)), 0);
    }
    let pushes = allocations() - before;
    assert_eq!(verifier.finish(&[]).records_checked, history.len());

    let frames: Vec<Vec<u8>> = history.iter().map(|(row, _)| row.to_bytes()).collect();
    let mut verifier = StreamingVerifier::new(&keys, ALG, target);
    let mut record = ProvenanceRecord::default();
    let before = allocations();
    for bytes in &frames {
        let row = StoredRecord::from_bytes(bytes).unwrap();
        record.read_stored(&row).unwrap();
        assert_eq!(verifier.push_record((&record, &row)), 0);
    }
    let arrivals = allocations() - before;
    (history.len() as u64, pushes, arrivals)
}

/// The marginal cost of a record: what 70 more rounds cost per record
/// they add. A verifier's one-off costs (its first buffers, the key's
/// Montgomery context) cancel out.
#[test]
fn admission_allocations_per_record_stay_constant() {
    let (short_n, short, short_arrival) = count(10);
    let (long_n, long, long_arrival) = count(80);
    let added = (long_n - short_n) as f64;
    let admission = (long - short) as f64 / added;
    let arrival = (long_arrival - short_arrival) as f64 / added;
    println!(
        "allocations per record: admission {admission:.2}, arrival {arrival:.2} \
         ({short_n} → {long_n} records)"
    );
    assert!(
        admission <= PER_RECORD,
        "{admission:.2} allocations per admitted record"
    );
    assert!(
        arrival <= PER_ARRIVAL,
        "{arrival:.2} allocations per arriving record"
    );
}

/// Allocations one `DepthStreamHasher` makes over the preorder of a table
/// of `rows` rows of four cells: three levels, `1 + 5 * rows` nodes.
fn stream_allocations(rows: u64) -> (u64, u64) {
    let mut hasher = DepthStreamHasher::new(ALG);
    let before = allocations();
    hasher.push(0, ObjectId(1), &Value::text("")).unwrap();
    for row in 0..rows {
        let id = 2 + row * 5;
        hasher.push(1, ObjectId(id), &Value::Null).unwrap();
        for cell in 1..=4 {
            let value = Value::Int((row * 4 + cell) as i64);
            hasher.push(2, ObjectId(id + cell), &value).unwrap();
        }
    }
    let (_, nodes) = hasher.finish().unwrap();
    (nodes, allocations() - before)
}

/// A DATA stream costs the recipient's hasher allocations per level of the
/// tree, never per node: every node prefix is built in one reused buffer
/// and every child hash folds in from the stack.
#[test]
fn depth_stream_hashing_allocates_per_level_not_per_node() {
    let (small_nodes, small) = stream_allocations(20);
    let (nodes, large) = stream_allocations(200);
    println!("depth-stream allocations: {small} over {small_nodes} nodes, {large} over {nodes}");
    assert_eq!(nodes, 1_001);
    assert_eq!(large, small, "allocations grew with the node count");
    assert!(large <= 2 * 3 + 1, "{large} allocations over three levels");
}
