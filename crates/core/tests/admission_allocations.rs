//! Heap allocations per admitted record, counted by a thread-local
//! counting allocator: the recipient's fold must pay a constant number per
//! record — its bookkeeping of the record's checksum and predecessor
//! edges — and nothing per signature check, however long the history.
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

/// Allocations a record costs the fold, at most: a copy of its checksum
/// for its successors and its predecessor list, plus the amortized growth
/// of the fold's ordered maps and push-order log. The signature check
/// itself — message, batch path, digests, RSA block — allocates nothing.
const PER_RECORD: f64 = 2.5;

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
/// decoding the record, and pushing it.
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
    let before = allocations();
    for bytes in &frames {
        let row = StoredRecord::from_bytes(bytes).unwrap();
        let record = ProvenanceRecord::from_stored(&row).unwrap();
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
}
