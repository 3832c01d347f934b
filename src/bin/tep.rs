//! `tep` — command-line tool for inspecting, verifying, and maintaining
//! tamper-evident provenance logs.
//!
//! ```text
//! tep demo <dir>                      generate a demo log + keyring
//! tep stats <log> [--metrics]         store statistics (+ metric registry)
//! tep history <log> <oid>             one object's record chain
//! tep blame <log> <oid>               most recent modifier
//! tep participants <log> <oid>        everyone who touched the object
//! tep dot <log> <oid>                 provenance DAG in Graphviz DOT
//! tep export <log> <oid>              provenance DAG as OPM-style JSON
//! tep verify <log> <oid> --keys <kr>  verify provenance integrity
//!            [--hash <hex>]           …against a delivered object hash
//! tep query <log> <op> <target>       provenance query with slice proof
//!           [--participant N] [--depth N] [--seq-range A..B] [--keys <kr>]
//!                                     op: ancestors | descendants |
//!                                     lineage | audit | polynomial
//! tep compact <log> <out> --live a,b  GC: keep only records reachable
//!                                     from the listed live objects
//! tep prove <snapshot> <root> <target> --out <file>
//!                                     Merkle inclusion proof for one node
//! tep check-proof <file> --root-hash <hex> [--int N | --text S]
//!                                     verify a proof (optionally a value)
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::sync::Arc;
use tepdb::core::{collect, gc, ProvenanceRecord, RecordKind, Verifier};
use tepdb::crypto::hex;
use tepdb::crypto::Keyring;
use tepdb::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tep: {e}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  tep demo <dir>");
            eprintln!("  tep stats <log> [--metrics]");
            eprintln!("  tep history <log> <oid>");
            eprintln!("  tep blame <log> <oid>");
            eprintln!("  tep participants <log> <oid>");
            eprintln!("  tep dot <log> <oid>");
            eprintln!("  tep export <log> <oid>");
            eprintln!("  tep verify <log> <oid> --keys <keyring> [--hash <hex>]");
            eprintln!(
                "  tep query <log> <op> <target> [--participant N] [--depth N] [--seq-range A..B] [--keys <keyring>]"
            );
            eprintln!("  tep compact <log> <out> --live <oid,oid,...>");
            eprintln!("  tep prove <snapshot> <root> <target> --out <file>");
            eprintln!("  tep check-proof <file> --root-hash <hex> [--int N | --text S]");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "demo" => demo(args.get(1).ok_or("demo needs a directory")?),
        "stats" => stats(args),
        "history" => history(open_db(args.get(1))?, parse_oid(args.get(2))?),
        "blame" => blame(open_db(args.get(1))?, parse_oid(args.get(2))?),
        "participants" => participants(open_db(args.get(1))?, parse_oid(args.get(2))?),
        "dot" => dot(open_db(args.get(1))?, parse_oid(args.get(2))?),
        "export" => export(open_db(args.get(1))?, parse_oid(args.get(2))?),
        "verify" => verify(args),
        "query" => query_cmd(args),
        "compact" => compact(args),
        "prove" => prove_cmd(args),
        "check-proof" => check_proof(args),
        other => Err(format!("unknown subcommand: {other}")),
    }
}

fn open_db(path: Option<&String>) -> Result<ProvenanceDb, String> {
    let path = path.ok_or("missing <log> path")?;
    ProvenanceDb::durable(path).map_err(|e| format!("cannot open {path}: {e}"))
}

fn parse_oid(arg: Option<&String>) -> Result<ObjectId, String> {
    let raw = arg.ok_or("missing <oid>")?;
    let raw = raw.strip_prefix('#').unwrap_or(raw);
    raw.parse::<u64>()
        .map(ObjectId)
        .map_err(|_| format!("invalid object id: {raw}"))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
}

fn stats(args: &[String]) -> Result<(), String> {
    let with_metrics = args.iter().any(|a| a == "--metrics");
    let path = args
        .get(1)
        .filter(|a| a.as_str() != "--metrics")
        .ok_or("missing <log> path")?;

    // With --metrics the log is opened through an ObservedVfs so the open
    // itself populates the tep_storage_* I/O and recovery counters.
    let registry = tepdb::obs::Registry::new();
    let db = if with_metrics {
        let vfs = tepdb::storage::ObservedVfs::wrap(tepdb::storage::vfs::real_vfs(), &registry);
        let db = ProvenanceDb::durable_with(vfs, std::path::Path::new(path))
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        tepdb::storage::record_recovery(&registry, &db.recovery());
        db
    } else {
        open_db(Some(path))?
    };

    let (mut inserts, mut updates, mut aggregates) = (0, 0, 0);
    let mut activity: BTreeMap<ParticipantId, usize> = BTreeMap::new();
    for stored in db.all_records() {
        match decode(&stored)?.kind {
            RecordKind::Insert => inserts += 1,
            RecordKind::Update => updates += 1,
            RecordKind::Aggregate => aggregates += 1,
        }
        *activity.entry(stored.participant).or_insert(0) += 1;
    }
    println!("records:      {}", db.len());
    println!("objects:      {}", db.object_ids().len());
    println!("inserts:      {inserts}");
    println!("updates:      {updates}");
    println!("aggregates:   {aggregates}");
    println!("participants: {}", activity.len());
    println!("row bytes:    {}", db.paper_row_bytes());
    println!("\nactivity:");
    for (p, n) in activity {
        println!("  {p}: {n} record(s)");
    }
    if with_metrics {
        println!("\nmetrics:");
        print!("{}", registry.render_text());
    }
    Ok(())
}

/// Decodes one stored record, with the store's corruption message.
fn decode(stored: &StoredRecord) -> Result<ProvenanceRecord, String> {
    ProvenanceRecord::from_stored(stored).map_err(|e| CoreError::from(e).to_string())
}

/// One object's decoded history, in `seqID` order.
fn history_of(db: &ProvenanceDb, oid: ObjectId) -> Result<Vec<ProvenanceRecord>, String> {
    db.records_for(oid).iter().map(decode).collect()
}

fn history(db: ProvenanceDb, oid: ObjectId) -> Result<(), String> {
    let records = history_of(&db, oid)?;
    if records.is_empty() {
        return Err(format!("no records for {oid}"));
    }
    println!("history of {oid} ({} records):", records.len());
    for r in records {
        let inputs: Vec<String> = r
            .inputs
            .iter()
            .map(|i| match i.prev_seq {
                Some(s) => format!("{}@{}", i.oid, s),
                None => format!("{}@-", i.oid),
            })
            .collect();
        let note = r
            .annotation_text()
            .map(|t| format!("  \"{t}\""))
            .unwrap_or_default();
        println!(
            "  seq {:>4}  {:<9}  by {:<6}  inputs [{}]  checksum {}…{}",
            r.seq_id,
            r.kind.name(),
            r.participant.to_string(),
            inputs.join(", "),
            hex::to_hex(&r.checksum[..8.min(r.checksum.len())]),
            note,
        );
    }
    Ok(())
}

fn blame(db: ProvenanceDb, oid: ObjectId) -> Result<(), String> {
    match db.latest_for(oid) {
        Some(r) => {
            println!(
                "{oid} last modified by {} (record seq {})",
                r.participant, r.seq_id
            );
            Ok(())
        }
        None => Err(format!("no records for {oid}")),
    }
}

fn participants(db: ProvenanceDb, oid: ObjectId) -> Result<(), String> {
    let ps: BTreeSet<ParticipantId> = history_of(&db, oid)?
        .into_iter()
        .map(|r| r.participant)
        .collect();
    if ps.is_empty() {
        return Err(format!("no records for {oid}"));
    }
    for p in ps {
        println!("{p}");
    }
    Ok(())
}

fn dot(db: ProvenanceDb, oid: ObjectId) -> Result<(), String> {
    let prov = collect(&db, oid).map_err(|e| e.to_string())?;
    print!("{}", prov.to_dot());
    Ok(())
}

fn export(db: ProvenanceDb, oid: ObjectId) -> Result<(), String> {
    let prov = collect(&db, oid).map_err(|e| e.to_string())?;
    print!("{}", tepdb::core::to_opm_json(&prov));
    Ok(())
}

fn verify(args: &[String]) -> Result<(), String> {
    let db = open_db(args.get(1))?;
    let oid = parse_oid(args.get(2))?;
    let keyring_path = flag_value(args, "--keys").ok_or("verify needs --keys <keyring>")?;
    let keyring_bytes =
        std::fs::read(keyring_path).map_err(|e| format!("cannot read {keyring_path}: {e}"))?;
    let keyring = Keyring::from_bytes(&keyring_bytes).ok_or("malformed keyring file")?;
    let alg = keyring.algorithm();
    let keys = keyring
        .into_directory()
        .map_err(|e| format!("keyring validation failed: {e}"))?;

    let recovery = db.recovery();
    if recovery.is_degraded() {
        eprintln!(
            "warning: log opened in degraded mode ({} corrupt range(s), {} byte(s) quarantined)",
            recovery.gaps.len(),
            recovery.quarantined_bytes
        );
    }
    let prov = collect(&db, oid).map_err(|e| e.to_string())?;
    // With --hash we check the delivered object against the provenance;
    // without it we check internal integrity only (the latest record's
    // claimed output is taken as the object state).
    let expected = match flag_value(args, "--hash") {
        Some(h) => hex::from_hex(h).ok_or("invalid --hash hex")?,
        None => {
            let latest = prov.latest().ok_or("object has no records")?;
            eprintln!("note: no --hash given; checking internal integrity only");
            latest.output_hash.clone()
        }
    };

    let v = Verifier::new(&keys, alg).verify_recovered(&expected, &prov, &recovery);
    println!(
        "{} records checked, {} participants",
        v.records_checked,
        v.participants.len()
    );
    if v.verified() {
        println!("VERIFIED: provenance of {oid} is intact");
        Ok(())
    } else {
        for issue in &v.issues {
            println!("TAMPER EVIDENCE: {issue}");
        }
        Err(format!("{} integrity violation(s) found", v.issues.len()))
    }
}

fn query_cmd(args: &[String]) -> Result<(), String> {
    use tepdb::query::{QueryAnswer, QueryBounds, QueryEngine, QueryOp, QuerySpec};

    let path = args.get(1).ok_or("missing <log> path")?;
    let op_raw = args
        .get(2)
        .ok_or("query needs an operator: ancestors | descendants | lineage | audit | polynomial")?;
    let op = QueryOp::parse(op_raw).ok_or_else(|| format!("unknown operator: {op_raw}"))?;

    let mut bounds = QueryBounds::default();
    if let Some(d) = flag_value(args, "--depth") {
        bounds.max_depth = Some(d.parse().map_err(|_| "invalid --depth")?);
    }
    if let Some(r) = flag_value(args, "--seq-range") {
        let (lo, hi) = r.split_once("..").ok_or("--seq-range wants A..B")?;
        bounds.seq_range = Some((
            lo.parse().map_err(|_| "invalid --seq-range start")?,
            hi.parse().map_err(|_| "invalid --seq-range end")?,
        ));
    }
    let participant = flag_value(args, "--participant")
        .map(|p| p.parse::<u64>().map(ParticipantId))
        .transpose()
        .map_err(|_| "invalid --participant")?;
    let spec = if op == QueryOp::AuditSlice {
        // The audit target is a participant; accept it positionally too.
        let p = participant
            .or_else(|| {
                args.get(3)
                    .and_then(|s| s.parse::<u64>().ok())
                    .map(ParticipantId)
            })
            .ok_or("audit needs --participant <id> (or a positional participant id)")?;
        QuerySpec {
            bounds,
            ..QuerySpec::audit(p)
        }
    } else {
        QuerySpec {
            op,
            target: parse_oid(args.get(3))?,
            participant,
            bounds,
        }
    };

    // The keyring (when given) pins the hash algorithm and enables the
    // recipient-side proof check; without it the slice is computed but
    // explicitly reported as unverified.
    let keys = match flag_value(args, "--keys") {
        Some(kr_path) => {
            let bytes =
                std::fs::read(kr_path).map_err(|e| format!("cannot read {kr_path}: {e}"))?;
            let keyring = Keyring::from_bytes(&bytes).ok_or("malformed keyring file")?;
            let alg = keyring.algorithm();
            let keys = keyring
                .into_directory()
                .map_err(|e| format!("keyring validation failed: {e}"))?;
            Some((keys, alg))
        }
        None => None,
    };
    let alg = keys.as_ref().map_or(HashAlgorithm::Sha256, |(_, alg)| *alg);

    let db = Arc::new(open_db(Some(path))?);
    // The secondary indexes persist in a sidecar next to the log; a stale
    // or corrupt sidecar is silently rebuilt from the log. The path is
    // derived from the log's full name (append semantics) so co-located
    // logs — tenant shards in one root — never share a sidecar.
    let sidecar = tepdb::query::sidecar_path(std::path::Path::new(path));
    let engine = QueryEngine::with_sidecar(Arc::clone(&db), alg, &sidecar);
    let proof = engine.execute(&spec).map_err(|e| e.to_string())?;
    if let Err(e) = engine.save_index() {
        eprintln!(
            "warning: could not save index sidecar {}: {e}",
            sidecar.display()
        );
    }

    println!(
        "{} of {} — {} record(s) in slice, {} boundary link(s), proof {} bytes",
        spec.op,
        if op == QueryOp::AuditSlice {
            format!("participant {}", spec.participant.expect("audit has one").0)
        } else {
            spec.target.to_string()
        },
        proof.records.len(),
        proof.boundary.len(),
        proof.to_bytes().len(),
    );
    match &proof.answer {
        QueryAnswer::Objects(oids) => {
            for oid in oids {
                println!("  {oid}");
            }
            if oids.is_empty() {
                println!("  (none)");
            }
        }
        QueryAnswer::Polynomial(p) => println!("  {p}"),
    }

    match keys {
        Some((keys, alg)) => {
            let v = Verifier::new(&keys, alg).verify_slice(&proof);
            if v.verified() {
                println!(
                    "VERIFIED: slice proof checks out ({} records)",
                    v.records_checked
                );
                Ok(())
            } else {
                for issue in &v.issues {
                    println!("TAMPER EVIDENCE: {issue}");
                }
                Err(format!("{} integrity violation(s) found", v.issues.len()))
            }
        }
        None => {
            eprintln!("note: no --keys given; slice proof NOT verified");
            Ok(())
        }
    }
}

fn compact(args: &[String]) -> Result<(), String> {
    let db = open_db(args.get(1))?;
    let out = args.get(2).ok_or("compact needs an output path")?;
    let live_raw = flag_value(args, "--live").ok_or("compact needs --live <oid,oid,...>")?;
    let live: Result<Vec<ObjectId>, String> = live_raw
        .split(',')
        .map(|s| parse_oid(Some(&s.trim().to_string())))
        .collect();
    let (_, report) = gc::prune_into(&db, out, &live?).map_err(|e| e.to_string())?;
    println!(
        "compacted into {out}: kept {} record(s), dropped {}",
        report.kept, report.dropped
    );
    Ok(())
}

fn prove_cmd(args: &[String]) -> Result<(), String> {
    let snap = args.get(1).ok_or("prove needs a <snapshot> path")?;
    let root = parse_oid(args.get(2))?;
    let target = parse_oid(args.get(3))?;
    let out = flag_value(args, "--out").ok_or("prove needs --out <file>")?;
    let forest = tepdb::storage::load_forest(snap).map_err(|e| e.to_string())?;
    let mut cache = tepdb::core::HashCache::new(HashAlgorithm::Sha256);
    let root_hash = cache.get_or_compute(&forest, root);
    let proof = tepdb::core::prove(&forest, &mut cache, root, target).map_err(|e| e.to_string())?;
    std::fs::write(out, proof.to_bytes()).map_err(|e| e.to_string())?;
    println!(
        "proof written to {out} ({} steps, {} sibling hashes)",
        proof.steps.len(),
        proof.sibling_count()
    );
    println!("root hash: {}", hex::to_hex(&root_hash));
    Ok(())
}

fn check_proof(args: &[String]) -> Result<(), String> {
    let path = args.get(1).ok_or("check-proof needs a proof file")?;
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let proof =
        tepdb::core::SubtreeProof::from_bytes(&bytes).map_err(|e| format!("bad proof: {e}"))?;
    let root_hex = flag_value(args, "--root-hash").ok_or("check-proof needs --root-hash <hex>")?;
    let root_hash = hex::from_hex(root_hex).ok_or("invalid --root-hash hex")?;
    let value = if let Some(n) = flag_value(args, "--int") {
        Some(Value::Int(n.parse().map_err(|_| "invalid --int")?))
    } else {
        flag_value(args, "--text").map(Value::text)
    };
    match value {
        Some(v) => {
            proof
                .verify_leaf_value(&v, &root_hash)
                .map_err(|e| e.to_string())?;
            println!(
                "PROVEN: object {} holds {v} under root {} (hash {})",
                proof.target,
                proof.root,
                &root_hex[..16.min(root_hex.len())]
            );
        }
        None => {
            return Err("check-proof needs --int <N> or --text <S> for the claimed value".into());
        }
    }
    Ok(())
}

/// Generates a demo log + keyring so the other subcommands have something
/// to chew on.
fn demo(dir: &String) -> Result<(), String> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let log_path = format!("{dir}/provenance.teplog");
    let keyring_path = format!("{dir}/keyring.tepkeys");
    if std::path::Path::new(&log_path).exists() {
        return Err(format!("{log_path} already exists"));
    }

    let alg = HashAlgorithm::Sha256;
    let mut rng = StdRng::seed_from_u64(2009);
    let ca = CertificateAuthority::new(1024, alg, &mut rng);
    let alice = ca.enroll(ParticipantId(1), 1024, &mut rng);
    let bob = ca.enroll(ParticipantId(2), 1024, &mut rng);

    let mut keyring = Keyring::new(ca.public_key().clone(), alg);
    keyring.add(alice.certificate().clone());
    keyring.add(bob.certificate().clone());
    std::fs::write(&keyring_path, keyring.to_bytes()).map_err(|e| e.to_string())?;

    let db = Arc::new(ProvenanceDb::durable(&log_path).map_err(|e| e.to_string())?);
    let mut tracker = ProvenanceTracker::new(
        TrackerConfig {
            alg,
            ..Default::default()
        },
        Arc::clone(&db),
    );
    let (a, _) = tracker
        .insert(&alice, Value::Int(10), None)
        .map_err(|e| e.to_string())?;
    let (b, _) = tracker
        .insert(&bob, Value::Int(20), None)
        .map_err(|e| e.to_string())?;
    tracker
        .update(&bob, a, Value::Int(11))
        .map_err(|e| e.to_string())?;
    tracker
        .update(&alice, b, Value::Int(21))
        .map_err(|e| e.to_string())?;
    let (c, _) = tracker
        .aggregate(&alice, &[a, b], Value::Int(32), AggregateMode::Atomic)
        .map_err(|e| e.to_string())?;
    tracker
        .update(&bob, c, Value::Int(33))
        .map_err(|e| e.to_string())?;
    db.sync().map_err(|e| e.to_string())?;

    // A small compound table so `tep prove` has a real tree to walk.
    let (table, _) = tracker
        .insert(&alice, Value::text("measurements"), None)
        .map_err(|e| e.to_string())?;
    let mut first_cell = None;
    for r in 0..3i64 {
        let (row, _) = tracker
            .insert(&alice, Value::Null, Some(table))
            .map_err(|e| e.to_string())?;
        for a in 0..2i64 {
            let (cell, _) = tracker
                .insert(&bob, Value::Int(r * 10 + a), Some(row))
                .map_err(|e| e.to_string())?;
            first_cell.get_or_insert(cell);
        }
    }

    let snap_path = format!("{dir}/backend.tepsnap");
    tepdb::storage::save_forest(tracker.forest(), &snap_path).map_err(|e| e.to_string())?;

    let hash = tracker.object_hash(c).map_err(|e| e.to_string())?;
    println!("demo written:");
    println!("  log:     {log_path}");
    println!("  keyring: {keyring_path}");
    println!("  snapshot: {snap_path}");
    println!("  objects: {a} {b} → aggregate {c}");
    println!();
    println!("try:");
    println!("  tep stats {log_path}");
    println!("  tep history {log_path} {}", c.raw());
    println!("  tep dot {log_path} {}", c.raw());
    println!(
        "  tep verify {log_path} {} --keys {keyring_path} --hash {}",
        c.raw(),
        hex::to_hex(&hash)
    );
    if let Some(cell) = first_cell {
        println!(
            "  tep prove {snap_path} {} {} --out {dir}/proof.bin",
            table.raw(),
            cell.raw()
        );
    }
    Ok(())
}
