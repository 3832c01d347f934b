//! `ingest_mixed` — the producer path.
//!
//! Why it exists: it is the only workload where `crypto` signing and
//! `storage` fsync do most of the work and `net` / `query` do none. It is
//! where amortised signing has to show, and where larger records would cost.

use crate::gen::{IngestGen, IngestOp, Row, Table, INGEST_CLASSES};
use crate::host::Clock;
use crate::stats::ratio;
use crate::sut::{self, Fail, Obs, OpCost, Pki, Prov, Store, Writer};
use crate::trace::Tracer;
use crate::workload::{
    probe_crypto, probe_recipient, probe_storage, shrunk, Ctx, Lab, Sample, Timed, Workload,
    WriteSide,
};

const KEY_SEED: u64 = 2009;
const SIGNERS: usize = 2;
const TABLES: usize = 2;
const ROWS: usize = 64;
const CELLS: usize = 8;
const WARMUP_OPS: usize = 300;
const DURABILITY_OPS: usize = 200;
const VERIFY_SAMPLE: usize = 64;

pub struct Ingest {
    seed: u64,
    rows: usize,
    obs: Obs,
    pki: Pki,
    store: Store,
    writer: Writer,
    gen: IngestGen,
    root: u64,
    setup_records: usize,
    opno: u64,
    // Window accumulators.
    writes: WriteSide,
    counters0: [u64; 6],
}

const COUNTERS: [&str; 6] = [
    "tep_crypto_sign_total",
    "tep_crypto_verify_total",
    "tep_crypto_modpow_total",
    "tep_storage_fsync_total",
    "tep_storage_write_bytes_total",
    "tep_core_cache_hits_total",
];
const CACHE_MISSES: &str = "tep_core_cache_misses_total";

/// The set-up history: a root, `TABLES` tables, `rows` rows of `CELLS`
/// cells each, every node by its own tracked insert.
fn bulk_load(
    writer: &mut Writer,
    pki: &Pki,
    seed: u64,
    rows: usize,
    mut between_rows: impl FnMut(),
) -> Result<(u64, Vec<Table>), Fail> {
    use rand::Rng;
    let mut rng = crate::gen::rng(seed, 0);
    let (root, _) = writer.insert(pki, 0, None, None)?;
    let mut tables = Vec::with_capacity(TABLES);
    for t in 0..TABLES {
        let who = t % pki.len();
        let (table, _) = writer.insert(pki, who, None, Some(root))?;
        let mut model = Table {
            id: table,
            rows: Vec::with_capacity(rows),
        };
        for _ in 0..rows {
            between_rows();
            let (row, _) = writer.insert(pki, who, None, Some(table))?;
            let mut cells = Vec::with_capacity(CELLS);
            for _ in 0..CELLS {
                let v = rng.gen_range(0..1_000_000i64);
                cells.push(writer.insert(pki, who, Some(v), Some(row))?.0);
            }
            model.rows.push(Row { id: row, cells });
        }
        tables.push(model);
    }
    Ok((root, tables))
}

impl Ingest {
    /// One acknowledged operation: the tracked complex op, then fsync.
    fn apply(
        writer: &mut Writer,
        store: &Store,
        pki: &Pki,
        gen: &mut IngestGen,
        opno: u64,
        tr: &mut Tracer,
    ) -> Result<(usize, OpCost, u64, u64), Fail> {
        let op = gen.next_op();
        let who = (opno % pki.len() as u64) as usize;
        let span = tr.begin("core.tracked_op");
        let (created, cost) = writer.apply(pki, who, &op)?;
        let tracked_ns = tr.end(span);
        let span = tr.begin("storage.sync");
        store.sync()?;
        let sync_ns = tr.end(span);
        if let IngestOp::InsertRow { .. } = op {
            gen.inserted(&created);
        }
        Ok((op.class(), cost, tracked_ns, sync_ns))
    }

    /// Objects a recipient could ask for: the root, the tables, and rows
    /// spread over both tables, each with its current hash.
    fn sample_objects(&mut self, n: usize) -> Result<Vec<(u64, Vec<u8>)>, Fail> {
        let mut oids = vec![self.root];
        oids.extend(self.gen.tables.iter().map(|t| t.id));
        let rows: Vec<u64> = self
            .gen
            .tables
            .iter()
            .flat_map(|t| t.rows.iter().map(|r| r.id))
            .collect();
        let step = (rows.len() / n.saturating_sub(oids.len()).max(1)).max(1);
        oids.extend(rows.iter().step_by(step));
        oids.truncate(n);
        oids.into_iter()
            .map(|oid| Ok((oid, self.writer.object_hash(oid)?)))
            .collect()
    }
}

impl Workload for Ingest {
    const NAME: &'static str = "ingest_mixed";
    const CLASSES: &'static [&'static str] = &INGEST_CLASSES;

    fn sizes(shrink: usize) -> String {
        format!(
            "signers={SIGNERS} tables={TABLES} rows={} cells={CELLS} mix=70/10/10/10 \
             warmup_ops={WARMUP_OPS} durability_ops={DURABILITY_OPS} verify_sample={VERIFY_SAMPLE}",
            shrunk(ROWS, shrink)
        )
    }

    fn setup(ctx: &Ctx, obs: Obs, clock: &mut Clock) -> Result<Ingest, Fail> {
        let pki = Pki::generate(SIGNERS, KEY_SEED, &obs, || clock.tick())?;
        let path = ctx.dir.join("ingest.teplog");
        let store = Store::open(&path, &obs)?;
        let mut writer = Writer::new(&store, &obs);
        let (root, tables) = bulk_load(&mut writer, &pki, ctx.seed, ctx.sized(ROWS), || {
            clock.tick()
        })?;
        store.sync()?;
        let setup_records = store.records();
        drop(store);
        // Restart: reopen the log, rebuild the chain heads from it.
        let store = Store::open(&path, &obs)?;
        if store.records() != setup_records || !store.recovered_clean() {
            return Err("set-up log did not reopen clean and complete".into());
        }
        let writer = writer.restore(&store, &obs);
        Ok(Ingest {
            seed: ctx.seed,
            rows: ctx.sized(ROWS),
            gen: IngestGen::new(ctx.seed, tables, CELLS),
            obs,
            pki,
            store,
            writer,
            root,
            setup_records,
            opno: 0,
            writes: WriteSide::default(),
            counters0: [0; 6],
        })
    }

    fn setup_records(&self) -> usize {
        self.setup_records
    }

    fn reopen(&self) -> Result<(), Fail> {
        let again = Store::open(self.store.path(), &Obs::off())?;
        if again.records() != self.setup_records {
            return Err("reopen lost records".into());
        }
        Ok(())
    }

    fn warmup_ops(&self) -> usize {
        WARMUP_OPS
    }

    fn start_window(&mut self) {
        self.writes.clear();
        self.counters0 = COUNTERS.map(|c| self.obs.counter(c));
    }

    fn step(&mut self, tr: &mut Tracer) -> Result<Sample, Fail> {
        tr.set_op(self.opno);
        let span = tr.begin("op");
        let (class, cost, tracked_ns, sync_ns) = Self::apply(
            &mut self.writer,
            &self.store,
            &self.pki,
            &mut self.gen,
            self.opno,
            tr,
        )?;
        let ns = tr.end(span);
        self.opno += 1;
        self.writes.record(&cost, tracked_ns, sync_ns);
        Ok(Sample { class, ns })
    }

    /// The mix is exact over blocks of ten operations.
    fn at_boundary(&self) -> bool {
        self.opno.is_multiple_of(10)
    }

    fn disk_bytes_per_record(&self) -> Result<f64, Fail> {
        Ok(self.store.log_bytes()? as f64 / self.store.records() as f64)
    }

    fn check(&mut self) -> Result<String, Fail> {
        // Reopen: every acknowledged record is there, nothing to repair.
        let acked = self.store.records();
        let again = Store::open(self.store.path(), &Obs::off())?;
        if again.records() != acked {
            return Err(format!(
                "{acked} records acknowledged, {} after reopen",
                again.records()
            ));
        }
        if !again.recovered_clean() {
            return Err("final log did not reopen clean".into());
        }
        // A recipient's view of sampled objects, from the reopened log.
        let objects = self.sample_objects(VERIFY_SAMPLE)?;
        let mut checked = 0;
        for (oid, hash) in &objects {
            checked += Prov::collect(&again, *oid)?.verify(&self.pki, hash, &Obs::off())?;
        }
        // Tamper canary on the longest chain there is, the root's.
        let (root, root_hash) = &objects[0];
        Prov::collect(&again, *root)?.canary(&self.pki, root_hash)?;
        // Durability: the same first operations on a disk that loses what
        // was not flushed.
        let (seed, rows) = (self.seed, self.rows);
        let pki = &self.pki;
        let durable = sut::durability_replay(pki, seed, |writer, store| {
            let (_, tables) = bulk_load(writer, pki, seed, rows, || ())?;
            let mut gen = IngestGen::new(seed, tables, CELLS);
            let mut off = Tracer::new(false);
            for opno in 0..DURABILITY_OPS as u64 {
                Self::apply(writer, store, pki, &mut gen, opno, &mut off)?;
            }
            Ok(())
        })?;
        Ok(format!(
            "reopen {acked} records clean; {} objects / {checked} records verified; \
             canary fired; {durable} acknowledged records survived power loss",
            objects.len()
        ))
    }

    fn layers(&mut self, window: &[Timed], lab: &mut Lab) -> Result<(), Fail> {
        let ops = window.len() as f64;
        self.writes.report(window, lab.m);
        let delta: Vec<f64> = COUNTERS
            .iter()
            .zip(self.counters0)
            .map(|(name, before)| (self.obs.counter(name) - before) as f64)
            .collect();
        lab.m.set("crypto.sign_calls_per_op", ratio(delta[0], ops));
        lab.m
            .set("crypto.verify_calls_per_op", ratio(delta[1], ops));
        lab.m.set("crypto.modpow_per_op", ratio(delta[2], ops));
        lab.m.set("storage.fsyncs_per_op", ratio(delta[3], ops));
        lab.m.set(
            "storage.write_bytes_per_record",
            ratio(delta[4], self.writes.records() as f64),
        );
        // Counted over the whole run: the cache's counters have no window.
        let hits = self.obs.counter(COUNTERS[5]) as f64;
        lab.m.set(
            "core.cache_hit_ratio",
            ratio(hits, hits + self.obs.counter(CACHE_MISSES) as f64),
        );

        probe_crypto(&self.pki, lab)?;
        let objects = self.sample_objects(VERIFY_SAMPLE)?;
        let oids: Vec<u64> = objects.iter().map(|o| o.0).collect();
        probe_storage(&self.store, &oids, lab)?;
        probe_recipient(&self.store, &self.pki, &objects, objects.len(), lab)?;
        Ok(())
    }
}
