//! `audit_live` — the auditor path, with writes beside the reads.
//!
//! Why it exists: `query` index sync/execute and `core::verify_slice` do the
//! work, and `storage` and the index are written and read concurrently —
//! the main thread appends through the tracker into the same store the
//! server thread answers from — so a read win that costs the write path, or
//! the reverse, shows in one number.

use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;

use crate::gen::{cluster_steps, Cluster, ClusterStep, Query, QueryKind, CLUSTER_RECORDS};
use crate::host::Clock;
use crate::stats::ratio;
use crate::sut::{self, Answer, Engine, Fail, Obs, OpCost, Pki, Remote, Server, Store, Writer};
use crate::trace::Tracer;
use crate::workload::{
    class_us, p50, probe_connect, probe_crypto, probe_storage, shrunk, speed, Ctx, Lab, ReadSide,
    Sample, Timed, Workload, WriteSide,
};

const KEY_SEED: u64 = 2009;
const PARTICIPANTS: usize = 32;
const CLUSTERS: usize = 256;
const QUERIES_PER_CYCLE: usize = 8;
const AUDIT_EVERY: u64 = 4;
/// A multiple of `AUDIT_EVERY`, so the window starts on a schedule boundary.
const WARMUP_CYCLES: usize = 32;
const PROBE_CALLS: usize = 100;
const VERIFY_CALLS: usize = 20;
/// Audit slices must stay under the engine's 2 048-record cap: a
/// participant starts with `CLUSTERS * 16 / PARTICIPANTS` records and gains
/// 16 every `PARTICIPANTS` cycles.
const MAX_CYCLES: u64 = 3000;

const BURST: usize = 0;
const AUDIT: usize = 5;
const CLASSES: [&str; 6] = [
    "burst",
    "lineage",
    "ancestors",
    "descendants",
    "polynomial",
    "audit",
];

fn class_of(kind: QueryKind) -> usize {
    match kind {
        QueryKind::Lineage => 1,
        QueryKind::Ancestors => 2,
        QueryKind::Descendants => 3,
        QueryKind::Polynomial => 4,
        QueryKind::Audit => AUDIT,
    }
}

pub struct Audit {
    obs: Obs,
    pki: Pki,
    store: Store,
    writer: Writer,
    engine: Engine,
    server: Server,
    remote: Remote,
    rng: StdRng,
    clusters: Vec<Cluster>,
    setup_records: usize,
    setup_ms: [f64; 3],
    cycle: u64,
    /// Position inside the cycle: 0 = burst, 1..=8 queries, 9 = audit.
    phase: usize,
    opno: u64,
    // Window accumulators.
    writes: WriteSide,
    index_sync_ns: u64,
    index_sync_records: usize,
    slice_records: usize,
    proof_bytes: usize,
    queries: usize,
    reads: ReadSide,
    counters0: [u64; 5],
}

const COUNTERS: [&str; 5] = [
    "tep_crypto_sign_total",
    "tep_crypto_verify_total",
    "tep_crypto_modpow_total",
    "tep_storage_fsync_total",
    "tep_storage_write_bytes_total",
];

/// Writes one 16-record derivation cluster signed by participant `who`,
/// then retires its nine objects from the data forest (their records stay
/// queryable; the forest does not grow without bound).
fn write_cluster(
    writer: &mut Writer,
    pki: &Pki,
    who: usize,
    rng: &mut StdRng,
) -> Result<(Cluster, OpCost), Fail> {
    let mut objects: Vec<u64> = Vec::with_capacity(9);
    let mut total = OpCost::default();
    for step in cluster_steps(rng) {
        let cost = match step {
            ClusterStep::Insert { value } => {
                let (oid, cost) = writer.insert(pki, who, Some(value), None)?;
                objects.push(oid);
                cost
            }
            ClusterStep::Update { obj, value } => writer.update(pki, who, objects[obj], value)?,
            ClusterStep::Aggregate { inputs, value } => {
                let inputs: Vec<u64> = inputs.iter().map(|&i| objects[i]).collect();
                let (oid, cost) = writer.aggregate(pki, who, &inputs, value)?;
                objects.push(oid);
                cost
            }
        };
        total.add(&cost);
    }
    for &oid in &objects {
        writer.retire(pki, who, oid)?;
    }
    let cluster = Cluster {
        root: objects[0],
        closer: *objects.last().expect("a cluster has objects"),
    };
    Ok((cluster, total))
}

impl Audit {
    fn next_query(&mut self) -> Query {
        let kind = match self.phase {
            1 | 2 => QueryKind::Lineage,
            3 | 4 => QueryKind::Ancestors,
            5 | 6 => QueryKind::Polynomial,
            7 | 8 => QueryKind::Descendants,
            _ => QueryKind::Audit,
        };
        let target = match kind {
            QueryKind::Audit => 1 + (self.cycle / AUDIT_EVERY) % PARTICIPANTS as u64,
            // The first read after a burst asks for what was just written.
            _ if self.phase == 1 => self.clusters.last().expect("set-up clusters").closer,
            QueryKind::Descendants => {
                self.clusters[self.rng.gen_range(0..self.clusters.len())].root
            }
            _ => self.clusters[self.rng.gen_range(0..self.clusters.len())].closer,
        };
        Query { kind, target }
    }

    fn burst(&mut self, tr: &mut Tracer) -> Result<u64, Fail> {
        let who = (self.cycle % PARTICIPANTS as u64) as usize;
        let span = tr.begin("op");
        let inner = tr.begin("core.tracked_burst");
        let (cluster, cost) = write_cluster(&mut self.writer, &self.pki, who, &mut self.rng)?;
        let tracked_ns = tr.end(inner);
        let inner = tr.begin("storage.sync");
        self.store.sync()?;
        let sync_ns = tr.end(inner);
        let ns = tr.end(span);
        self.clusters.push(cluster);
        self.writes.record(&cost, tracked_ns, sync_ns);
        // The reference engine tails the log like the server's does.
        let t = Instant::now();
        self.index_sync_records += self.engine.sync();
        self.index_sync_ns += t.elapsed().as_nanos() as u64;
        Ok(ns)
    }

    fn query(&mut self, q: &Query, tr: &mut Tracer) -> Result<u64, Fail> {
        let span = tr.begin("net.query");
        let got = self.remote.query(&self.pki, q)?;
        let ns = tr.end(span);
        let want = self.engine.execute(q)?;
        if !got.same_as(&want) {
            return Err(format!(
                "{q:?}: wire answer differs from in-process execute"
            ));
        }
        let t = self.remote.traffic();
        if t.retries != 0 || t.verify_failures != 0 {
            return Err(format!(
                "{q:?}: {} retries, {} verify failures",
                t.retries, t.verify_failures
            ));
        }
        self.queries += 1;
        self.slice_records += got.records();
        if self.obs.is_on() {
            self.proof_bytes += got.proof_bytes();
        }
        Ok(ns)
    }

    /// Median in-process execute time and the last answer, for one kind.
    fn probe_execute(&mut self, kind: QueryKind, clock: &mut Clock) -> Result<(f64, Answer), Fail> {
        let mut last = None;
        let us = clock.median_us(PROBE_CALLS, |i| {
            let c = &self.clusters[i * 7 % self.clusters.len()];
            let target = match kind {
                QueryKind::Audit => 1 + (i % PARTICIPANTS) as u64,
                QueryKind::Descendants => c.root,
                _ => c.closer,
            };
            last = Some(self.engine.execute(&Query { kind, target })?);
            Ok::<(), Fail>(())
        })?;
        Ok((us, last.ok_or("probe ran no query")?))
    }
}

impl Workload for Audit {
    const NAME: &'static str = "audit_live";
    const CLASSES: &'static [&'static str] = &CLASSES;

    fn sizes(shrink: usize) -> String {
        format!(
            "participants={PARTICIPANTS} clusters={} cluster_records={CLUSTER_RECORDS} \
             queries_per_cycle={QUERIES_PER_CYCLE} audit_every={AUDIT_EVERY} \
             warmup_cycles={WARMUP_CYCLES} max_cycles={MAX_CYCLES}",
            shrunk(CLUSTERS, shrink)
        )
    }

    fn setup(ctx: &Ctx, obs: Obs, clock: &mut Clock) -> Result<Audit, Fail> {
        let pki = Pki::generate(PARTICIPANTS, KEY_SEED, &obs, || clock.tick())?;
        let path = ctx.dir.join("audit.teplog");
        let store = Store::open(&path, &obs)?;
        let mut writer = Writer::new(&store, &obs);
        let mut rng = crate::gen::rng(ctx.seed, 4);
        let mut clusters = Vec::with_capacity(CLUSTERS);
        for i in 0..ctx.sized(CLUSTERS) {
            clock.tick();
            clusters.push(write_cluster(&mut writer, &pki, i % PARTICIPANTS, &mut rng)?.0);
        }
        store.sync()?;
        let setup_records = store.records();
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        // Index build from nothing, then the sidecar a restart will load.
        let engine = Engine::with_sidecar(&store, &Obs::off());
        let t = Instant::now();
        engine.sync();
        let build_ms = ms(t);
        let t = Instant::now();
        engine.save_sidecar()?;
        let save_ms = ms(t);
        drop(engine);
        drop(store);

        // Restart: log, chain heads, index sidecar, then serve.
        let store = Store::open(&path, &obs)?;
        if store.records() != setup_records || !store.recovered_clean() {
            return Err("set-up log did not reopen clean and complete".into());
        }
        let writer = writer.restore(&store, &obs);
        let t = Instant::now();
        let engine = Engine::with_sidecar(&store, &obs);
        let load_ms = ms(t);
        if engine.sync() != 0 {
            return Err("index sidecar did not cover the set-up log".into());
        }
        let server = Server::start(writer.data(), &store, &[], &obs)?;
        let remote = Remote::new(server.addr(), &obs);
        Ok(Audit {
            obs,
            pki,
            store,
            writer,
            engine,
            server,
            remote,
            rng,
            clusters,
            setup_records,
            setup_ms: [build_ms, save_ms, load_ms],
            cycle: 0,
            phase: 0,
            opno: 0,
            writes: WriteSide::default(),
            index_sync_ns: 0,
            index_sync_records: 0,
            slice_records: 0,
            proof_bytes: 0,
            queries: 0,
            reads: ReadSide::default(),
            counters0: [0; 5],
        })
    }

    fn setup_records(&self) -> usize {
        self.setup_records
    }

    /// Log replay + sidecar load + index catch-up: what an auditor's restart
    /// costs. Run before the window, while the log is still the set-up log.
    fn reopen(&self) -> Result<(), Fail> {
        let again = Store::open(self.store.path(), &Obs::off())?;
        if again.records() != self.setup_records {
            return Err("reopen lost records".into());
        }
        Engine::with_sidecar(&again, &Obs::off()).sync();
        Ok(())
    }

    fn warmup_ops(&self) -> usize {
        WARMUP_CYCLES * (1 + QUERIES_PER_CYCLE) + WARMUP_CYCLES / AUDIT_EVERY as usize
    }

    fn start_window(&mut self) {
        self.writes.clear();
        self.index_sync_ns = 0;
        self.index_sync_records = 0;
        self.slice_records = 0;
        self.proof_bytes = 0;
        self.queries = 0;
        self.reads = ReadSide::start(&self.remote, &self.server);
        self.counters0 = COUNTERS.map(|c| self.obs.counter(c));
    }

    fn step(&mut self, tr: &mut Tracer) -> Result<Sample, Fail> {
        tr.set_op(self.opno);
        self.opno += 1;
        let sample = if self.phase == 0 {
            Sample {
                class: BURST,
                ns: self.burst(tr)?,
            }
        } else {
            let q = self.next_query();
            Sample {
                class: class_of(q.kind),
                ns: self.query(&q, tr)?,
            }
        };
        let last = if self.cycle % AUDIT_EVERY == AUDIT_EVERY - 1 {
            QUERIES_PER_CYCLE + 1
        } else {
            QUERIES_PER_CYCLE
        };
        if self.phase == last {
            self.phase = 0;
            self.cycle += 1;
        } else {
            self.phase += 1;
        }
        Ok(sample)
    }

    /// One period of the schedule is `AUDIT_EVERY` cycles.
    fn at_boundary(&self) -> bool {
        self.phase == 0 && self.cycle.is_multiple_of(AUDIT_EVERY)
    }

    fn exhausted(&self) -> bool {
        self.cycle >= MAX_CYCLES
    }

    fn disk_bytes_per_record(&self) -> Result<f64, Fail> {
        Ok(self.store.log_bytes()? as f64 / self.store.records() as f64)
    }

    fn check(&mut self) -> Result<String, Fail> {
        let acked = self.store.records();
        let again = Store::open(self.store.path(), &Obs::off())?;
        if again.records() != acked || !again.recovered_clean() {
            return Err(format!(
                "{acked} records acknowledged, {} after reopen (clean: {})",
                again.records(),
                again.recovered_clean()
            ));
        }
        let newest = self.clusters.last().expect("set-up clusters").closer;
        let q = Query {
            kind: QueryKind::Lineage,
            target: newest,
        };
        sut::canary_query(&self.server, &self.pki, &q)?;
        Ok(format!(
            "every answer verified and matched in-process execute; reopen {acked} records \
             clean; query canary fired on #{newest}"
        ))
    }

    fn layers(&mut self, window: &[Timed], lab: &mut Lab) -> Result<(), Fail> {
        let ops = window.len() as f64;
        let bursts: Vec<Timed> = window
            .iter()
            .filter(|s| s.class == BURST)
            .copied()
            .collect();
        let n_bursts = bursts.len() as f64;
        let reads = self.queries as f64;
        let delta: Vec<f64> = COUNTERS
            .iter()
            .zip(self.counters0)
            .map(|(name, before)| (self.obs.counter(name) - before) as f64)
            .collect();

        // Write side: one burst is one operation.
        self.writes.report(&bursts, lab.m);
        lab.m.set("crypto.sign_calls_per_op", ratio(delta[0], ops));
        lab.m
            .set("crypto.verify_calls_per_op", ratio(delta[1], ops));
        lab.m.set("crypto.modpow_per_op", ratio(delta[2], ops));
        lab.m
            .set("storage.fsyncs_per_op", ratio(delta[3], n_bursts));
        lab.m.set(
            "storage.write_bytes_per_record",
            ratio(delta[4], self.writes.records() as f64),
        );

        // Read side, as the client saw it.
        self.reads.report(&self.remote, &self.server, reads, lab.m);
        lab.m.set(
            "query.slice_records_mean",
            ratio(self.slice_records as f64, reads),
        );
        lab.m.set(
            "query.proof_bytes_mean",
            ratio(self.proof_bytes as f64, reads),
        );
        lab.m.set(
            "query.index_sync_us_per_record",
            ratio(
                self.index_sync_ns as f64 * speed(&bursts) / 1e3,
                self.index_sync_records as f64,
            ),
        );
        let wire_query_us = p50(&class_us(window, |c| c != BURST && c != AUDIT));
        lab.m.set("query.wire_query_us_p50", wire_query_us);
        lab.m.set(
            "query.wire_audit_us_p50",
            p50(&class_us(window, |c| c == AUDIT)),
        );
        lab.m.set("query.index_build_ms", self.setup_ms[0]);
        lab.m.set("query.sidecar_save_ms", self.setup_ms[1]);
        lab.m.set("query.sidecar_load_ms", self.setup_ms[2]);

        // Probes: in-process execute per operator, slice verification,
        // connection set-up.
        probe_crypto(&self.pki, lab)?;
        let oids: Vec<u64> = self.clusters.iter().map(|c| c.closer).collect();
        probe_storage(&self.store, &oids, lab)?;
        let span = lab.tr.begin("probe.query");
        let mut execute_us = 0.0;
        let mut verify_us = 0.0;
        for (kind, name) in [
            (QueryKind::Lineage, "query.lineage_us_p50"),
            (QueryKind::Ancestors, "query.ancestors_us_p50"),
            (QueryKind::Descendants, "query.descendants_us_p50"),
            (QueryKind::Polynomial, "query.polynomial_us_p50"),
            (QueryKind::Audit, "query.audit_us_p50"),
        ] {
            let (us, answer) = self.probe_execute(kind, lab.clock)?;
            lab.m.set(name, us);
            let v = lab
                .clock
                .median_us(VERIFY_CALLS, |_| answer.verify(&self.pki))?;
            if kind == QueryKind::Audit {
                lab.m.set(
                    "core.verify_slice_us_per_record",
                    ratio(v, answer.records() as f64),
                );
            } else {
                // The four small operators are issued equally often.
                execute_us += us / 4.0;
                verify_us += v / 4.0;
            }
        }
        lab.tr.end(span);
        lab.m
            .set("core.verify_share", ratio(verify_us, wire_query_us));
        let (connect_us, _) = probe_connect(&mut self.remote, PROBE_CALLS, lab)?;
        // What is left of a small query after connecting, executing and
        // verifying: event loop, syscalls, copies, proof codec.
        let residual = wire_query_us - connect_us - execute_us - verify_us;
        lab.m.set("net.residual_us_per_op", residual);
        lab.m
            .set("net.residual_share", ratio(residual, wire_query_us));
        lab.m.set(
            "fetch.layer_sum_share",
            1.0 - ratio(residual, wire_query_us),
        );
        Ok(())
    }
}
