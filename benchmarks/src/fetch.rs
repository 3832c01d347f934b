//! `fetch_deep` and `fetch_small` — the recipient path, used two opposite
//! ways over one store.
//!
//! Why `fetch_deep` exists: a 321-record object makes `crypto` verify and
//! `core` verify/hash most of an operation and connection overhead small,
//! so verifier changes show here and event-loop changes do not.
//!
//! Why `fetch_small` exists: the same `net` / `core` code with 3 signatures
//! per operation, so connect + HELLO + a 256-entry OFFER + event-loop
//! turnaround dominate. Persistent connections, OFFER-on-demand or epoll
//! work show here and must leave `fetch_deep` unmoved.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::host::Clock;
use crate::stats::ratio;
use crate::sut::{self, Fail, Obs, Pki, Prov, Remote, Server, Store, Writer};
use crate::trace::Tracer;
use crate::workload::{
    class_us, p50, probe_connect, probe_crypto, probe_recipient, probe_storage, shrunk, Ctx, Lab,
    ReadSide, Sample, Timed, Workload,
};

const KEY_SEED: u64 = 2009;
const SIGNERS: usize = 2;
const DEEP_OBJECTS: usize = 4;
const DEEP_ROWS: usize = 64;
const DEEP_CELLS: usize = 4;
const SMALL_OBJECTS: usize = 256;
const SMALL_UPDATES: usize = 2;
const WARMUP_DEEP: usize = 100;
const WARMUP_SMALL: usize = 1000;
const PROBE_CALLS: usize = 200;
const CODEC_CALLS: usize = 50;

/// An offered object and what a correct transfer of it must deliver.
struct Object {
    oid: u64,
    hash: Vec<u8>,
    records: u64,
    stream_digest: Vec<u8>,
}

pub struct Fetch<const DEEP: bool> {
    obs: Obs,
    pki: Pki,
    store: Store,
    server: Server,
    remote: Remote,
    objects: Vec<Object>,
    setup_records: usize,
    opno: u64,
    // Window accumulators.
    records: u64,
    reads: ReadSide,
    counters0: [u64; 2],
}

const COUNTERS: [&str; 2] = ["tep_crypto_verify_total", "tep_crypto_modpow_total"];

impl<const DEEP: bool> Fetch<DEEP> {
    fn offered(&self) -> Vec<(u64, Vec<u8>)> {
        self.objects
            .iter()
            .map(|o| (o.oid, o.hash.clone()))
            .collect()
    }
}

impl<const DEEP: bool> Workload for Fetch<DEEP> {
    const NAME: &'static str = if DEEP { "fetch_deep" } else { "fetch_small" };
    const CLASSES: &'static [&'static str] = &["fetch"];

    fn sizes(shrink: usize) -> String {
        format!(
            "signers={SIGNERS} deep_objects={DEEP_OBJECTS} deep_rows={} deep_cells={DEEP_CELLS} \
             small_objects={} small_updates={SMALL_UPDATES} offered={} warmup_ops={}",
            shrunk(DEEP_ROWS, shrink),
            shrunk(SMALL_OBJECTS, shrink),
            if DEEP { "deep" } else { "small" },
            if DEEP { WARMUP_DEEP } else { WARMUP_SMALL },
        )
    }

    fn setup(ctx: &Ctx, obs: Obs, clock: &mut Clock) -> Result<Self, Fail> {
        let pki = Pki::generate(SIGNERS, KEY_SEED, &obs, || clock.tick())?;
        let path = ctx.dir.join("fetch.teplog");
        let store = Store::open(&path, &obs)?;
        let mut writer = Writer::new(&store, &obs);
        let mut rng = crate::gen::rng(ctx.seed, 2);
        let mut value = || rng.gen_range(0..1_000_000i64);

        // Deep objects: a table of rows of cells, every node its own
        // tracked insert, so the table's chain holds one record per node.
        let mut deep = Vec::with_capacity(DEEP_OBJECTS);
        for t in 0..DEEP_OBJECTS {
            let who = t % SIGNERS;
            let (table, _) = writer.insert(&pki, who, None, None)?;
            for _ in 0..ctx.sized(DEEP_ROWS) {
                clock.tick();
                let (row, _) = writer.insert(&pki, who, None, Some(table))?;
                for _ in 0..DEEP_CELLS {
                    writer.insert(&pki, who, Some(value()), Some(row))?;
                }
            }
            deep.push(table);
        }
        // Small objects: one value, inserted and updated twice.
        let mut small = Vec::with_capacity(SMALL_OBJECTS);
        for s in 0..ctx.sized(SMALL_OBJECTS) {
            clock.tick();
            let who = s % SIGNERS;
            let (oid, _) = writer.insert(&pki, who, Some(value()), None)?;
            for _ in 0..SMALL_UPDATES {
                writer.update(&pki, who, oid, value())?;
            }
            small.push(oid);
        }
        store.sync()?;
        let setup_records = store.records();
        drop(store);

        // Served from what is on disk, not from what was in memory.
        let store = Store::open(&path, &obs)?;
        if store.records() != setup_records || !store.recovered_clean() {
            return Err("set-up log did not reopen clean and complete".into());
        }
        let mut offered = if DEEP { deep } else { small };
        let server = Server::start(writer.data(), &store, &offered, &obs)?;
        let remote = Remote::new(server.addr(), &obs);

        // The rotation order is the workload's input; the references are
        // what every fetch is held to.
        offered.shuffle(&mut crate::gen::rng(ctx.seed, 3));
        let objects = offered
            .into_iter()
            .map(|oid| {
                let prov = Prov::collect(&store, oid)?;
                Ok(Object {
                    oid,
                    hash: writer.object_hash(oid)?,
                    records: prov.records() as u64,
                    stream_digest: prov.stream_digest(),
                })
            })
            .collect::<Result<Vec<_>, Fail>>()?;
        Ok(Fetch {
            obs,
            pki,
            store,
            server,
            remote,
            objects,
            setup_records,
            opno: 0,
            records: 0,
            reads: ReadSide::default(),
            counters0: [0; 2],
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
        if DEEP {
            WARMUP_DEEP
        } else {
            WARMUP_SMALL
        }
    }

    fn start_window(&mut self) {
        self.records = 0;
        self.reads = ReadSide::start(&self.remote, &self.server);
        self.counters0 = COUNTERS.map(|c| self.obs.counter(c));
    }

    fn step(&mut self, tr: &mut Tracer) -> Result<Sample, Fail> {
        let want = &self.objects[(self.opno % self.objects.len() as u64) as usize];
        tr.set_op(self.opno);
        let span = tr.begin("net.fetch_verified");
        let got = self.remote.fetch(&self.pki, want.oid)?;
        let ns = tr.end(span);
        self.opno += 1;
        if got.records != want.records
            || got.stream_digest != want.stream_digest
            || got.object_hash != want.hash
        {
            return Err(format!(
                "fetch of #{} delivered something other than the reference",
                want.oid
            ));
        }
        let t = self.remote.traffic();
        if t.retries != 0 || t.verify_failures != 0 {
            return Err(format!(
                "fetch of #{}: {} retries, {} verify failures",
                want.oid, t.retries, t.verify_failures
            ));
        }
        self.records += got.records;
        Ok(Sample { class: 0, ns })
    }

    fn disk_bytes_per_record(&self) -> Result<f64, Fail> {
        Ok(self.store.log_bytes()? as f64 / self.store.records() as f64)
    }

    fn check(&mut self) -> Result<String, Fail> {
        if self.store.records() != self.setup_records {
            return Err("a read-only workload changed the store".into());
        }
        let target = &self.objects[0];
        sut::canary_fetch(&self.server, &self.pki, target.oid)?;
        Prov::collect(&self.store, target.oid)?.canary(&self.pki, &target.hash)?;
        Ok(format!(
            "every fetch verified and matched its reference digest; \
             wire and in-process canaries fired on #{}",
            target.oid
        ))
    }

    fn layers(&mut self, window: &[Timed], lab: &mut Lab) -> Result<(), Fail> {
        let ops = window.len() as f64;
        let recv_per_op = self.reads.report(&self.remote, &self.server, ops, lab.m);
        lab.m
            .set("core.records_per_op", ratio(self.records as f64, ops));
        let delta = |i: usize| (self.obs.counter(COUNTERS[i]) - self.counters0[i]) as f64;
        lab.m
            .set("crypto.verify_calls_per_op", ratio(delta(0), ops));
        lab.m.set("crypto.modpow_per_op", ratio(delta(1), ops));

        // Probes: the parts of a fetch that can be called on their own.
        probe_crypto(&self.pki, lab)?;
        let objects = self.offered();
        let oids: Vec<u64> = objects.iter().map(|o| o.0).collect();
        probe_storage(&self.store, &oids, lab)?;
        let (collect_us, verify_us) =
            probe_recipient(&self.store, &self.pki, &objects, PROBE_CALLS, lab)?;
        let (connect_us, offer) = probe_connect(&mut self.remote, PROBE_CALLS, lab)?;

        // Codec: encode + decode of the messages one transfer is made of.
        let span = lab.tr.begin("probe.net.codec");
        let messages = Prov::collect(&self.store, oids[0])?.wire_messages(&offer);
        let mut buf = Vec::new();
        let mut bytes = 0usize;
        let codec_us = lab.clock.median_us(CODEC_CALLS, |_| {
            bytes = 0;
            for msg in &messages {
                bytes += msg.roundtrip(&mut buf)?;
            }
            Ok::<(), Fail>(())
        })?;
        lab.tr.end(span);
        let codec_us_per_kib = ratio(codec_us, bytes as f64 / 1024.0);
        lab.m.set("net.codec_us_per_kib", codec_us_per_kib);

        // What is left of a fetch once everything callable on its own is
        // taken out: event loop, syscalls, copies.
        let fetch_us = p50(&class_us(window, |_| true));
        let codec_per_op = codec_us_per_kib * recv_per_op / 1024.0;
        let residual = fetch_us - connect_us - collect_us - verify_us - codec_per_op;
        lab.m.set("core.verify_share", ratio(verify_us, fetch_us));
        lab.m.set("net.residual_us_per_op", residual);
        lab.m.set("net.residual_share", ratio(residual, fetch_us));
        lab.m
            .set("fetch.layer_sum_share", 1.0 - ratio(residual, fetch_us));
        Ok(())
    }
}
