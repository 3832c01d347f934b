//! What a workload is to the harness, the metric tables, and the probes the
//! workloads share.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::host::Clock;
use crate::stats::{median, percentile, ratio};
use crate::sut::{Fail, Obs, Offered, OpCost, Pki, Prov, Remote, Row, Server, Store, Traffic};
use crate::trace::Tracer;

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// What a user of the system sees. Measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_us", "us", "lower"),
    ("op_p90_us", "us", "lower"),
    ("disk_bytes_per_record", "B", "lower"),
    ("reopen_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// One layer each (the layers are the crates), from the traced run. A
/// metric a workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("crypto.sign_us", "us", "lower"),
    ("crypto.verify_us", "us", "lower"),
    ("crypto.sign_share", "ratio", "lower"),
    ("crypto.sign_calls_per_op", "count", "lower"),
    ("crypto.verify_calls_per_op", "count", "lower"),
    ("crypto.modpow_per_op", "count", "lower"),
    ("core.hash_us_per_op", "us", "lower"),
    ("core.hash_share", "ratio", "lower"),
    ("core.nodes_hashed_per_op", "count", "lower"),
    ("core.records_per_op", "count", "lower"),
    ("core.other_us_per_op", "us", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    ("core.collect_us", "us", "lower"),
    ("core.verify_us_per_record", "us", "lower"),
    ("core.verify_share", "ratio", "lower"),
    ("core.verify_slice_us_per_record", "us", "lower"),
    ("storage.append_us_per_record", "us", "lower"),
    ("storage.sync_us_p50", "us", "lower"),
    ("storage.sync_us_p90", "us", "lower"),
    ("storage.sync_share", "ratio", "lower"),
    ("storage.fsyncs_per_op", "count", "lower"),
    ("storage.write_bytes_per_record", "B", "lower"),
    ("storage.encode_us_per_record", "us", "lower"),
    ("storage.decode_us_per_record", "us", "lower"),
    ("storage.lookup_us", "us", "lower"),
    ("storage.reopen_us_per_krecord", "us", "lower"),
    ("net.connect_us_p50", "us", "lower"),
    ("net.offer_bytes", "B", "lower"),
    ("net.codec_us_per_kib", "us", "lower"),
    ("net.residual_us_per_op", "us", "lower"),
    ("net.residual_share", "ratio", "lower"),
    ("net.frames_per_op", "count", "lower"),
    ("net.bytes_sent_per_op", "B", "lower"),
    ("net.bytes_recv_per_op", "B", "lower"),
    ("net.wakeups_per_op", "count", "lower"),
    ("net.retries", "count", "lower"),
    ("query.lineage_us_p50", "us", "lower"),
    ("query.ancestors_us_p50", "us", "lower"),
    ("query.descendants_us_p50", "us", "lower"),
    ("query.polynomial_us_p50", "us", "lower"),
    ("query.audit_us_p50", "us", "lower"),
    ("query.wire_query_us_p50", "us", "lower"),
    ("query.wire_audit_us_p50", "us", "lower"),
    ("query.index_build_ms", "ms", "lower"),
    ("query.index_sync_us_per_record", "us", "lower"),
    ("query.sidecar_save_ms", "ms", "lower"),
    ("query.sidecar_load_ms", "ms", "lower"),
    ("query.slice_records_mean", "count", "lower"),
    ("query.proof_bytes_mean", "B", "lower"),
    ("obs.attach_overhead_pct", "%", "lower"),
    ("ingest.layer_sum_share", "ratio", "higher"),
    ("fetch.layer_sum_share", "ratio", "higher"),
    ("host.steal_pct", "%", "lower"),
    ("host.calib_ms", "ms", "lower"),
    ("host.calib_drift_pct", "%", "lower"),
    ("host.slow_share", "ratio", "lower"),
    ("host.cpu_us_per_op", "us", "lower"),
    ("host.measured_s", "s", "higher"),
    ("host.op_p99_us", "us", "lower"),
    ("host.noisy", "count", "lower"),
];

/// Metric values by name, pre-filled with 0 for every defined name so a run
/// always prints the whole table.
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn of(defs: &'static [MetricDef]) -> Metrics {
        Metrics(defs.iter().map(|d| (d.0, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Where an instance lives and what it is made from.
pub struct Ctx {
    pub seed: u64,
    /// A fresh directory of this instance's own.
    pub dir: PathBuf,
    /// Set-up sizes are divided by this (1 for a real run; `selfcheck`
    /// shrinks them).
    pub shrink: usize,
}

impl Ctx {
    pub fn sized(&self, n: usize) -> usize {
        shrunk(n, self.shrink)
    }
}

/// A pinned size at `1 / shrink` scale (never under 2).
pub fn shrunk(n: usize, shrink: usize) -> usize {
    (n / shrink).max(2)
}

/// One completed operation, as `step` reports it.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Index into the workload's `CLASSES`.
    pub class: usize,
    /// Wall time inside the operation.
    pub ns: u64,
}

/// A window operation with both of its times.
#[derive(Clone, Copy)]
pub struct Timed {
    pub class: usize,
    /// Wall time: what the library's own phase timers add up against.
    pub ns: u64,
    /// Reference time (see `host::Clock`): what latencies are reported in.
    pub ref_ns: f64,
}

/// What `layers` works with: the clock, the span recorder, the metric table.
pub struct Lab<'a> {
    pub clock: &'a mut Clock,
    pub tr: &'a mut Tracer,
    pub m: &'a mut Metrics,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Names of the operation classes `step` reports.
    const CLASSES: &'static [&'static str];

    /// The pinned sizes, for the run header.
    fn sizes(shrink: usize) -> String;

    /// Everything up to "ready to serve the first operation". Timed as
    /// `setup_s`; its loops `tick` the clock so the time can be read at the
    /// machine's speed of the moment.
    fn setup(ctx: &Ctx, obs: Obs, clock: &mut Clock) -> Result<Self, Fail>;

    /// Records in the log set-up left behind (what `reopen` replays).
    fn setup_records(&self) -> usize;

    /// One drop + reopen cycle of the set-up log, on a second handle.
    fn reopen(&self) -> Result<(), Fail>;

    /// Operations to run untimed before the window: a fixed count that ends
    /// on a boundary of the operation schedule.
    fn warmup_ops(&self) -> usize;

    /// Forget what warm-up accumulated; the window starts now.
    fn start_window(&mut self);

    /// One operation, closed loop. Its correctness checks run inside but
    /// outside the returned time.
    fn step(&mut self, tr: &mut Tracer) -> Result<Sample, Fail>;

    /// `true` between two periods of the operation schedule. A window ends
    /// only here, so per-operation counts come out the same on every run.
    fn at_boundary(&self) -> bool {
        true
    }

    /// `true` once the workload has used up its pinned sizes; the window
    /// then ends early and says `resize-me`.
    fn exhausted(&self) -> bool {
        false
    }

    /// Durable log bytes per record, now.
    fn disk_bytes_per_record(&self) -> Result<f64, Fail>;

    /// The untimed correctness gate after the window: state checks, the
    /// tamper canary, durability. Returns a one-line summary.
    fn check(&mut self) -> Result<String, Fail>;

    /// Per-layer metrics of the window just run (traced instance only):
    /// what the instance accumulated, library counters, and direct probes.
    fn layers(&mut self, window: &[Timed], lab: &mut Lab) -> Result<(), Fail>;
}

/// Reference microseconds of the window's operations of one class, ascending.
pub fn class_us(window: &[Timed], class: impl Fn(usize) -> bool) -> Vec<f64> {
    let mut v: Vec<f64> = window
        .iter()
        .filter(|s| class(s.class))
        .map(|s| s.ref_ns / 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

pub fn p50(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, 0.5)
    }
}

/// Reference time per wall time over a set of operations: what turns a sum
/// of the library's own (wall) phase timers into reference time.
pub fn speed(window: &[Timed]) -> f64 {
    let (wall, reference) = window
        .iter()
        .fold((0.0, 0.0), |(w, r), s| (w + s.ns as f64, r + s.ref_ns));
    ratio(reference, wall)
}

const PROBE_CALLS: usize = 512;

/// `crypto` probes: direct signature and signature-check calls.
pub fn probe_crypto(pki: &Pki, lab: &mut Lab) -> Result<(), Fail> {
    let span = lab.tr.begin("probe.crypto");
    let msg = [0x5Au8; 20]; // one SHA-1 digest, what a checksum signs
    let mut sig = Vec::new();
    let sign_us = lab.clock.median_us(PROBE_CALLS, |_| {
        sig = pki.sign(0, &msg)?;
        Ok::<(), Fail>(())
    })?;
    let verify_us = lab
        .clock
        .median_us(PROBE_CALLS, |_| pki.verify(0, &msg, &sig))?;
    lab.tr.end(span);
    lab.m.set("crypto.sign_us", sign_us);
    lab.m.set("crypto.verify_us", verify_us);
    Ok(())
}

/// `storage` probes: row encode/decode and the per-object index lookup.
pub fn probe_storage(store: &Store, oids: &[u64], lab: &mut Lab) -> Result<(), Fail> {
    let span = lab.tr.begin("probe.storage");
    let rows: Vec<Row> = store.sample_rows(store.records() / PROBE_CALLS);
    let mut bytes = Vec::with_capacity(rows.len());
    let encode = lab.clock.median_us(rows.len(), |i| {
        bytes.push(rows[i].encode());
        Ok::<(), Fail>(())
    })?;
    let decode = lab
        .clock
        .median_us(bytes.len(), |i| Row::decode(&bytes[i]))?;
    let lookup = lab.clock.median_us(PROBE_CALLS, |i| {
        std::hint::black_box(store.lookup(oids[i % oids.len()]));
        Ok::<(), Fail>(())
    })?;
    lab.tr.end(span);
    lab.m.set("storage.encode_us_per_record", encode);
    lab.m.set("storage.decode_us_per_record", decode);
    lab.m.set("storage.lookup_us", lookup);
    Ok(())
}

/// `core` probes on the recipient side: `collect` and the full in-process
/// `Verifier::verify` of `(oid, object hash)` pairs. Returns the median
/// microseconds of one collect and one verify.
pub fn probe_recipient(
    store: &Store,
    pki: &Pki,
    objects: &[(u64, Vec<u8>)],
    calls: usize,
    lab: &mut Lab,
) -> Result<(f64, f64), Fail> {
    let span = lab.tr.begin("probe.core");
    let mut provs = Vec::with_capacity(calls);
    let collect_us = lab.clock.median_us(calls, |i| {
        provs.push(Prov::collect(store, objects[i % objects.len()].0)?);
        Ok::<(), Fail>(())
    })?;
    let mut records = Vec::with_capacity(calls);
    let mut each_us = lab.clock.each_us(calls, |i| {
        let n = provs[i].verify(pki, &objects[i % objects.len()].1, &Obs::off())?;
        records.push(n as f64);
        Ok::<(), Fail>(())
    })?;
    lab.tr.end(span);
    // Chains differ in length by orders of magnitude (a root's chain grows
    // with every operation), so the per-record figure is the median of each
    // call's own ratio, not a ratio of medians.
    let mut per_record: Vec<f64> = each_us
        .iter()
        .zip(&records)
        .map(|(us, n)| ratio(*us, *n))
        .collect();
    let verify_us = median(&mut each_us);
    lab.m.set("core.collect_us", collect_us);
    lab.m
        .set("core.verify_us_per_record", median(&mut per_record));
    Ok((collect_us, verify_us))
}

/// What a writing workload accumulates over its window: the library's own
/// phase split of every tracked operation and the harness-timed fsyncs.
#[derive(Default)]
pub struct WriteSide {
    cost: OpCost,
    tracked_ns: u64,
    sync_ns: Vec<u64>,
}

impl WriteSide {
    pub fn clear(&mut self) {
        *self = WriteSide::default();
    }

    /// One acknowledged write: its tracked part and the fsync after it.
    pub fn record(&mut self, cost: &OpCost, tracked_ns: u64, sync_ns: u64) {
        self.cost.add(cost);
        self.tracked_ns += tracked_ns;
        self.sync_ns.push(sync_ns);
    }

    /// The `crypto` / `core` / `storage` split of `writes` — the window's
    /// write operations, in order, one `record` each. Shares are wall over
    /// wall; absolute times are brought to reference time by the speed of
    /// the operation they were part of.
    pub fn report(&self, writes: &[Timed], m: &mut Metrics) {
        let n = writes.len() as f64;
        let wall: f64 = writes.iter().map(|w| w.ns as f64).sum();
        let speed = speed(writes);
        let us = |ns: u64| ns as f64 * speed / 1e3;
        let c = &self.cost;
        m.set("crypto.sign_share", ratio(c.sign_ns as f64, wall));
        m.set("core.hash_us_per_op", ratio(us(c.hash_ns), n));
        m.set("core.hash_share", ratio(c.hash_ns as f64, wall));
        m.set("core.nodes_hashed_per_op", ratio(c.nodes_hashed as f64, n));
        m.set("core.records_per_op", ratio(c.records as f64, n));
        let inside = c.hash_ns + c.sign_ns + c.store_ns;
        m.set(
            "core.other_us_per_op",
            ratio(us(self.tracked_ns.saturating_sub(inside)), n),
        );
        m.set(
            "storage.append_us_per_record",
            ratio(us(c.store_ns), c.records as f64),
        );
        let mut syncs: Vec<f64> = self
            .sync_ns
            .iter()
            .zip(writes)
            .map(|(ns, w)| *ns as f64 * ratio(w.ref_ns, w.ns as f64) / 1e3)
            .collect();
        syncs.sort_by(f64::total_cmp);
        if !syncs.is_empty() {
            m.set("storage.sync_us_p50", percentile(&syncs, 0.5));
            m.set("storage.sync_us_p90", percentile(&syncs, 0.9));
        }
        let sync_total: u64 = self.sync_ns.iter().sum();
        m.set("storage.sync_share", ratio(sync_total as f64, wall));
        m.set(
            "ingest.layer_sum_share",
            ratio((inside + sync_total) as f64, wall),
        );
    }

    pub fn records(&self) -> u64 {
        self.cost.records
    }
}

/// Where a reading workload's window started, for the `net` counts.
#[derive(Default)]
pub struct ReadSide {
    traffic0: Traffic,
    wakeups0: u64,
}

impl ReadSide {
    pub fn start(remote: &Remote, server: &Server) -> ReadSide {
        ReadSide {
            traffic0: remote.traffic(),
            wakeups0: server.wakeups(),
        }
    }

    /// Wire traffic and server wake-ups per read over the window; returns
    /// the bytes received per read.
    pub fn report(&self, remote: &Remote, server: &Server, reads: f64, m: &mut Metrics) -> f64 {
        let (t, t0) = (remote.traffic(), self.traffic0);
        let recv_per_op = ratio((t.bytes_received - t0.bytes_received) as f64, reads);
        m.set("net.bytes_recv_per_op", recv_per_op);
        m.set(
            "net.bytes_sent_per_op",
            ratio((t.bytes_sent - t0.bytes_sent) as f64, reads),
        );
        m.set(
            "net.frames_per_op",
            ratio((t.frames_received - t0.frames_received) as f64, reads),
        );
        m.set(
            "net.wakeups_per_op",
            ratio((server.wakeups() - self.wakeups0) as f64, reads),
        );
        m.set("net.retries", t.retries as f64);
        recv_per_op
    }
}

/// `net` probe: `Client::offer()` is connect + HELLO + OFFER and nothing
/// else. Returns its median microseconds and the manifest.
pub fn probe_connect(
    remote: &mut Remote,
    calls: usize,
    lab: &mut Lab,
) -> Result<(f64, Vec<Offered>), Fail> {
    let span = lab.tr.begin("probe.net.connect");
    let before = remote.traffic().bytes_received;
    let mut offer = Vec::new();
    let connect_us = lab.clock.median_us(calls, |_| {
        offer = remote.offer()?;
        Ok::<(), Fail>(())
    })?;
    lab.tr.end(span);
    lab.m.set("net.connect_us_p50", connect_us);
    lab.m.set(
        "net.offer_bytes",
        (remote.traffic().bytes_received - before) as f64 / calls as f64,
    );
    Ok((connect_us, offer))
}
