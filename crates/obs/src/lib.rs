//! # tep-obs
//!
//! A std-only, zero-dependency observability spine for the tepdb crates.
//!
//! Everything hangs off a [`Registry`] — there are **no globals**: each
//! process (or test) creates its own registry, hands cheap clones to the
//! subsystems it wants instrumented, and reads the results back through
//! [`Registry::snapshot`] or the Prometheus-style [`Registry::render_text`].
//!
//! Three metric kinds cover the crates' needs:
//!
//! * [`Counter`] — monotonic, lock-sharded over cache-line-padded atomics
//!   so concurrent hot paths (the parallel sign/verify pipeline, the
//!   tep-net worker pool) never contend on one cache line.
//! * [`Gauge`] — a point-in-time signed value (queue depths, open
//!   connections).
//! * [`Histogram`] — fixed upper-bound buckets with a running sum/count;
//!   [`Registry::latency_histogram`] provides canonical exponential
//!   nanosecond bounds for timing crypto and fsync latencies.
//!
//! For *where time goes* rather than *how much*, [`Registry::span`] opens a
//! lightweight hierarchical span: monotonic timing, per-thread nesting
//! depth, and completion events pushed into a bounded ring buffer that
//! [`Registry::trace_dump`] renders on failure.
//!
//! Metric names follow the `tep_<crate>_<name>` schema documented in
//! DESIGN.md §"Observability"; registration is idempotent (same name ⇒ same
//! handle) so layers can attach independently without coordination.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod names;

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of independent shards a [`Counter`] spreads its increments over.
const COUNTER_SHARDS: usize = 8;

/// Maximum completed-span events the trace ring retains (oldest dropped).
const TRACE_CAPACITY: usize = 1024;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// One cache line's worth of counter state, so neighbouring shards never
/// false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

#[derive(Default)]
struct CounterInner {
    shards: [PaddedU64; COUNTER_SHARDS],
}

/// A monotonically increasing counter.
///
/// Increments go to a per-thread shard with a relaxed `fetch_add`; reads
/// sum the shards. Clones share state.
#[derive(Clone, Default)]
pub struct Counter {
    inner: Arc<CounterInner>,
}

/// Stable per-thread shard index: threads round-robin over the shards in
/// creation order, so any fixed set of worker threads spreads evenly.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let mut idx = s.get();
        if idx == usize::MAX {
            idx = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
            s.set(idx);
        }
        idx
    })
}

impl Counter {
    /// Creates a free-standing counter (not attached to a registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.inner.shards[shard_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Current total across all shards.
    pub fn value(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A point-in-time signed value (queue depth, open connections).
#[derive(Clone, Default)]
pub struct Gauge {
    inner: Arc<AtomicI64>,
}

impl Gauge {
    /// Creates a free-standing gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.inner.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.inner.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.inner.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.inner.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

struct HistogramInner {
    /// Inclusive upper bounds, strictly increasing. An implicit `+Inf`
    /// bucket follows the last bound.
    bounds: Vec<u64>,
    /// One bucket per bound plus the overflow bucket (non-cumulative).
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram: each observation lands in the first bucket
/// whose upper bound is ≥ the value (`le` semantics), plus a running
/// sum and count. Clones share state.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

/// Canonical exponential nanosecond bounds for latency histograms:
/// 250ns … ~4s in powers of four, a range wide enough for both a sharded
/// counter increment and an RSA-2048 signing operation.
pub fn latency_bounds_ns() -> Vec<u64> {
    (0..13).map(|i| 250u64 << (2 * i)).collect()
}

impl Histogram {
    /// Creates a free-standing histogram with the given inclusive upper
    /// bounds. Bounds must be strictly increasing and non-empty.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets,
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let i = self.inner.bounds.partition_point(|&b| b < v);
        self.inner.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a timer that records into this histogram when dropped.
    pub fn start_timer(&self) -> HistogramTimer {
        HistogramTimer {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// The configured inclusive upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.inner.bounds
    }

    /// Per-bucket (non-cumulative) observation counts; the final entry is
    /// the `+Inf` overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ≤ q ≤ 1.0`): the
    /// inclusive upper bound of the first bucket whose cumulative count
    /// reaches `ceil(q · count)`. Returns `None` when the histogram is
    /// empty, or when the quantile lands in the `+Inf` overflow bucket
    /// (no finite upper bound exists). Bucketed, so it over-estimates by
    /// at most one bucket width — fine for a p99 report, not for math.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (i, bucket) in self.inner.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return self.inner.bounds.get(i).copied();
            }
        }
        None
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// Guard returned by [`Histogram::start_timer`]; records the elapsed time
/// into the histogram on drop.
pub struct HistogramTimer {
    hist: Histogram,
    start: Instant,
}

impl HistogramTimer {
    /// Stops the timer now, recording the elapsed duration.
    pub fn stop(self) {}
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.hist.observe_duration(self.start.elapsed());
    }
}

// ---------------------------------------------------------------------------
// Spans + trace ring
// ---------------------------------------------------------------------------

/// One completed span, as retained by the trace ring buffer.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span name.
    pub name: String,
    /// Nesting depth at creation (0 = top level on that thread).
    pub depth: usize,
    /// Start time, nanoseconds since the registry's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds (monotonic clock).
    pub duration_ns: u64,
}

thread_local! {
    /// Per-thread span nesting depth.
    static SPAN_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// A live hierarchical span: created by [`Registry::span`], records its
/// monotonic duration and nesting depth into the registry's trace ring
/// when dropped (or explicitly via [`Span::finish`]).
pub struct Span {
    registry: Arc<RegistryInner>,
    name: String,
    depth: usize,
    start: Instant,
}

impl Span {
    /// Nesting depth of this span on its creating thread.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        SPAN_DEPTH.with(|d| d.set(self.depth));
        let event = TraceEvent {
            name: std::mem::take(&mut self.name),
            depth: self.depth,
            start_ns: u64::try_from(
                self.start
                    .saturating_duration_since(self.registry.epoch)
                    .as_nanos(),
            )
            .unwrap_or(u64::MAX),
            duration_ns: u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        };
        let mut ring = self
            .registry
            .trace
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if ring.len() == TRACE_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(event);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct RegistryInner {
    metrics: Mutex<BTreeMap<String, Metric>>,
    trace: Mutex<VecDeque<TraceEvent>>,
    epoch: Instant,
}

/// A global-free collection of named metrics plus a span trace ring.
///
/// Cloning is cheap (an `Arc` bump) and clones share all state — hand one
/// clone to each subsystem you want instrumented. Metric registration is
/// idempotent: asking twice for the same name returns handles to the same
/// underlying metric. Asking for an existing name **as a different kind**
/// panics (a programming error, caught loudly).
///
/// ```
/// use tep_obs::Registry;
///
/// let reg = Registry::new();
/// let hits = reg.counter("tep_core_cache_hits_total");
/// hits.inc();
/// hits.add(2);
/// assert_eq!(reg.counter_value("tep_core_cache_hits_total"), 3);
/// assert!(reg.render_text().contains("tep_core_cache_hits_total 3"));
/// ```
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry; its epoch (for span timestamps) is now.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                metrics: Mutex::new(BTreeMap::new()),
                trace: Mutex::new(VecDeque::new()),
                epoch: Instant::now(),
            }),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let entry = metrics.entry(name.to_string()).or_insert_with(make);
        entry.clone()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Panics if `name` is already registered as another kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    /// Panics if `name` is already registered as another kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Returns the histogram registered under `name`, creating it with the
    /// given bounds on first use (later calls keep the original bounds).
    /// Panics if `name` is already registered as another kind.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::with_bounds(bounds))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// A histogram with the canonical exponential latency bounds
    /// ([`latency_bounds_ns`]).
    pub fn latency_histogram(&self, name: &str) -> Histogram {
        self.histogram(name, &latency_bounds_ns())
    }

    /// Current value of the counter `name`, or 0 if absent. (Convenient in
    /// tests; absent and never-incremented are indistinguishable.)
    pub fn counter_value(&self, name: &str) -> u64 {
        let metrics = self.inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match metrics.get(name) {
            Some(Metric::Counter(c)) => c.value(),
            _ => 0,
        }
    }

    /// Opens a hierarchical [`Span`]; its completion is recorded in the
    /// trace ring when the returned guard drops.
    pub fn span(&self, name: impl Into<String>) -> Span {
        let depth = SPAN_DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        Span {
            registry: Arc::clone(&self.inner),
            name: name.into(),
            depth,
            start: Instant::now(),
        }
    }

    /// Point-in-time snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let metrics = self.inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        metrics
            .iter()
            .map(|(name, metric)| MetricSnapshot {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.value()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        bounds: h.bounds().to_vec(),
                        buckets: h.bucket_counts(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                },
            })
            .collect()
    }

    /// Renders every metric in the Prometheus text exposition format,
    /// sorted by name (deterministic for a given set of values).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for snap in self.snapshot() {
            let name = &snap.name;
            match &snap.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
                }
                MetricValue::Histogram {
                    bounds,
                    buckets,
                    sum,
                    count,
                } => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (bound, bucket) in bounds.iter().zip(buckets) {
                        cumulative += bucket;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
                    let _ = writeln!(out, "{name}_sum {sum}\n{name}_count {count}");
                }
            }
        }
        out
    }

    /// Renders the retained trace ring, oldest first, indented by nesting
    /// depth — intended for dumping on test/verification failure.
    pub fn trace_dump(&self) -> String {
        let ring = self.inner.trace.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for ev in ring.iter() {
            let _ = writeln!(
                out,
                "{:>10.3}ms {}{} {:.3}ms",
                ev.start_ns as f64 / 1e6,
                "  ".repeat(ev.depth),
                ev.name,
                ev.duration_ns as f64 / 1e6,
            );
        }
        out
    }

    /// Completed-span events currently retained (oldest first).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner
            .trace
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

/// One metric's name and value as captured by [`Registry::snapshot`].
#[derive(Clone, Debug)]
pub struct MetricSnapshot {
    /// Registered metric name (`tep_<crate>_<name>` by convention).
    pub name: String,
    /// The captured value.
    pub value: MetricValue,
}

/// A captured metric value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram state.
    Histogram {
        /// Inclusive upper bounds (without `+Inf`).
        bounds: Vec<u64>,
        /// Non-cumulative per-bucket counts; last entry is the `+Inf`
        /// overflow bucket.
        buckets: Vec<u64>,
        /// Sum of observations.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

impl MetricValue {
    /// The deterministic "count" component of this metric: counter total,
    /// gauge level (clamped at 0), or histogram observation count. Timing
    /// content (histogram sums/buckets) is deliberately excluded so the
    /// result is reproducible run-to-run — this is what the
    /// seed-determinism regression compares.
    pub fn deterministic_count(&self) -> u64 {
        match self {
            MetricValue::Counter(v) => *v,
            MetricValue::Gauge(v) => u64::try_from(*v).unwrap_or(0),
            MetricValue::Histogram { count, .. } => *count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.value(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.value(), 42);
    }

    #[test]
    fn registry_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.inc();
        assert_eq!(reg.counter_value("x"), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_le_semantics() {
        let h = Histogram::with_bounds(&[10, 100]);
        h.observe(10); // le=10
        h.observe(11); // le=100
        h.observe(1000); // +Inf
        assert_eq!(h.bucket_counts(), vec![1, 1, 1]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1021);
    }

    #[test]
    fn quantile_reports_bucket_upper_bounds() {
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        assert_eq!(h.quantile(0.99), None); // empty
        for _ in 0..98 {
            h.observe(5); // le=10
        }
        h.observe(50); // le=100
        h.observe(500); // le=1000
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), Some(10));
        assert_eq!(h.quantile(0.98), Some(10));
        assert_eq!(h.quantile(0.99), Some(100));
        assert_eq!(h.quantile(1.0), Some(1000));
        // Overflow bucket has no finite bound.
        h.observe(u64::MAX);
        assert_eq!(h.quantile(1.0), None);
        // Out-of-range q is rejected, not clamped.
        assert_eq!(h.quantile(1.5), None);
    }

    /// Pins the exposition format of the event-loop metrics added for the
    /// readiness-driven server: a rename or kind change here breaks every
    /// dashboard scraping them, so the full text is asserted verbatim.
    #[test]
    fn event_loop_metrics_exposition_snapshot() {
        let reg = Registry::new();
        let wakeups = reg.counter(names::NET_EPOLL_WAKEUPS);
        let reuses = reg.counter(names::NET_CONN_REUSES);
        let redials = reg.counter(names::NET_STALE_REDIALS);
        let open = reg.gauge(names::NET_OPEN_CONNECTIONS);
        let turnaround = reg.latency_histogram(names::NET_FRAME_TURNAROUND);

        wakeups.add(7);
        reuses.add(119);
        redials.inc();
        open.add(3);
        open.sub(1);
        turnaround.observe(250);

        let text = reg.render_text();
        let expected = "\
# TYPE tep_net_conn_reuses_total counter
tep_net_conn_reuses_total 119
# TYPE tep_net_epoll_wakeups_total counter
tep_net_epoll_wakeups_total 7
# TYPE tep_net_frame_turnaround_ns histogram
tep_net_frame_turnaround_ns_bucket{le=\"250\"} 1
";
        assert!(
            text.starts_with(expected),
            "exposition drifted:\n{text}\nexpected prefix:\n{expected}"
        );
        assert!(text.contains("# TYPE tep_net_open_connections gauge\ntep_net_open_connections 2"));
        assert!(text.contains("tep_net_frame_turnaround_ns_count 1"));
        assert!(text
            .contains("# TYPE tep_net_stale_redials_total counter\ntep_net_stale_redials_total 1"));
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(5);
        g.sub(2);
        assert_eq!(g.value(), 3);
        g.set(-7);
        assert_eq!(g.value(), -7);
    }

    #[test]
    fn span_records_trace_event() {
        let reg = Registry::new();
        {
            let _outer = reg.span("outer");
            let inner = reg.span("inner");
            inner.finish();
        }
        let events = reg.trace_events();
        assert_eq!(events.len(), 2);
        // Inner finishes first, at depth 1.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].depth, 0);
    }
}
