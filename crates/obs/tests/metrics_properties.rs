//! Integration tests for the observability spine: concurrency correctness
//! of sharded counters, histogram bucket-boundary properties, and
//! text-exposition format stability.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tep_obs::{latency_bounds_ns, Histogram, MetricValue, Registry};

/// Counters are monotonic and lose no increments under concurrent
/// hammering from more threads than there are shards.
#[test]
fn counter_sharded_sum_is_exact_under_contention() {
    let reg = Registry::new();
    let counter = reg.counter("tep_test_hammer_total");
    const THREADS: usize = 16;
    const PER_THREAD: u64 = 50_000;

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let c = counter.clone();
            std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.value(), THREADS as u64 * PER_THREAD);
    assert_eq!(reg.counter_value("tep_test_hammer_total"), counter.value());
}

/// A reader racing with writers only ever sees the counter move forward.
#[test]
fn counter_reads_are_monotonic_during_writes() {
    let reg = Registry::new();
    let counter = reg.counter("tep_test_mono_total");
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..4)
        .map(|_| {
            let c = counter.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    c.inc();
                }
            })
        })
        .collect();

    let mut last = 0u64;
    for _ in 0..10_000 {
        let now = counter.value();
        assert!(now >= last, "counter went backwards: {last} -> {now}");
        last = now;
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
}

/// Histogram totals are exact under concurrent observation.
#[test]
fn histogram_counts_are_exact_under_contention() {
    let h = Histogram::with_bounds(&latency_bounds_ns());
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 20_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = h.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    h.observe(t * 1000 + i);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(h.count(), THREADS * PER_THREAD);
    assert_eq!(h.bucket_counts().iter().sum::<u64>(), THREADS * PER_THREAD);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every observation lands in exactly the first bucket whose inclusive
    /// upper bound is >= the value (`le` semantics), sums/counts track, and
    /// bucket totals equal the observation count.
    #[test]
    fn histogram_bucket_boundaries(values in prop::collection::vec(any::<u64>(), 1..64)) {
        let bounds = [10u64, 100, 1_000, 10_000];
        let h = Histogram::with_bounds(&bounds);
        for &v in &values {
            h.observe(v);
        }
        let buckets = h.bucket_counts();
        prop_assert_eq!(buckets.len(), bounds.len() + 1);
        let mut expect = vec![0u64; bounds.len() + 1];
        let mut expect_sum = 0u64;
        for &v in &values {
            let idx = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
            expect[idx] += 1;
            expect_sum = expect_sum.wrapping_add(v);
        }
        prop_assert_eq!(&buckets, &expect);
        prop_assert_eq!(h.count(), values.len() as u64);
        // The histogram's sum wraps the same way u64 addition does.
        prop_assert_eq!(h.sum(), expect_sum);
        prop_assert_eq!(buckets.iter().sum::<u64>(), values.len() as u64);
    }

    /// Exact-boundary values always land in their own bucket, never the
    /// next one up.
    #[test]
    fn histogram_boundary_is_inclusive(which in 0usize..4) {
        let bounds = [10u64, 100, 1_000, 10_000];
        let h = Histogram::with_bounds(&bounds);
        h.observe(bounds[which]);
        let buckets = h.bucket_counts();
        prop_assert_eq!(buckets[which], 1);
        prop_assert_eq!(buckets.iter().sum::<u64>(), 1);
    }
}

/// The text exposition format is pinned: sorted by name, `# TYPE` headers,
/// cumulative `le` buckets, `_sum`/`_count` suffixes. Renderer changes
/// must update this snapshot consciously — dashboards parse this text.
#[test]
fn text_exposition_format_snapshot() {
    let reg = Registry::new();
    reg.counter("tep_b_total").add(3);
    reg.gauge("tep_c_level").set(-2);
    let h = reg.histogram("tep_a_ns", &[10, 100]);
    h.observe(5);
    h.observe(7);
    h.observe(50);
    h.observe(5_000);

    let expected = "\
# TYPE tep_a_ns histogram
tep_a_ns_bucket{le=\"10\"} 2
tep_a_ns_bucket{le=\"100\"} 3
tep_a_ns_bucket{le=\"+Inf\"} 4
tep_a_ns_sum 5062
tep_a_ns_count 4
# TYPE tep_b_total counter
tep_b_total 3
# TYPE tep_c_level gauge
tep_c_level -2
";
    assert_eq!(reg.render_text(), expected);
}

/// Snapshots expose the deterministic count component used by the
/// seed-determinism regression: counters and histogram counts, never
/// histogram sums (which carry timing).
#[test]
fn snapshot_deterministic_counts() {
    let reg = Registry::new();
    reg.counter("c").add(7);
    let h = reg.latency_histogram("h");
    h.observe(123);
    h.observe(456);
    let counts: Vec<(String, u64)> = reg
        .snapshot()
        .iter()
        .map(|s| (s.name.clone(), s.value.deterministic_count()))
        .collect();
    assert_eq!(counts, vec![("c".to_string(), 7), ("h".to_string(), 2)]);
    // Histogram sums are explicitly not part of the deterministic view.
    match &reg.snapshot()[1].value {
        MetricValue::Histogram { sum, .. } => assert_eq!(*sum, 579),
        other => panic!("expected histogram, got {other:?}"),
    }
}
