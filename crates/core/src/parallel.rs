//! A minimal self-scheduling worker pool for the batch crypto pipeline.
//!
//! Signing and verification are embarrassingly parallel once the dependency
//! structure is respected: within one batch every record chains onto a
//! *pre-batch* head, and distinct objects' chains never share state (§3.2 —
//! per-object chaining is precisely what makes this safe). This module
//! provides the fan-out primitive
//! [`crate::tracker::ProvenanceTracker::complex_per_record`] builds on.
//!
//! Scheduling is dynamic: workers claim the next item off a shared atomic
//! counter, so a straggler item (say, one object with a 100-record chain
//! among single-record ones) never idles the other workers — the same load
//! balancing a work-stealing deque buys, without the machinery. Results are
//! returned in item order regardless of completion order, so parallel runs
//! are observationally identical to sequential ones.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item of `items` across `threads` self-scheduling
/// workers and returns the results in item order.
///
/// `threads` is clamped to `1..=items.len()`; with one thread (or one item)
/// this degenerates to a plain sequential map with zero overhead. A panic
/// in `f` is propagated to the caller after all workers stop.
pub(crate) fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let chunks: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| match w.join() {
                Ok(results) => results,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut merged: Vec<(usize, R)> = chunks.into_iter().flatten().collect();
    merged.sort_unstable_by_key(|&(i, _)| i);
    merged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(8, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential() {
        let items: Vec<String> = (0..57).map(|i| format!("item-{i}")).collect();
        let seq = parallel_map(1, &items, |i, s| format!("{i}:{s}"));
        let par = parallel_map(4, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(seq, par);
    }

    #[test]
    fn degenerate_inputs() {
        let empty: Vec<u8> = vec![];
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(0, &[7u8], |_, &x| x), vec![7]);
        // More threads than items.
        assert_eq!(parallel_map(64, &[1u8, 2], |_, &x| x), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        parallel_map(4, &items, |_, &x| {
            if x == 9 {
                panic!("boom");
            }
            x
        });
    }
}
