//! A scoped worker pool with deterministic work splitting and ordered
//! result reduction.
//!
//! The exploration frontiers in this repo (litmus corpus runs, chaos
//! campaign sweeps) are embarrassingly parallel over *independent* work
//! items, but their reports are contractually deterministic: the same
//! input must yield byte-identical output regardless of how many
//! threads ran it. This crate provides exactly that discipline, in the
//! same offline-shim spirit as `criterion`/`quickprop`: no external
//! dependencies, just `std::thread::scope`.
//!
//! Two rules make the parallelism invisible in the results:
//!
//! 1. **Deterministic splitting** — worker `w` of `W` statically owns
//!    items `w, w + W, w + 2W, ...`. No work stealing, no dependence on
//!    scheduling order.
//! 2. **Ordered reduction** — every result is written back to its
//!    item's index, so [`par_map`] returns results in input order, the
//!    same `Vec` a sequential `map` would produce.
//!
//! ```
//! let doubled = ise_par::par_map(&[1, 2, 3, 4], 2, |_, &x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6, 8]);
//! ```
//!
//! The worker count comes from the `ISE_WORKERS` environment variable
//! when set (see [`worker_count`]), so CI can pin it per matrix leg.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::panic;
use std::thread;

/// Parses a worker-count override (the `ISE_WORKERS` convention):
/// `Some(n)` for a positive integer, `None` for anything else (the
/// pure-`Option` surface over [`ise_types::env::parse_count`];
/// [`worker_count`] is the loud env-reading one).
pub fn parse_workers(value: Option<&str>) -> Option<NonZeroUsize> {
    value.and_then(|v| ise_types::env::parse_count(v).ok())
}

/// The worker count to use by default: `ISE_WORKERS` when set,
/// otherwise the machine's available parallelism (falling back to 1
/// when that cannot be determined).
///
/// # Panics
///
/// Panics if `ISE_WORKERS` is set to anything but a positive integer —
/// previously a typo silently serialized the whole run onto one worker.
pub fn worker_count() -> usize {
    match ise_types::env::env_count("ISE_WORKERS") {
        Some(n) => n.get(),
        None => thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Maps `f` over `items` on `workers` scoped threads, returning results
/// in input order.
///
/// `f` receives `(index, &item)`. With `workers <= 1` (or fewer than two
/// items) everything runs on the calling thread — the sequential
/// reference path the differential tests compare against. Work is split
/// statically by stride and results are reduced by index, so the output
/// is identical for every worker count.
///
/// # Panics
///
/// A panic in `f` is resumed on the calling thread with its original
/// payload once every worker has stopped.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(workers)
                        .map(|(i, item)| (i, f(i, item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            let results = h.join().unwrap_or_else(|payload| {
                // Re-raise the worker's panic (e.g. an invariant
                // assertion in a campaign cell) with its payload intact.
                panic::resume_unwind(payload)
            });
            for (i, r) in results {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("strided split covers every index"))
        .collect()
}

/// [`par_map`] that evaluates each distinct key once: `key` runs on the
/// calling thread in input order, `f` runs on the first item carrying
/// each key (receiving that item's index), and every later item with an
/// equal key gets a clone of that result.
///
/// Returns the results in input order plus the number of distinct keys
/// (the evaluations actually run). Equal keys must mean equal results;
/// callers key by the full content the evaluation observes.
pub fn par_map_dedup<T, K, R, F>(
    items: &[T],
    workers: usize,
    mut key: impl FnMut(&T) -> K,
    f: F,
) -> (Vec<R>, usize)
where
    T: Sync,
    K: Hash + Eq,
    R: Clone + Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut slot_of: HashMap<K, usize> = HashMap::new();
    let mut firsts: Vec<usize> = Vec::new();
    let slots: Vec<usize> = items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            *slot_of.entry(key(item)).or_insert_with(|| {
                firsts.push(i);
                firsts.len() - 1
            })
        })
        .collect();
    let unique = par_map(&firsts, workers, |_, &i| f(i, &items[i]));
    let results = slots.into_iter().map(|s| unique[s].clone()).collect();
    (results, firsts.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..57).collect();
        for workers in [1, 2, 3, 4, 8, 57, 100] {
            let out = par_map(&items, workers, |i, &x| {
                assert_eq!(i, x);
                x * 10
            });
            let expect: Vec<usize> = items.iter().map(|x| x * 10).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..33).collect();
        par_map(&items, 4, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let none: Vec<u8> = Vec::new();
        assert!(par_map(&none, 8, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u8], 8, |_, &x| x), vec![7]);
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let items: Vec<usize> = (0..16).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, 4, |_, &x| {
                assert_ne!(x, 11, "poisoned item");
            });
        }))
        .expect_err("panic must propagate");
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("poisoned item"), "got: {msg}");
    }

    #[test]
    fn dedup_evaluates_each_key_once_and_replicates_in_order() {
        let hits = AtomicUsize::new(0);
        let items = [3, 1, 3, 2, 1, 3];
        for workers in [1, 2, 4] {
            hits.store(0, Ordering::Relaxed);
            let (out, unique) = par_map_dedup(
                &items,
                workers,
                |&x| x,
                |i, &x| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    (i, x * 10)
                },
            );
            assert_eq!(unique, 3);
            assert_eq!(hits.load(Ordering::Relaxed), 3, "workers={workers}");
            // Each result comes from the first item with that key.
            let expect = vec![(0, 30), (1, 10), (0, 30), (3, 20), (1, 10), (0, 30)];
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn parse_workers_accepts_positive_integers_only() {
        assert_eq!(parse_workers(Some("4")).map(NonZeroUsize::get), Some(4));
        assert_eq!(parse_workers(Some(" 2 ")).map(NonZeroUsize::get), Some(2));
        assert_eq!(parse_workers(Some("0")), None);
        assert_eq!(parse_workers(Some("-1")), None);
        assert_eq!(parse_workers(Some("lots")), None);
        assert_eq!(parse_workers(None), None);
    }

    #[test]
    fn worker_count_is_at_least_one() {
        assert!(worker_count() >= 1);
    }
}
