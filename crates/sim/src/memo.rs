//! Process-wide memo tables for pure set-up computations.
//!
//! Sweep cells that differ only in budget or scheme repeat the same pure
//! set-up work, so each such computation memoizes through one [`Memo`]
//! static. Keys are the exact `Debug` rendering of the inputs: `{:?}` for
//! `f64` is round-trip exact, so equal keys mean bit-identical inputs and
//! a cached value is bit-identical to recomputation, whichever thread
//! filled the entry first. The computation runs outside the lock; a racing
//! double compute writes the same bits.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// A `Debug`-string-keyed memo table with hit/miss counters.
#[derive(Default)]
pub struct Memo<V> {
    table: OnceLock<Mutex<BTreeMap<String, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone> Memo<V> {
    /// An empty table, usable as a `static` initializer.
    pub const fn new() -> Self {
        Self {
            table: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Locks the table, recovering a poisoned lock: entries are inserted
    /// whole, so a panic elsewhere cannot leave one half-written, and
    /// wedging later lookups would turn one failed cell into an outage.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, V>> {
        let table = self.table.get_or_init(Default::default);
        table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value cached under `key`, computed by `compute` and cached on a
    /// miss, and whether it came from the table.
    pub fn get_or_compute(&self, key: &str, compute: impl FnOnce() -> V) -> (V, bool) {
        if let Some(v) = self.lock().get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (v.clone(), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        self.lock().insert(key.to_owned(), v.clone());
        (v, false)
    }

    /// Cumulative (hits, misses) of this table for the process.
    pub fn stats(&self) -> (u64, u64) {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        (load(&self.hits), load(&self.misses))
    }

    /// Test support: panics while holding the lock (caught here), leaving
    /// it poisoned as a computation dying mid-lookup would.
    #[doc(hidden)]
    #[allow(clippy::panic)] // the panic poisons the lock; it is caught right here
    pub fn poison_for_tests(&self) {
        let _ = std::panic::catch_unwind(|| {
            let _guard = self.lock();
            panic!("poisoning memo table");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_hits_and_skips_the_computation() {
        let memo = Memo::new();
        assert_eq!(memo.get_or_compute("k", || 1.5), (1.5, false));
        assert_eq!(memo.get_or_compute("k", || unreachable!()), (1.5, true));
        assert_eq!(memo.stats(), (1, 1));
    }

    #[test]
    fn poisoned_table_recovers_and_keeps_its_entries() {
        let memo = Memo::new();
        memo.get_or_compute("k", || 7);
        memo.poison_for_tests();
        assert_eq!(memo.get_or_compute("k", || 0), (7, true));
    }

    #[test]
    fn concurrent_first_lookups_agree_bit_for_bit() {
        let (threads, lookups): (usize, usize) = (4, 8);
        let memo = Memo::new();
        let value = || 0.1f64.sqrt();
        // Release every thread at once so the first lookups overlap.
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..lookups {
                        let got = memo.get_or_compute("k", value).0;
                        assert_eq!(got.to_bits(), value().to_bits());
                    }
                });
            }
        });
        let (hits, misses) = memo.stats();
        assert!(misses >= 1);
        assert_eq!(hits + misses, (threads * lookups) as u64);
    }
}
