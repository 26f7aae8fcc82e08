//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms with deterministic snapshots.
//!
//! Metrics complement the flight recorder: the recorder answers *what
//! happened, in order* (bounded history, typed events); the registry
//! answers *how much, in total* (unbounded aggregation, named scalars).
//! Handles are `Arc`-backed and lock-free on the update path (atomics),
//! so instruments can live on hot paths; names are kept in `BTreeMap`s so
//! every snapshot renders in a stable, sorted order — a requirement for
//! the byte-identical artifacts the CI determinism gates diff.

use crate::fixed::{into_text, json_num, push_num};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering from poison: every mutex in the registry guards
/// data that is only ever mutated in single complete operations (a float
/// add, a map entry insert), so a panicking holder cannot leave it
/// half-updated and later instruments must not be wedged.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Gets the instrument registered under `name`, creating it with `make`
/// when the name is new. A hit looks the name up by `&str` and allocates
/// nothing; only a first registration allocates the key.
fn get_or_insert<T: Clone>(
    map: &Mutex<BTreeMap<String, T>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> T {
    let mut map = lock_recover(map);
    if let Some(instrument) = map.get(name) {
        return instrument.clone();
    }
    map.entry(name.to_string()).or_insert_with(make).clone()
}

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bounds of the finite buckets, strictly increasing;
    /// one implicit overflow bucket follows.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` bucket counts.
    counts: Vec<AtomicU64>,
    /// Running sum of observed values (not atomically mergeable as f64;
    /// a mutex is fine — observation cost is dominated by the bucket
    /// search anyway).
    sum: Mutex<f64>,
}

/// A fixed-bucket histogram: values `v ≤ bounds[i]` land in bucket `i`
/// (first match), values above every bound land in the overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let idx = self.0.bounds.partition_point(|&b| b < value);
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        *lock_recover(&self.0.sum) += value;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        *lock_recover(&self.0.sum)
    }

    /// Per-bucket counts (finite buckets in bound order, then overflow).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The configured bucket bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }
}

/// An immutable rendering of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the finite buckets.
    pub bounds: Vec<f64>,
    /// `bounds.len() + 1` counts (overflow last).
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean of observed values; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum / n as f64)
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A shared, clonable registry of named metrics.
///
/// `counter`/`gauge`/`histogram` return the existing instrument when the
/// name is already registered (get-or-create), so independent components
/// can share a series by name.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        get_or_insert(&self.inner.counters, name, || {
            Counter(Arc::new(AtomicU64::new(0)))
        })
    }

    /// Gets or creates the named gauge (initially 0.0).
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_insert(&self.inner.gauges, name, || {
            Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
        })
    }

    /// Gets or creates the named histogram with the given inclusive upper
    /// bucket bounds (must be strictly increasing and non-empty). Bounds
    /// are fixed at first registration; later calls ignore `bounds`.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        get_or_insert(&self.inner.histograms, name, || {
            Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
                sum: Mutex::new(0.0),
            }))
        })
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: lock_recover(&self.inner.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock_recover(&self.inner.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock_recover(&self.inner.histograms)
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            bounds: v.bounds().to_vec(),
                            counts: v.bucket_counts(),
                            sum: v.sum(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Registry`], renderable as JSON or a
/// one-page text report. Maps are `BTreeMap`s, so rendering order is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Renders the snapshot as a JSON document (hand-rolled — the
    /// workspace builds with zero external crates).
    pub fn to_json(&self) -> String {
        let mut s = b"{\n  \"counters\": {".to_vec();
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = write!(s, "\n    \"{k}\": {v}{sep}");
        }
        s.extend_from_slice(if self.counters.is_empty() {
            b"},\n"
        } else {
            b"\n  },\n"
        });
        s.extend_from_slice(b"  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let sep = if i + 1 < self.gauges.len() { "," } else { "" };
            let _ = write!(s, "\n    \"{k}\": ");
            push_num(&mut s, *v, 6);
            s.extend_from_slice(sep.as_bytes());
        }
        s.extend_from_slice(if self.gauges.is_empty() {
            b"},\n"
        } else {
            b"\n  },\n"
        });
        s.extend_from_slice(b"  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let sep = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            let bounds: Vec<String> = h.bounds.iter().map(|b| json_num(*b, 6)).collect();
            let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
            let _ = write!(
                s,
                "\n    \"{k}\": {{\"bounds\": [{}], \"counts\": [{}], \"sum\": {}}}{sep}",
                bounds.join(", "),
                counts.join(", "),
                json_num(h.sum, 6)
            );
        }
        s.extend_from_slice(if self.histograms.is_empty() {
            b"}\n"
        } else {
            b"\n  }\n"
        });
        s.extend_from_slice(b"}\n");
        into_text(s)
    }

    /// Renders the snapshot as a one-page text report.
    pub fn to_text(&self) -> String {
        let mut s = String::from("== metrics ==\n");
        if !self.counters.is_empty() {
            s.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(s, "  {k:<44} {v}");
            }
        }
        if !self.gauges.is_empty() {
            s.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                let _ = writeln!(s, "  {k:<44} {}", json_num(*v, 6));
            }
        }
        if !self.histograms.is_empty() {
            s.push_str("histograms:\n");
            for (k, h) in &self.histograms {
                let mean = h.mean().map_or("-".to_string(), |m| json_num(m, 6));
                let _ = writeln!(s, "  {k:<44} n={} mean={mean}", h.count());
                for (i, c) in h.counts.iter().enumerate() {
                    let label = if i < h.bounds.len() {
                        format!("≤{}", json_num(h.bounds[i], 6))
                    } else {
                        "overflow".to_string()
                    };
                    let _ = writeln!(s, "    {label:<14} {c}");
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let r = Registry::new();
        let a = r.counter("jobs");
        let b = r.counter("jobs");
        a.inc();
        b.add(4);
        assert_eq!(r.counter("jobs").get(), 5);
    }

    #[test]
    fn gauges_take_the_last_write() {
        let r = Registry::new();
        let g = r.gauge("util");
        g.set(0.25);
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let r = Registry::new();
        let h = r.histogram("err", &[0.1, 0.5, 1.0]);
        // Exactly on a bound → that bucket (inclusive upper bound).
        h.observe(0.1);
        // Strictly inside a bucket.
        h.observe(0.3);
        // On the last finite bound.
        h.observe(1.0);
        // Above every bound → overflow.
        h.observe(1.0000001);
        // Below everything → first bucket.
        h.observe(-5.0);
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn histogram_sum_and_mean() {
        let r = Registry::new();
        let h = r.histogram("lat", &[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        let snap = r.snapshot();
        let hs = &snap.histograms["lat"];
        assert_eq!(hs.count(), 2);
        assert!((hs.mean().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        Registry::new().histogram("bad", &[1.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "at least one bound")]
    fn empty_bounds_rejected() {
        Registry::new().histogram("bad", &[]);
    }

    #[test]
    fn snapshot_json_is_sorted_and_balanced() {
        let r = Registry::new();
        r.counter("z.last").add(2);
        r.counter("a.first").inc();
        r.gauge("mid").set(1.5);
        r.histogram("h", &[1.0]).observe(0.5);
        let json = r.snapshot().to_json();
        let a = json.find("a.first").unwrap();
        let z = json.find("z.last").unwrap();
        assert!(a < z, "counters must render in sorted order");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close} in:\n{json}"
            );
        }
    }

    #[test]
    fn empty_snapshot_renders_valid_json() {
        let json = Registry::new().snapshot().to_json();
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn text_report_mentions_every_metric() {
        let r = Registry::new();
        r.counter("pic.invocations").add(7);
        r.gauge("pool.utilization").set(0.5);
        r.histogram("pic.error", &[0.01, 0.1]).observe(0.02);
        let text = r.snapshot().to_text();
        for needle in ["pic.invocations", "pool.utilization", "pic.error", "n=1"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn snapshots_are_point_in_time() {
        let r = Registry::new();
        let c = r.counter("x");
        c.inc();
        let snap = r.snapshot();
        c.inc();
        assert_eq!(snap.counters["x"], 1);
        assert_eq!(r.snapshot().counters["x"], 2);
    }
}
