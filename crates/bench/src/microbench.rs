//! The timing loop behind `experiments perf`, `experiments scaling` and
//! the benchmark package's per-layer probes.
//!
//! [`measure`] calibrates a batch size that takes a few milliseconds, times
//! an odd number of batches, and reports the median and minimum
//! per-iteration cost. That is plenty to spot the order-of-magnitude
//! regressions the perf suite gates on, with zero external crates.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-batch target duration; long enough to swamp timer overhead.
const BATCH_TARGET: Duration = Duration::from_millis(4);
const WARMUP: Duration = Duration::from_millis(40);
const SAMPLES: usize = 11;

/// One timed measurement: per-iteration cost and the calibrated batch size.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median per-iteration cost across samples, nanoseconds.
    pub median_ns: f64,
    /// Fastest sample's per-iteration cost, nanoseconds.
    pub min_ns: f64,
    /// Iterations per timed batch (after calibration).
    pub batch: u64,
}

/// Warms `f` up, calibrates a batch size that fills a few milliseconds,
/// times an odd number of batches, and returns the median/min
/// per-iteration cost. `quick` cuts the time budget ~10× for smoke runs.
pub fn measure<R>(quick: bool, mut f: impl FnMut() -> R) -> Measurement {
    let scale = if quick { 10 } else { 1 };

    // Warm up while calibrating how many iterations fill one batch.
    let warmup = WARMUP / scale;
    let start = Instant::now();
    let mut warm_iters: u64 = 0;
    while start.elapsed() < warmup || warm_iters == 0 {
        black_box(f());
        warm_iters += 1;
    }
    let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;
    let batch = ((BATCH_TARGET / scale).as_secs_f64() / per_iter.max(1e-9))
        .ceil()
        .max(1.0) as u64;

    let samples = if quick { 5 } else { SAMPLES };
    let mut per_iter_ns: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    Measurement {
        median_ns: per_iter_ns[samples / 2],
        min_ns: per_iter_ns[0],
        batch,
    }
}
