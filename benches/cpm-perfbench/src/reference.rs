//! The reference probe: a fixed kernel of the benchmark's own, independent
//! of the program, that a run interleaves with its episodes so every
//! timing can be set against the state of the host it was taken in.
//!
//! On a shared host the simulator's speed moves with the neighbours: the
//! fastest kilocore op of a run sits on a ladder of levels that shifts
//! over minutes (see `NOTES.md`). A pure-ALU probe does not follow it; a
//! kernel shaped like the simulator's — polynomial lane arithmetic over
//! forty 1024-wide `f64` columns, 320 KiB, cache-resident like the chip's
//! state — does. Rescaling a time by [`REFERENCE_S`] over the probe's
//! fastest run in the same minutes cancels the host's share of the move
//! and keeps the program's.

use crate::clock::Stopwatch;
use std::hint::black_box;

/// Columns the kernel sweeps.
pub const COLUMNS: usize = 40;
/// Elements per column (the kilocore chip's core count).
pub const WIDTH: usize = 1024;
/// Timed sweeps per sample.
pub const TIMED_SWEEPS: usize = 2;
/// The probe time the rescaled figures are quoted at: a round figure near
/// the probe's fastest sweep on the host this benchmark was built on (a
/// 2-vCPU Intel Xeon KVM guest), so that rescaled figures read close to
/// raw ones taken in its quietest minutes.
pub const REFERENCE_S: f64 = 35e-6;

/// One sweep: every column moves towards a polynomial of its neighbour.
/// The map is a contraction onto a fixed point near 0.46, so the values
/// stay normal floats however long it runs and every sweep costs the same.
fn sweep(cols: &mut [f64]) {
    for k in 0..COLUMNS {
        let next = (k + 1) % COLUMNS;
        let (dst, src) = if next > k {
            let (a, b) = cols.split_at_mut(next * WIDTH);
            (&mut a[k * WIDTH..], &b[..WIDTH])
        } else {
            let (a, b) = cols.split_at_mut(k * WIDTH);
            (&mut b[..WIDTH], &a[..WIDTH])
        };
        for (x, &y) in dst.iter_mut().zip(src) {
            let z = y * y;
            let p = (((1.6e-4 * z - 2.5e-3) * z + 2.75e-2) * z - 1.98e-1) * z + 0.5;
            *x = 0.5 * *x + 0.5 * y * p + 0.125;
        }
    }
}

/// The probe with its fastest time so far.
#[derive(Debug)]
pub struct Reference {
    cols: Vec<f64>,
    clock: Stopwatch,
    best: f64,
}

impl Reference {
    /// A probe with its columns filled and no sample yet.
    pub fn new() -> Self {
        Self {
            cols: (0..COLUMNS * WIDTH)
                .map(|i| (i % 97) as f64 * 1e-2)
                .collect(),
            clock: Stopwatch::started(),
            best: f64::INFINITY,
        }
    }

    /// Runs one untimed sweep that brings the columns back into cache
    /// (whatever ran before may have evicted them), then times
    /// [`TIMED_SWEEPS`] sweeps, keeping the fastest.
    pub fn sample(&mut self) {
        sweep(black_box(&mut self.cols));
        for _ in 0..TIMED_SWEEPS {
            let cols = &mut self.cols;
            let ((), secs) = self.clock.time(|| sweep(black_box(cols)));
            black_box(&self.cols);
            self.best = self.best.min(secs);
        }
    }

    /// The fastest sweep so far, seconds (infinite before any sample).
    pub fn best(&self) -> f64 {
        self.best
    }
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

/// `secs` rescaled from a host state in which the probe's fastest sweep
/// took `probe_best` to the reference state ([`REFERENCE_S`]).
pub fn rescale(secs: f64, probe_best: f64) -> f64 {
    secs * REFERENCE_S / probe_best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_stays_on_normal_floats() {
        let mut r = Reference::new();
        for _ in 0..200 {
            sweep(&mut r.cols);
        }
        assert!(r
            .cols
            .iter()
            .all(|x| x.is_normal() && (0.2..0.6).contains(x)));
    }

    #[test]
    fn samples_keep_the_fastest_and_rescale_is_proportional() {
        let mut r = Reference::new();
        assert!(r.best().is_infinite());
        r.sample();
        assert!(r.best() > 0.0 && r.best().is_finite());
        assert_eq!(rescale(2.0, REFERENCE_S), 2.0);
        assert_eq!(rescale(2.0, 2.0 * REFERENCE_S), 1.0);
    }
}
