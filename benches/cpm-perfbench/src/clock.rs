//! Host time, read through `cpm-bench`'s wall clock.
//!
//! The repository confines wall-clock reads to its bench and runtime
//! crates (the `timing` rule of `cpm-lint`), so the benchmark takes its
//! clock from `cpm_bench::profile::WallClockProfiler` instead of reading
//! one itself. The profiler measures each enter→exit interval first and
//! does its own bookkeeping after, so that cost falls between intervals,
//! never inside one.

use cpm_bench::profile::WallClockProfiler;
use cpm_obs::{ControlPhase, PhaseProfiler, Registry};

/// The profiler slot the stopwatch runs in (any one of the three).
const SLOT: ControlPhase = ControlPhase::Sense;

/// A running stopwatch.
#[derive(Debug)]
pub struct Stopwatch {
    prof: WallClockProfiler,
}

impl Stopwatch {
    /// A stopwatch started now.
    pub fn started() -> Self {
        let mut prof = WallClockProfiler::new(Registry::new());
        prof.enter(SLOT);
        Self { prof }
    }

    /// Ends the current interval and starts the next; returns the ended
    /// interval in seconds.
    pub fn lap(&mut self) -> f64 {
        let before = self.prof.seconds(SLOT);
        self.prof.exit(SLOT);
        let secs = self.prof.seconds(SLOT) - before;
        self.prof.enter(SLOT);
        secs
    }

    /// Runs `f` and returns its result with its host time in seconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        self.lap();
        let r = f();
        (r, self.lap())
    }
}

/// A host-time budget, spent as the stopwatch measures it.
#[derive(Debug)]
pub struct Budget {
    clock: Stopwatch,
    left: f64,
}

impl Budget {
    /// `seconds` of host time from now.
    pub fn new(seconds: f64) -> Self {
        Self {
            clock: Stopwatch::started(),
            left: seconds,
        }
    }

    /// Charges the time since the last call; true while budget is left.
    pub fn left(&mut self) -> bool {
        self.left -= self.clock.lap();
        self.left > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_intervals_grow_with_the_work() {
        let mut sw = Stopwatch::started();
        let spin = |n: u64| (0..n).fold(0u64, |a, i| std::hint::black_box(a ^ i));
        let (_, short) = sw.time(|| spin(1_000));
        let (_, long) = sw.time(|| spin(1_000_000));
        assert!(short >= 0.0 && long > short, "{short} vs {long}");
    }

    #[test]
    fn a_budget_runs_out() {
        let mut b = Budget::new(1e-3);
        let mut rounds = 0u64;
        while b.left() {
            rounds += 1;
        }
        assert!(rounds > 0);
    }
}
