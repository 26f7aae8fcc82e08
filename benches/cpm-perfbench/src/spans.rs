//! Per-layer host time, recorded from the benchmark's side of each public
//! call into a layer. Nothing inside the program is instrumented: a span
//! brackets one call, and a layer's self time is the sum of its spans.

use crate::clock::Stopwatch;

/// The layers a traced op attributes its host time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `cpm-workloads`: phase advance.
    Phases,
    /// `cpm-sim` (with `cpm-power`/`cpm-math` inside): CPI stack and power.
    Segments,
    /// `cpm-sim`: the snapshot fold the chip step does around the segments.
    Fold,
    /// `cpm-thermal`: the RC stencil.
    Thermal,
    /// `cpm-core`: PIC invocations (and the DVFS writes they issue).
    Pic,
    /// `cpm-core`: GPM provisioning.
    Gpm,
    /// The benchmark's own loop: the feedback `provision` reads, and the
    /// copy of what the output check reads.
    Harness,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 7;

/// Accumulated self time per layer, in seconds. A disabled recorder runs
/// the call and nothing else.
#[derive(Debug)]
pub struct Spans {
    clock: Option<Stopwatch>,
    acc: [f64; LAYERS],
}

impl Spans {
    /// A recorder, enabled or not.
    pub fn new(on: bool) -> Self {
        Self {
            clock: on.then(Stopwatch::started),
            acc: [0.0; LAYERS],
        }
    }

    /// Runs `f`, charging its host time to `layer` when enabled.
    #[inline(always)]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        match &mut self.clock {
            None => f(),
            Some(clock) => {
                let (r, secs) = clock.time(f);
                self.acc[layer as usize] += secs;
                r
            }
        }
    }

    /// Returns the accumulated times and clears them.
    pub fn take(&mut self) -> [f64; LAYERS] {
        std::mem::replace(&mut self.acc, [0.0; LAYERS])
    }
}

/// Set-up split into laps: each lap is the host time since the previous
/// one (the first since the clock started). Set-up time is reported as
/// the sum over laps of each lap's fastest time across fresh processes,
/// so every lap must mark the same step in every process.
#[derive(Debug)]
pub struct Laps {
    clock: Stopwatch,
    laps: Vec<f64>,
}

impl Laps {
    /// A clock started now.
    pub fn started() -> Self {
        Self {
            clock: Stopwatch::started(),
            laps: Vec::new(),
        }
    }

    /// Ends the current lap.
    pub fn lap(&mut self) {
        self.laps.push(self.clock.lap());
    }

    /// The laps so far, seconds.
    pub fn laps(&self) -> &[f64] {
        &self.laps
    }
}
