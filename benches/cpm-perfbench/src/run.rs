//! The untraced run: the end-to-end metrics.
//!
//! The run measures ops for `--seconds` of host time in
//! [`SETUP_SAMPLES`] slices. Before each slice it starts one fresh child
//! process that repeats the workload's set-up from a cold start (the memo
//! caches are process-global, so a cold set-up only repeats in a fresh
//! process). Set-up is split into sub-millisecond laps, and the raw set-up
//! time sums each lap's fastest time across the children — the same low
//! order statistic the fastest op is.
//!
//! Both are then rescaled by the [`crate::reference`] probe: the run samples
//! it after every episode and each child after its set-up, and the gated
//! `op_ms_min_ref` and `setup_s` are the fastest op and the raw set-up time
//! times [`crate::reference::REFERENCE_S`] over the probe's fastest sweep
//! in the same process(es). The raw figures are printed as notes.

use crate::check::Replay;
use crate::cli::{spawn_child, Args, Workload};
use crate::clock::Budget;
use crate::kilocore::{self, Rig};
use crate::paper::Paper;
use crate::reference::{rescale, Reference};
use crate::report::RunResult;
use crate::scenarios::Scenarios;
use crate::spans::{Laps, Spans};
use crate::stats::{min, p50, sum_per_entry};
use cpm_sim::Chip;

/// Fresh-process set-up samples per run: enough that each lap's fastest
/// sample lands in a quiet moment of the host.
pub const SETUP_SAMPLES: usize = 96;

/// Of those, the children that also run one episode and report their
/// peak resident set.
pub const RSS_SAMPLES: usize = 8;

/// Op timings and verdicts of a run.
#[derive(Debug, Clone)]
pub struct OpLog {
    /// Host seconds per op, per entry (one entry except for `scenarios`).
    pub entries: Vec<Vec<f64>>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed their output check.
    pub failed: u64,
}

impl OpLog {
    /// An empty log over `entries` entries.
    pub fn new(entries: usize) -> Self {
        Self {
            entries: vec![Vec::new(); entries],
            attempted: 0,
            failed: 0,
        }
    }

    /// Records one op.
    pub fn push(&mut self, entry: usize, secs: f64, passed: bool) {
        self.entries[entry].push(secs);
        self.attempted += 1;
        self.failed += u64::from(!passed);
    }
}

/// A workload ready to run ops.
pub trait Work {
    /// Number of op entries (timing statistics are taken per entry).
    fn entries(&self) -> usize;
    /// Runs one episode (one catalogue pass for `scenarios`) into `log`.
    fn episode(&mut self, log: &mut OpLog);
    /// The episode a set-up child runs before it reads its peak resident
    /// set: one whose inputs do not depend on the seed's ordering, so the
    /// allocation pattern, and with it the peak, repeats across seeds.
    fn steady_episode(&mut self, log: &mut OpLog) {
        self.episode(log);
    }
    /// Digest of the simulated statistics.
    fn digest(&self) -> String;
}

struct KilocoreWork {
    rig: Rig<Chip>,
    replay: Replay,
}

impl Work for KilocoreWork {
    fn entries(&self) -> usize {
        1
    }
    fn episode(&mut self, log: &mut OpLog) {
        let replay = &mut self.replay;
        self.rig.episode(&mut Spans::new(false), |op| {
            log.push(0, op.secs, replay.judge(op.index, &op.check))
        });
    }
    fn digest(&self) -> String {
        self.replay.render()
    }
}

struct PaperWork {
    paper: Paper,
    replay: Replay,
}

impl Work for PaperWork {
    fn entries(&self) -> usize {
        1
    }
    fn episode(&mut self, log: &mut OpLog) {
        let replay = &mut self.replay;
        self.paper.episode(false, |op| {
            log.push(0, op.secs, replay.judge(op.index, &op.check))
        });
    }
    fn digest(&self) -> String {
        self.replay.render()
    }
}

impl Work for Scenarios {
    fn entries(&self) -> usize {
        cpm_scenario::CATALOGUE.len()
    }
    fn episode(&mut self, log: &mut OpLog) {
        let order = self.next_order();
        self.pass(&order, |k, secs, ok| log.push(k, secs, ok));
    }
    fn steady_episode(&mut self, log: &mut OpLog) {
        let order: Vec<usize> = (0..self.entries()).collect();
        self.pass(&order, |k, secs, ok| log.push(k, secs, ok));
    }
    fn digest(&self) -> String {
        Scenarios::digest(self)
    }
}

/// The workload's set-up: everything between a cold process and its
/// first timed op, split into `laps`.
pub fn setup(workload: Workload, seed: u64, laps: &mut Laps) -> Result<Box<dyn Work>, String> {
    let work: Box<dyn Work> = match workload {
        Workload::Kilocore => Box::new(KilocoreWork {
            rig: kilocore::real_rig(seed, laps),
            replay: Replay::new(),
        }),
        Workload::Paper => Box::new(PaperWork {
            paper: Paper::setup(seed, laps),
            replay: Replay::new(),
        }),
        Workload::Scenarios => Box::new(Scenarios::setup(seed, laps)?),
    };
    laps.lap();
    Ok(work)
}

/// Set-up time from per-process lap times: each lap's fastest time across
/// the processes, summed. `None` when the processes disagree on the laps.
pub fn setup_seconds(samples: &[Vec<f64>]) -> Option<f64> {
    let n = samples.first()?.len();
    if n == 0 || samples.iter().any(|s| s.len() != n) {
        return None;
    }
    Some(
        (0..n)
            .map(|i| min(&samples.iter().map(|s| s[i]).collect::<Vec<_>>()))
            .sum(),
    )
}

/// The end-to-end run. `laps` started with the process.
pub fn untraced(args: &Args, mut laps: Laps) -> RunResult {
    let mut result = RunResult::default();
    let mut work = match setup(args.workload, args.seed, &mut laps) {
        Ok(w) => w,
        Err(e) => {
            result.problems.push(format!("set-up: {e}"));
            return result;
        }
    };
    let own_setup: f64 = laps.laps().iter().sum();
    let mut log = OpLog::new(work.entries());
    let mut setups = Vec::new();
    let mut rss_kb = Vec::new();
    let mut child_reference = f64::INFINITY;
    let mut reference = Reference::new();
    let slice = args.seconds / SETUP_SAMPLES as f64;
    for i in 0..SETUP_SAMPLES {
        let mode = if i % (SETUP_SAMPLES / RSS_SAMPLES) == 0 {
            "setup-rss"
        } else {
            "setup"
        };
        match spawn_child(mode, args) {
            Ok(r) => {
                let laps: Vec<f64> = (0..)
                    .map_while(|i| r.get(&format!("lap.{i}")).copied())
                    .collect();
                setups.push(laps);
                rss_kb.extend(r.get("rss_kb").copied());
                child_reference = r
                    .get("reference_s")
                    .map_or(child_reference, |&x| child_reference.min(x));
            }
            Err(e) => result.problems.push(e),
        }
        let mut budget = Budget::new(slice);
        while budget.left() {
            work.episode(&mut log);
            reference.sample();
        }
    }
    result.attempted = log.attempted;
    result.failed = log.failed;
    result
        .digests
        .push((args.workload.name().to_string(), work.digest()));
    let setup_s = setup_seconds(&setups);
    let Some(setup_s) = setup_s.filter(|_| rss_kb.len() == RSS_SAMPLES) else {
        result
            .problems
            .push("the set-up children disagree or reported nothing".into());
        return result;
    };
    let totals: Vec<f64> = setups.iter().map(|s| s.iter().sum()).collect();
    let lap_min = |i: usize| min(&setups.iter().map(|s| s[i]).collect::<Vec<_>>());
    result.notes.push(format!(
        "set-up lap minima (us): {}",
        (0..setups[0].len())
            .map(|i| format!("{:.1}", lap_min(i) * 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    result.notes.push(format!(
        "set-up: {} laps; per-process totals {} s (this process {own_setup:.6} s)",
        setups[0].len(),
        totals
            .iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    result.notes.push(format!(
        "ops per entry: {}",
        log.entries
            .iter()
            .map(|e| e.len().to_string())
            .collect::<Vec<_>>()
            .join(" ")
    ));
    // The raw figures are printed for context, not gated: on a shared host
    // they move with the neighbours' load (see NOTES.md).
    let op_min = sum_per_entry(&log.entries, min);
    result.notes.push(format!(
        "op_ms_p50 {} ms",
        sum_per_entry(&log.entries, p50) * 1e3
    ));
    result.notes.push(format!("op_ms_min {} ms", op_min * 1e3));
    if log.entries.len() > 1 {
        result.notes.push(format!(
            "fastest op per entry (ms): {}",
            log.entries
                .iter()
                .map(|e| format!("{:.4}", min(e) * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    result.notes.push(format!("setup_s_raw {setup_s} s"));
    result.notes.push(format!(
        "reference probe fastest sweep: {} us alongside the ops, {} us in the set-up children",
        reference.best() * 1e6,
        child_reference * 1e6
    ));
    if !(reference.best().is_finite() && child_reference.is_finite()) {
        result
            .problems
            .push("the reference probe ran no sweep".into());
        return result;
    }
    result.push(
        "op_ms_min_ref",
        "ms",
        rescale(op_min, reference.best()) * 1e3,
    );
    result.push("setup_s", "s", rescale(setup_s, child_reference));
    result.push("peak_rss_mb", "MB", p50(&rss_kb) / 1024.0);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_sums_each_laps_fastest_time() {
        let samples = vec![vec![1.0, 5.0, 2.0], vec![2.0, 3.0, 4.0]];
        assert_eq!(setup_seconds(&samples), Some(1.0 + 3.0 + 2.0));
        assert_eq!(setup_seconds(&[vec![1.0], vec![1.0, 2.0]]), None);
        assert_eq!(setup_seconds(&[]), None);
    }
}
