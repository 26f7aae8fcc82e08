//! The `paper` workload: the paper's chips under the full `Coordinator`
//! with transducer sensing, one coordinator per management scheme.
//!
//! An op is `run_for_gpm_intervals(1)` on each of the four coordinators.
//! Ops run in episodes replayed from one settled state: an episode builds
//! the coordinators (the memo caches make every build after the first a
//! cache hit that is bit-identical to a cold one), runs
//! [`SETTLE_ROUNDS`] untimed rounds (calibration and settle-in happen in
//! the first), then times [`TIMED_OPS`] ops.

use crate::check::OpCheck;
use crate::clock::Stopwatch;
use crate::spans::Laps;
use cpm_core::coordinator::PolicyKind;
use cpm_core::{Coordinator, ExperimentConfig, ManagementScheme, Outcome, ThermalConstraints};
use cpm_power::variation::VariationMap;
use cpm_sim::CmpConfig;
use cpm_units::IslandId;
use cpm_workloads::Mix;

/// The schemes, in op order (metric-name suffixes).
pub const SCHEMES: [&str; 4] = ["perf", "variation", "thermal", "maxbips"];
/// Untimed rounds at the start of an episode.
pub const SETTLE_ROUNDS: usize = 2;
/// Timed ops per episode.
pub const TIMED_OPS: usize = 16;

/// The four coordinator configurations, seeded:
/// performance-aware CPM and MaxBIPS on the 8-core/4-island Mix 1 chip,
/// variation-aware CPM on the same chip under the paper's four-island
/// leakage variation, and thermal-aware CPM on the 8-island SPEC chip.
pub fn configs(seed: u64) -> Vec<ExperimentConfig> {
    let base = ExperimentConfig::paper_default();
    let mut variation = base.clone();
    variation.variation = Some(VariationMap::paper_four_island());
    let mut thermal = base.clone();
    thermal.mix = Mix::Thermal;
    thermal.cmp = CmpConfig::with_topology(8, 1);
    let mut cfgs = vec![
        base.clone(),
        variation.with_scheme(ManagementScheme::Cpm(PolicyKind::Variation)),
        thermal.with_scheme(ManagementScheme::Cpm(PolicyKind::Thermal(
            ThermalConstraints::paper_eight_island(),
        ))),
        base.with_scheme(ManagementScheme::MaxBips),
    ];
    for c in &mut cfgs {
        c.cmp.seed = seed;
    }
    cfgs
}

/// Builds each coordinator and runs its untimed settle rounds: one lap
/// per construction and one per settle.
fn settled(cfgs: &[ExperimentConfig], laps: &mut Laps) -> Vec<Coordinator> {
    cfgs.iter()
        .map(|cfg| {
            let mut c = Coordinator::new(cfg.clone()).expect("paper configurations are valid");
            laps.lap();
            c.run_for_gpm_intervals(SETTLE_ROUNDS);
            laps.lap();
            c
        })
        .collect()
}

/// Checks one coordinator's round and folds it into `check`: chip power
/// in `(0, max]`, finite BIPS, DVFS indices inside the table.
fn check_outcome(o: &Outcome, levels: usize, check: &mut OpCheck) {
    for s in o.chip_power_percent.samples() {
        check.power(o.reference_power * (s.value / 100.0), o.max_chip_power);
    }
    for s in o.chip_bips.samples() {
        check.finite(s.value);
    }
    for ts in &o.island_dvfs_index {
        for s in ts.samples() {
            let idx = s.value;
            let whole = idx >= 0.0 && idx.fract() == 0.0;
            check.dvfs(if whole { idx as usize } else { usize::MAX }, levels);
        }
    }
}

/// One op's result.
#[derive(Debug, Clone)]
pub struct Op {
    /// Position in the episode.
    pub index: usize,
    /// Host time of the whole op, seconds.
    pub secs: f64,
    /// Host time per scheme (zero when untraced), seconds.
    pub per_scheme: [f64; 4],
    /// Output check and digest.
    pub check: OpCheck,
    /// DVFS transitions the op performed.
    pub transitions: u64,
}

/// The workload state.
pub struct Paper {
    cfgs: Vec<ExperimentConfig>,
    /// The set-up's coordinators, used by the first episode.
    ready: Option<Vec<Coordinator>>,
}

impl Paper {
    /// Builds, calibrates and settles the coordinators; one lap for each
    /// coordinator's construction and one for its settle rounds.
    pub fn setup(seed: u64, laps: &mut Laps) -> Self {
        let cfgs = configs(seed);
        let ready = settled(&cfgs, laps);
        Self {
            cfgs,
            ready: Some(ready),
        }
    }

    /// Replays one episode, handing each timed op to `record`. A traced
    /// episode also times each scheme's call on its own.
    pub fn episode(&mut self, traced: bool, mut record: impl FnMut(Op)) {
        let mut coords = match self.ready.take() {
            Some(c) => c,
            None => settled(&self.cfgs, &mut Laps::started()),
        };
        let transitions = |coords: &[Coordinator]| -> u64 {
            coords
                .iter()
                .map(|c| {
                    (0..c.chip().config().islands())
                        .map(|i| c.chip().island_transitions(IslandId(i)))
                        .sum::<u64>()
                })
                .sum()
        };
        let (mut clock, mut inner) = (Stopwatch::started(), Stopwatch::started());
        for index in 0..TIMED_OPS {
            let before = transitions(&coords);
            let mut per_scheme = [0.0; 4];
            let (outcomes, secs): (Vec<Outcome>, f64) = clock.time(|| {
                if traced {
                    coords
                        .iter_mut()
                        .zip(&mut per_scheme)
                        .map(|(c, slot)| {
                            let (o, secs) = inner.time(|| c.run_for_gpm_intervals(1));
                            *slot = secs;
                            o
                        })
                        .collect()
                } else {
                    coords
                        .iter_mut()
                        .map(|c| c.run_for_gpm_intervals(1))
                        .collect()
                }
            });
            let mut check = OpCheck::new();
            for (c, o) in coords.iter().zip(&outcomes) {
                check_outcome(o, c.chip().config().dvfs.len(), &mut check);
            }
            record(Op {
                index,
                secs,
                per_scheme,
                check,
                transitions: transitions(&coords) - before,
            });
        }
    }
}

/// Cold `Coordinator::new` + `calibrate` over the four configurations, in
/// seconds — meaningful only in a fresh process, while the memo caches
/// are empty.
pub fn cold_core_setup(seed: u64) -> f64 {
    let mut clock = Stopwatch::started();
    configs(seed)
        .into_iter()
        .map(|cfg| {
            clock
                .time(|| {
                    let mut c = Coordinator::new(cfg).expect("paper configurations are valid");
                    c.calibrate();
                })
                .1
        })
        .sum()
}

/// `(probe hits, probe misses, calibration hits, calibration misses)` of
/// the coordinator memo caches so far in this process.
pub fn memo_counts() -> [u64; 4] {
    let (ph, pm) = Coordinator::probe_cache_stats();
    let (ch, cm) = Coordinator::calib_sweep_cache_stats();
    [ph, pm, ch, cm]
}
