//! The `kilocore` workload: one closed-loop GPM round on a 1024-core,
//! 16-island chip, and the shadow chip step the traced run times layer by
//! layer.
//!
//! An op is one GPM round — ten `Chip::step_pic_into` calls, each followed
//! by all sixteen oracle-sensed PIC invocations, then one performance-aware
//! `provision` at 75 % of max power. Ops run in episodes that replay from
//! one settled state: the chip is warmed open loop once at set-up, and
//! every episode restores it, builds fresh controllers, settles them for
//! [`SETTLE_ROUNDS`] untimed rounds and then times [`TIMED_ROUNDS`] rounds.
//! Op `k` of every episode therefore starts from the same state, and its
//! digest must equal the first episode's op `k`.

use crate::check::OpCheck;
use crate::clock::Stopwatch;
use crate::spans::{Laps, Layer, Spans, LAYERS};
use cpm_control::PidGains;
use cpm_core::gpm::IslandRange;
use cpm_core::pic::PicSensor;
use cpm_core::{GlobalPowerManager, IslandFeedback, PerIslandController, PerformanceAware};
use cpm_power::variation::VariationMap;
use cpm_power::LeakageModel;
use cpm_sim::soa::SegmentTotals;
use cpm_sim::{Chip, ChipSnapshot, CmpConfig, CoreBank, IslandBank, IslandSnapshot};
use cpm_thermal::ThermalGrid;
use cpm_units::{Celsius, IslandId, Ratio, Seconds, Watts};
use cpm_workloads::{Mix, WorkloadAssignment};

/// Cores on the chip.
pub const CORES: usize = 1024;
/// Cores per island (16 islands).
pub const WIDTH: usize = 64;
/// Open-loop PIC intervals that warm the chip at set-up.
pub const WARM_STEPS: usize = 40;
/// Untimed rounds that settle fresh controllers at the start of an episode.
pub const SETTLE_ROUNDS: usize = 2;
/// Timed rounds (ops) per episode.
pub const TIMED_ROUNDS: usize = 8;

/// The chip configuration (seeded) and PARSEC Mix 3 tiled across it.
pub fn chip_config(seed: u64) -> (CmpConfig, WorkloadAssignment) {
    let mut cfg = CmpConfig::with_topology(CORES, WIDTH);
    cfg.seed = seed;
    let profiles = WorkloadAssignment::paper_mix(Mix::Mix3, 32)
        .profiles()
        .iter()
        .cloned()
        .cycle()
        .take(CORES)
        .collect();
    (cfg, WorkloadAssignment::new(profiles, WIDTH))
}

/// What the closed loop needs of a chip: the real [`Chip`] or the
/// [`ShadowChip`] that rebuilds its step from public calls.
pub trait Plant: Clone {
    /// Advances one PIC interval into `out`.
    fn step(&mut self, out: &mut ChipSnapshot, spans: &mut Spans);
    /// Requests an island operating point.
    fn set_dvfs(&mut self, island: usize, idx: usize);
    /// Per-core die temperatures, °C.
    fn temperatures(&self) -> &[f64];
    /// DVFS transitions so far, summed over islands.
    fn transitions(&self) -> u64;
}

impl Plant for Chip {
    fn step(&mut self, out: &mut ChipSnapshot, _spans: &mut Spans) {
        self.step_pic_into(out);
    }
    fn set_dvfs(&mut self, island: usize, idx: usize) {
        self.set_island_dvfs(IslandId(island), idx);
    }
    fn temperatures(&self) -> &[f64] {
        self.temperatures_deg()
    }
    fn transitions(&self) -> u64 {
        (0..self.config().islands())
            .map(|i| self.island_transitions(IslandId(i)))
            .sum()
    }
}

/// `Chip::step_into`'s serial walk, rebuilt from the public `CoreBank`,
/// `IslandBank`, `ThermalGrid` and `island_terms` calls so each layer's
/// call can be timed on its own. [`verify_shadow`] checks it bit for bit
/// against the real step.
#[derive(Debug, Clone)]
pub struct ShadowChip {
    cfg: CmpConfig,
    cores: CoreBank,
    islands: IslandBank,
    thermal: ThermalGrid,
    variation: VariationMap,
    time: Seconds,
    mem_contention: f64,
}

impl ShadowChip {
    /// Builds the state `Chip::new` builds for the same inputs.
    pub fn new(cfg: CmpConfig, assignment: &WorkloadAssignment) -> Self {
        let mut cores = CoreBank::new(cfg.cores_per_island);
        for c in 0..cfg.cores {
            let profile = assignment.profile(cpm_units::CoreId(c)).clone();
            cores.push(profile, cfg.seed, c as u64);
        }
        Self {
            islands: IslandBank::new(cfg.islands(), cfg.cores_per_island, cfg.dvfs.len() - 1),
            thermal: ThermalGrid::new(cfg.floorplan(), cfg.thermal),
            variation: VariationMap::uniform(cfg.islands()),
            cores,
            cfg,
            time: Seconds::ZERO,
            mem_contention: 1.0,
        }
    }

    fn push_island(&self, out: &mut ChipSnapshot, i: usize, totals: SegmentTotals, dt: Seconds) {
        let n = self.islands.width() as f64;
        let op = self.cfg.dvfs.point(self.islands.dvfs_index(i));
        let utilization = Ratio::new(totals.util_sum / n);
        let f_ratio = op.frequency / self.cfg.dvfs.max_point().frequency;
        out.islands.push(IslandSnapshot {
            island: IslandId(i),
            power: totals.power,
            utilization,
            capacity_utilization: Ratio::new(utilization.value() * f_ratio),
            instructions: totals.instructions,
            bips: totals.instructions / dt.value() / 1.0e9,
            dvfs_index: self.islands.dvfs_index(i),
        });
    }
}

impl Plant for ShadowChip {
    /// The serial walk in four spans per interval: the phase advance, all
    /// islands' segment steps, the thermal step, and the folds. The folds
    /// run after every segment has stepped — each segment keeps its own
    /// outputs, and the folds still add in island order — so the result
    /// is the real step's, bit for bit.
    fn step(&mut self, out: &mut ChipSnapshot, spans: &mut Spans) {
        let dt = self.cfg.pic_interval;
        let contention = self.mem_contention;
        spans.time(Layer::Phases, || self.cores.advance_phases(dt));
        let totals: Vec<SegmentTotals> = spans.time(Layer::Segments, || {
            (0..self.islands.len())
                .map(|i| {
                    let op = self.cfg.dvfs.point(self.islands.dvfs_index(i));
                    let frozen = self.islands.take_freeze(i, &self.cfg.dvfs, dt);
                    let leak_mult = self.variation.multiplier(IslandId(i));
                    let terms = self.cfg.power.island_terms(op);
                    self.cores.step_island(
                        i,
                        op.frequency,
                        dt,
                        frozen,
                        contention,
                        &self.cfg.power,
                        terms,
                        leak_mult,
                        self.thermal.temperatures_deg(),
                    )
                })
                .collect()
        });
        let (instructions, dram_bytes) = spans.time(Layer::Fold, || {
            out.core_powers.clear();
            out.islands.clear();
            out.islands.reserve(self.islands.len());
            let mut total_instructions = 0.0;
            let mut total_dram_bytes = 0.0;
            for (i, t) in totals.iter().enumerate() {
                let seg = self.cores.segment(i);
                out.core_powers.extend_from_slice(seg.core_powers());
                for &b in seg.dram_bytes() {
                    total_dram_bytes += b;
                }
                total_instructions += t.instructions;
                self.push_island(out, i, *t, dt);
            }
            (total_instructions, total_dram_bytes)
        });
        spans.time(Layer::Thermal, || self.thermal.step(&out.core_powers, dt));
        spans.time(Layer::Fold, || {
            self.time += dt;
            let memory_demand = dram_bytes / dt.value();
            if let Some(bw) = self.cfg.memory_bandwidth {
                let raw = (memory_demand / bw).max(1.0);
                self.mem_contention = 0.5 * self.mem_contention + 0.5 * raw;
            }
            out.temperatures.clear();
            out.temperatures.extend(
                self.thermal
                    .temperatures_deg()
                    .iter()
                    .map(|&t| Celsius::new(t)),
            );
            out.time = self.time;
            out.dt = dt;
            out.chip_power = out.islands.iter().map(|s| s.power).sum();
            out.instructions = instructions;
            out.memory_demand = memory_demand;
            out.memory_contention = contention;
        });
    }
    fn set_dvfs(&mut self, island: usize, idx: usize) {
        self.islands.set_dvfs_index(island, idx, &self.cfg.dvfs);
    }
    fn temperatures(&self) -> &[f64] {
        self.thermal.temperatures_deg()
    }
    fn transitions(&self) -> u64 {
        (0..self.islands.len())
            .map(|i| self.islands.transitions(i))
            .sum()
    }
}

/// Steps a real chip and a shadow in lock step for `steps` PIC intervals,
/// moving operating points as a controller would, and requires every
/// snapshot field — per-core powers and temperatures included — to agree
/// bit for bit.
pub fn verify_shadow(seed: u64, steps: usize) -> Result<(), String> {
    let (cfg, assignment) = chip_config(seed);
    let levels = cfg.dvfs.len();
    let islands = cfg.islands();
    let mut chip = Chip::new(cfg.clone(), &assignment);
    let mut shadow = ShadowChip::new(cfg, &assignment);
    let (mut a, mut b) = (ChipSnapshot::empty(), ChipSnapshot::empty());
    let mut spans = Spans::new(false);
    for s in 0..steps {
        if s % 3 == 0 {
            let (island, idx) = (s % islands, (s * 5) % levels);
            chip.set_island_dvfs(IslandId(island), idx);
            shadow.set_dvfs(island, idx);
        }
        chip.step_pic_into(&mut a);
        shadow.step(&mut b, &mut spans);
        let bits = |s: &ChipSnapshot| -> Vec<u64> {
            let mut v: Vec<u64> = s.core_powers.iter().map(|w| w.value().to_bits()).collect();
            v.extend(s.temperatures.iter().map(|t| t.value().to_bits()));
            v.extend([s.chip_power.value().to_bits(), s.instructions.to_bits()]);
            v.extend([s.memory_demand.to_bits(), s.memory_contention.to_bits()]);
            v
        };
        if a != b || bits(&a) != bits(&b) {
            return Err(format!(
                "shadow chip step diverged from Chip::step_pic_into at step {s}"
            ));
        }
    }
    Ok(())
}

/// What one op simulated, copied out of the loop so that its output check
/// runs after the clock stops: per interval the chip power, the chip BIPS
/// and every island's operating point.
#[derive(Debug)]
struct Trail {
    power: Vec<f64>,
    bips: Vec<f64>,
    dvfs: Vec<usize>,
}

impl Trail {
    fn with_capacity(intervals: usize, islands: usize) -> Self {
        Self {
            power: Vec::with_capacity(intervals),
            bips: Vec::with_capacity(intervals),
            dvfs: Vec::with_capacity(intervals * islands),
        }
    }

    fn clear(&mut self) {
        self.power.clear();
        self.bips.clear();
        self.dvfs.clear();
    }

    fn record(&mut self, snap: &ChipSnapshot) {
        self.power.push(snap.chip_power.value());
        self.bips.push(snap.chip_bips());
        self.dvfs.extend(snap.islands.iter().map(|s| s.dvfs_index));
    }

    /// Every interval's chip power must be finite and in `(0, max_power]`
    /// and every operating point inside the table of `levels`; chip power,
    /// BIPS, DVFS indices and the op's closing allocation feed the digest.
    fn check(&self, max_power: Watts, levels: usize, alloc: &[Watts]) -> OpCheck {
        let mut check = OpCheck::new();
        let islands = self.dvfs.len() / self.power.len().max(1);
        for (k, (&p, &b)) in self.power.iter().zip(&self.bips).enumerate() {
            check.power(Watts::new(p), max_power);
            check.digest.f64(b);
            for &idx in &self.dvfs[k * islands..(k + 1) * islands] {
                check.dvfs(idx, levels);
            }
        }
        for a in alloc {
            check.finite(a.value());
        }
        check
    }
}

/// The GPM, the sixteen PICs, and the round's feedback scratch.
pub struct Controllers {
    gpm: GlobalPowerManager,
    pics: Vec<PerIslandController>,
    alloc: Vec<Watts>,
    power_sum: Vec<f64>,
    bips_sum: Vec<f64>,
    util_sum: Vec<f64>,
    feedback: Vec<IslandFeedback>,
    trail: Trail,
}

impl Controllers {
    fn new(cfg: &CmpConfig, ranges: &[IslandRange], budget: Watts) -> Self {
        let gpm =
            GlobalPowerManager::new(budget, Box::new(PerformanceAware::new()), ranges.to_vec());
        let mut pics: Vec<PerIslandController> = (0..cfg.islands())
            .map(|i| {
                PerIslandController::new(
                    IslandId(i),
                    cfg.dvfs.clone(),
                    ranges[i].ceiling,
                    PidGains::paper(),
                    0.79,
                    PicSensor::Oracle,
                )
            })
            .collect();
        let alloc = gpm.initial_allocation();
        for (pic, a) in pics.iter_mut().zip(&alloc) {
            pic.set_target(*a);
        }
        let n = cfg.islands();
        Self {
            gpm,
            pics,
            alloc,
            power_sum: vec![0.0; n],
            bips_sum: vec![0.0; n],
            util_sum: vec![0.0; n],
            feedback: Vec::with_capacity(n),
            trail: Trail::with_capacity(cfg.pics_per_gpm(), n),
        }
    }
}

/// Per-island allocation range: idle power at the lowest operating point
/// up to the max-power share (the coordinator's provisioning set-up).
fn island_ranges(cfg: &CmpConfig, variation: &VariationMap) -> Vec<IslandRange> {
    let min_op = cfg.dvfs.min_point();
    (0..cfg.islands())
        .map(|i| {
            let mult = variation.multiplier(IslandId(i));
            let idle =
                cfg.power
                    .total_power(min_op, Ratio::ZERO, LeakageModel::HOT_REFERENCE, mult);
            IslandRange {
                floor: idle * cfg.cores_per_island as f64,
                ceiling: cfg.power.max_power(&cfg.dvfs, mult) * cfg.cores_per_island as f64,
            }
        })
        .collect()
}

/// One GPM round on `plant` (the op). Besides the feedback `provision`
/// needs, the loop only copies what the output check reads into the
/// controllers' [`Trail`].
fn round<P: Plant>(
    plant: &mut P,
    ctl: &mut Controllers,
    snap: &mut ChipSnapshot,
    spans: &mut Spans,
    cfg: &CmpConfig,
) {
    ctl.power_sum.fill(0.0);
    ctl.bips_sum.fill(0.0);
    ctl.util_sum.fill(0.0);
    ctl.trail.clear();
    for _ in 0..cfg.pics_per_gpm() {
        plant.step(snap, spans);
        spans.time(Layer::Pic, || {
            for (i, pic) in ctl.pics.iter_mut().enumerate() {
                let s = &snap.islands[i];
                let idx = pic.invoke(s.capacity_utilization, s.power);
                plant.set_dvfs(i, idx);
            }
        });
        spans.time(Layer::Harness, || {
            for (i, s) in snap.islands.iter().enumerate() {
                ctl.power_sum[i] += s.power.value();
                ctl.bips_sum[i] += s.bips;
                ctl.util_sum[i] += s.utilization.value();
            }
            ctl.trail.record(snap);
        });
    }
    spans.time(Layer::Harness, || {
        let k = cfg.pics_per_gpm() as f64;
        let temps = plant.temperatures();
        ctl.feedback.clear();
        for i in 0..cfg.islands() {
            let lo = i * cfg.cores_per_island;
            let peak = temps[lo..lo + cfg.cores_per_island]
                .iter()
                .fold(f64::MIN, |a, &b| a.max(b));
            ctl.feedback.push(IslandFeedback {
                island: IslandId(i),
                allocated: ctl.alloc[i],
                actual_power: Watts::new(ctl.power_sum[i] / k),
                bips: ctl.bips_sum[i] / k,
                utilization: Ratio::new(ctl.util_sum[i] / k),
                epi: None,
                peak_temperature: peak,
            });
        }
    });
    spans.time(Layer::Gpm, || {
        ctl.alloc = ctl.gpm.provision(&ctl.feedback);
        for (pic, a) in ctl.pics.iter_mut().zip(&ctl.alloc) {
            pic.set_target(*a);
        }
    });
}

/// One timed op of an episode.
#[derive(Debug, Clone)]
pub struct Op {
    /// Position in the episode.
    pub index: usize,
    /// Host time, seconds.
    pub secs: f64,
    /// Output check and digest.
    pub check: OpCheck,
    /// Layer self times (all zero when untraced).
    pub layers: [f64; LAYERS],
    /// DVFS transitions the op performed.
    pub transitions: u64,
}

/// The settled state every episode replays from.
pub struct Rig<P: Plant> {
    cfg: CmpConfig,
    settled: P,
    ranges: Vec<IslandRange>,
    budget: Watts,
    max_power: Watts,
    snap: ChipSnapshot,
}

impl<P: Plant> Rig<P> {
    /// Warms `plant` open loop into the settled state, one lap per step.
    pub fn new(cfg: CmpConfig, mut plant: P, laps: &mut Laps) -> Self {
        let variation = VariationMap::uniform(cfg.islands());
        let max_power: Watts = (0..cfg.cores)
            .map(|c| {
                let island = IslandId(c / cfg.cores_per_island);
                cfg.power.max_power(&cfg.dvfs, variation.multiplier(island))
            })
            .sum();
        let mut snap = ChipSnapshot::empty();
        let mut spans = Spans::new(false);
        for _ in 0..WARM_STEPS {
            plant.step(&mut snap, &mut spans);
            laps.lap();
        }
        Self {
            ranges: island_ranges(&cfg, &variation),
            budget: max_power * 0.75,
            max_power,
            settled: plant,
            cfg,
            snap,
        }
    }

    /// Replays one episode from the settled state, handing each timed op
    /// to `record`.
    pub fn episode(&mut self, spans: &mut Spans, mut record: impl FnMut(Op)) {
        let mut plant = self.settled.clone();
        let mut ctl = Controllers::new(&self.cfg, &self.ranges, self.budget);
        let mut quiet = Spans::new(false);
        for _ in 0..SETTLE_ROUNDS {
            round(&mut plant, &mut ctl, &mut self.snap, &mut quiet, &self.cfg);
        }
        spans.take();
        let mut clock = Stopwatch::started();
        let levels = self.cfg.dvfs.len();
        for index in 0..TIMED_ROUNDS {
            let before = plant.transitions();
            let ((), secs) =
                clock.time(|| round(&mut plant, &mut ctl, &mut self.snap, spans, &self.cfg));
            let check = ctl.trail.check(self.max_power, levels, &ctl.alloc);
            record(Op {
                index,
                secs,
                check,
                layers: spans.take(),
                transitions: plant.transitions() - before,
            });
        }
    }
}

/// The untraced workload: the real chip. One lap for the build, one per
/// warm-up step.
pub fn real_rig(seed: u64, laps: &mut Laps) -> Rig<Chip> {
    let (cfg, assignment) = chip_config(seed);
    let chip = Chip::new(cfg.clone(), &assignment);
    laps.lap();
    Rig::new(cfg, chip, laps)
}

/// The traced workload: the shadow chip, from the same inputs.
pub fn shadow_rig(seed: u64) -> Rig<ShadowChip> {
    let (cfg, assignment) = chip_config(seed);
    let shadow = ShadowChip::new(cfg.clone(), &assignment);
    Rig::new(cfg, shadow, &mut Laps::started())
}
