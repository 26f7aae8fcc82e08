//! The two-tier runtime harness: chip + GPM + PICs on the Fig. 4 timeline.
//!
//! A [`Coordinator`] owns a simulated [`Chip`] and drives it under one of
//! three management schemes:
//!
//! * [`ManagementScheme::Cpm`] — the paper's architecture: the GPM
//!   provisions power every `T_global`, the PICs cap island power every
//!   `T_local`;
//! * [`ManagementScheme::MaxBips`] — the open-loop baseline: a global
//!   manager sets DVFS knobs directly from a prediction table each
//!   `T_global`, with no local feedback;
//! * [`ManagementScheme::NoManagement`] — every island pinned at the top
//!   operating point (the performance reference all degradation numbers
//!   are quoted against).
//!
//! Before measurement, transducer-sensed CPM runs perform a calibration
//! sweep: each DVFS level is visited for a couple of PIC intervals while
//! the utilization↔power pairs are fed to every island's transducer
//! (standing in for the platform characterization of §II-D/Fig. 6).

use crate::gpm::{island_ranges, GlobalPowerManager, IslandFeedback, ProvisioningPolicy};
use crate::maxbips::{MaxBips, MaxBipsObservation};
use crate::metrics::TrackingSummary;
use crate::pic::{PerIslandController, PicSensor};
use crate::policies::performance::PerformanceAware;
use crate::policies::thermal::{ThermalAware, ThermalConstraints, ViolationStats};
use crate::policies::variation::VariationAware;
use cpm_control::PidGains;
use cpm_obs::{ControlPhase, EventPayload, PhaseProfiler, Recorder, Registry, SpanId};
use cpm_power::variation::VariationMap;
use cpm_power::EnergyAccount;
use cpm_sim::memo::Memo;
use cpm_sim::{Chip, ChipSnapshot, CmpConfig, InjectionSeam, TimeSeries};
use cpm_thermal::HotspotTracker;
use cpm_units::{Celsius, IslandId, Ratio, Seconds, Watts};
use cpm_workloads::{Mix, WorkloadAssignment};
use std::sync::Arc;

/// Test support: leaves each coordinator memo lock (probe, calibration
/// sweep) poisoned, exactly as a prober dying mid-lookup would.
/// Subsequent probes and calibration sweeps must recover, not wedge.
#[doc(hidden)]
pub fn poison_memo_caches_for_tests() {
    PROBE_MEMO.poison_for_tests();
    CALIB_SWEEP_MEMO.poison_for_tests();
}

// Both memos are keyed by the chip's construction inputs (config, workload
// assignment, variation map): the probe runs on a clone of the fresh chip and
// the sweep is open loop, so cells differing in budget or scheme share entries.
static PROBE_MEMO: Memo<Watts> = Memo::new();

/// A completed transducer-calibration sweep: the chip state it left behind
/// and the per-step `(capacity utilization, power)` observation rows it fed
/// the PICs (one row per observed interval, islands in order). The sweep is
/// open loop — a fixed DVFS schedule on the freshly built chip, no
/// controller in the loop — so it is a pure function of the construction
/// key. Replaying the rows into a coordinator's own PICs and adopting the
/// post-sweep chip is bit-identical to re-running the sweep.
struct CalibSweep {
    chip: Chip,
    rows: Vec<Vec<(Ratio, Watts)>>,
}

static CALIB_SWEEP_MEMO: Memo<Arc<CalibSweep>> = Memo::new();

/// The working buffers of a measurement, owned by the coordinator so they
/// live across [`Coordinator::run_for_gpm_intervals`] calls: once warm, a
/// call allocates only the [`Outcome`] it returns. Each call resets them.
struct RoundScratch {
    /// The chip's observations of the PIC interval just stepped.
    snap: ChipSnapshot,
    /// Per-island sums over the current GPM interval, for the feedback.
    acc_power: Vec<Watts>,
    acc_instr: Vec<f64>,
    acc_util: Vec<f64>,
    acc_cap_util: Vec<f64>,
    acc_peak_temp: Vec<f64>,
    /// Per-round controller-liveness flags from the injection seam (all
    /// false when no seam is attached).
    island_failed: Vec<bool>,
    /// The feedback handed to the GPM, refilled each provisioned round.
    feedback: Vec<IslandFeedback>,
}

impl RoundScratch {
    fn new() -> Self {
        Self {
            snap: ChipSnapshot::empty(),
            acc_power: Vec::new(),
            acc_instr: Vec::new(),
            acc_util: Vec::new(),
            acc_cap_util: Vec::new(),
            acc_peak_temp: Vec::new(),
            island_failed: Vec::new(),
            feedback: Vec::new(),
        }
    }

    /// Zeroes the accumulators and flags for `islands` islands, keeping
    /// every buffer's capacity.
    fn reset(&mut self, islands: usize) {
        fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
            v.clear();
            v.resize(n, x);
        }
        refill(&mut self.acc_power, islands, Watts::ZERO);
        refill(&mut self.acc_instr, islands, 0.0);
        refill(&mut self.acc_util, islands, 0.0);
        refill(&mut self.acc_cap_util, islands, 0.0);
        refill(&mut self.acc_peak_temp, islands, 0.0);
        refill(&mut self.island_failed, islands, false);
    }
}

/// How the PIC senses power (re-exported for the public API).
pub type SensorMode = PicSensor;

/// Which GPM provisioning policy a CPM run uses.
#[derive(Debug, Clone)]
pub enum PolicyKind {
    /// Performance-aware (Eqs. 1–6) — the paper's default.
    Performance,
    /// Thermal-aware (§IV-A) wrapping the performance policy.
    Thermal(ThermalConstraints),
    /// Variation-aware greedy EPI search (§IV-B).
    Variation,
}

/// The management scheme under test.
#[derive(Debug, Clone)]
pub enum ManagementScheme {
    /// The paper's two-tier GPM + PIC architecture.
    Cpm(PolicyKind),
    /// The open-loop MaxBIPS baseline.
    MaxBips,
    /// No power management: all islands at the top V/F point.
    NoManagement,
}

/// Everything one experiment needs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The chip.
    pub cmp: CmpConfig,
    /// Which paper mix to schedule.
    pub mix: Mix,
    /// Chip power budget as a fraction of the chip's *required* power —
    /// what the unmanaged chip draws at full speed ("the total power budget
    /// is 80 % of the required power by the whole chip", §IV). The
    /// coordinator measures that reference with a short unmanaged probe run
    /// at construction.
    pub budget_fraction: Ratio,
    /// Management scheme.
    pub scheme: ManagementScheme,
    /// PIC design point.
    pub pid_gains: PidGains,
    /// Identified plant gain `a` (paper: 0.79).
    pub plant_gain: f64,
    /// PIC sensing path.
    pub sensor: SensorMode,
    /// Per-island leakage variation (`None` = uniform silicon).
    pub variation: Option<VariationMap>,
    /// Explicit workload placement overriding `mix` (must match the chip
    /// topology). Used by the island-size and interval-sensitivity
    /// experiments, which re-group the same benchmarks into different
    /// island widths.
    pub assignment: Option<WorkloadAssignment>,
    /// Enable online plant-gain adaptation in the PICs (§II-D notes `aᵢ`
    /// varies across workloads; adaptation stays inside the guaranteed
    /// stability band).
    pub adaptive_gain: bool,
}

impl ExperimentConfig {
    /// The paper's default experiment: 8-core/4-island chip, Mix-1,
    /// 80 % budget, performance-aware CPM, transducer sensing.
    pub fn paper_default() -> Self {
        Self {
            cmp: CmpConfig::paper_default(),
            mix: Mix::Mix1,
            budget_fraction: Ratio::from_percent(80.0),
            scheme: ManagementScheme::Cpm(PolicyKind::Performance),
            pid_gains: PidGains::paper(),
            plant_gain: 0.79,
            sensor: SensorMode::Transducer,
            variation: None,
            assignment: None,
            adaptive_gain: false,
        }
    }

    /// Same experiment with an explicit workload placement (topology is
    /// taken from the assignment).
    pub fn with_assignment(mut self, assignment: WorkloadAssignment) -> Self {
        self.cmp = CmpConfig::with_topology(assignment.cores(), assignment.cores_per_island());
        self.assignment = Some(assignment);
        self
    }

    /// Same experiment under a different budget.
    pub fn with_budget_percent(mut self, pct: f64) -> Self {
        self.budget_fraction = Ratio::from_percent(pct);
        self
    }

    /// Same experiment under a different scheme.
    pub fn with_scheme(mut self, scheme: ManagementScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Same experiment with a different mix/topology.
    pub fn with_mix(mut self, mix: Mix, cores: usize, cores_per_island: usize) -> Self {
        self.mix = mix;
        self.cmp = CmpConfig::with_topology(cores, cores_per_island);
        self
    }
}

/// Configuration errors surfaced by [`Coordinator::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The mix does not fit the chip topology.
    MixTopologyMismatch(String),
    /// The budget is below the chip's idle floor.
    InfeasibleBudget(String),
    /// The variation map does not cover the islands.
    VariationMismatch(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::MixTopologyMismatch(s) => write!(f, "mix/topology mismatch: {s}"),
            ConfigError::InfeasibleBudget(s) => write!(f, "infeasible budget: {s}"),
            ConfigError::VariationMismatch(s) => write!(f, "variation mismatch: {s}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Results of a coordinated run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Chip budget in watts.
    pub budget: Watts,
    /// The theoretical chip maximum (all cores at top V/F, fully active,
    /// hot) — absolute context only.
    pub max_chip_power: Watts,
    /// The percent basis: the chip's measured unmanaged (full-speed) power
    /// requirement. The unmanaged chip reads ≈ 100 % on this scale.
    pub reference_power: Watts,
    /// Chip power per PIC interval, percent of the reference.
    pub chip_power_percent: TimeSeries,
    /// Per-island actual power, percent of the reference.
    pub island_actual_percent: Vec<TimeSeries>,
    /// Per-island allocated target, percent of the reference.
    pub island_target_percent: Vec<TimeSeries>,
    /// Per-island DVFS operating-point index per PIC interval.
    pub island_dvfs_index: Vec<TimeSeries>,
    /// Chip BIPS per PIC interval.
    pub chip_bips: TimeSeries,
    /// Hottest core temperature per PIC interval, °C.
    pub peak_temperature: TimeSeries,
    /// Total instructions retired during measurement.
    pub total_instructions: f64,
    /// Measured wall-clock (simulated) time.
    pub measured_time: Seconds,
    /// Thermal constraint statistics (thermal-aware runs only).
    pub violations: Option<ViolationStats>,
    /// Final transducer R² per island, where calibrated.
    pub transducer_r2: Vec<Option<f64>>,
    /// Per-island energy accounts over the measurement window.
    pub island_energy: Vec<EnergyAccount>,
    /// PIC invocations per GPM interval (for re-sampling traces to GPM
    /// resolution).
    pub pics_per_gpm: usize,
}

impl Outcome {
    /// Budget as percent of the required-power reference.
    pub fn budget_percent(&self) -> f64 {
        self.budget.value() / self.reference_power.value() * 100.0
    }

    /// Chip power re-sampled to GPM-interval resolution (what a 5 ms power
    /// meter — and the paper's Fig. 10 — reports; PIC-rate duty-cycling
    /// between the discrete V/F points averages out at this scale).
    pub fn chip_power_percent_gpm(&self) -> cpm_sim::TimeSeries {
        self.chip_power_percent.averaged_chunks(self.pics_per_gpm)
    }

    /// Island power at GPM resolution (Fig. 8's scale).
    pub fn island_actual_percent_gpm(&self, island: IslandId) -> cpm_sim::TimeSeries {
        self.island_actual_percent[island.index()].averaged_chunks(self.pics_per_gpm)
    }

    /// Island targets at GPM resolution.
    pub fn island_target_percent_gpm(&self, island: IslandId) -> cpm_sim::TimeSeries {
        self.island_target_percent[island.index()].averaged_chunks(self.pics_per_gpm)
    }

    /// Mean DVFS operating-point index an island ran at over the whole
    /// measurement (7 = the top Pentium-M point, 0 = the bottom).
    pub fn mean_island_dvfs(&self, island: IslandId) -> f64 {
        self.island_dvfs_index[island.index()].mean().unwrap_or(0.0)
    }

    /// The §II-A robustness triple (worst overshoot / settling /
    /// steady-state error) across all islands and GPM segments, with a
    /// ±`band` settling criterion.
    pub fn robustness(&self, band: f64) -> crate::metrics::RobustnessSummary {
        crate::metrics::robustness_summary(
            &self.island_actual_percent,
            &self.island_target_percent,
            self.pics_per_gpm,
            band,
        )
    }

    /// Chip-level tracking quality against the budget, at the GPM
    /// resolution the paper quotes (Fig. 10's ±4 % band).
    pub fn chip_tracking_error(&self) -> TrackingSummary {
        // Reduced lazily: publishing this per measurement allocates nothing.
        let gpm = self.chip_power_percent.chunk_means(self.pics_per_gpm);
        TrackingSummary::against_constant_values(gpm.map(|(_, v)| v), self.budget_percent())
    }

    /// Island-level tracking quality against its (time-varying) targets,
    /// at GPM resolution.
    pub fn island_tracking_error(&self, island: IslandId) -> TrackingSummary {
        TrackingSummary::against_series(
            &self.island_actual_percent_gpm(island),
            &self.island_target_percent_gpm(island),
        )
    }

    /// Mean chip power, percent of the reference.
    pub fn mean_chip_power_percent(&self) -> f64 {
        self.chip_power_percent.mean().unwrap_or(0.0)
    }

    /// Mean chip throughput over the run, BIPS.
    pub fn mean_bips(&self) -> f64 {
        self.chip_bips.mean().unwrap_or(0.0)
    }

    /// Performance degradation relative to a reference run (e.g.
    /// no-management at full speed), in percent.
    pub fn degradation_vs(&self, reference: &Outcome) -> f64 {
        (1.0 - self.total_instructions / reference.total_instructions) * 100.0
    }
}

enum Manager {
    Cpm {
        gpm: GlobalPowerManager,
        pics: Vec<PerIslandController>,
    },
    MaxBips {
        mb: MaxBips,
        /// The *static* prediction table ("the scheme selects DVFS
        /// co-ordinates from a static prediction table", §IV): per-island
        /// observations characterized once, from the first full GPM
        /// interval, and never refreshed — the open-loop staleness that
        /// separates MaxBIPS from the feedback-driven CPM as workloads
        /// move through phases.
        static_table: Option<Vec<MaxBipsObservation>>,
    },
    None,
}

/// The two-tier runtime.
pub struct Coordinator {
    cfg: ExperimentConfig,
    chip: Chip,
    manager: Manager,
    /// Measured unmanaged full-speed chip power (the percent basis).
    reference_power: Watts,
    /// Current island allocations (watts).
    alloc: Vec<Watts>,
    calibrated: bool,
    /// Flight-recorder handle shared with the GPM, PICs, policies, and the
    /// hotspot tracker (disabled by default).
    recorder: Recorder,
    /// Metrics registry the caller attached, if any (instruments are only
    /// touched at interval granularity, never per PIC step).
    registry: Option<Registry>,
    /// Optional die-temperature watchdog observed every PIC interval.
    hotspot: Option<HotspotTracker>,
    /// Optional fault-injection seam (scenario harness): consulted at the
    /// sense point before each PIC invocation, the actuate point before
    /// each DVFS move, and once per GPM round for budget transients and
    /// controller liveness. `None` costs one branch per step.
    injection: Option<Box<dyn InjectionSeam + Send>>,
    /// Memo key shared by the probe and calibration-sweep caches: the exact
    /// `Debug` rendering of the chip's construction inputs.
    memo_key: String,
    /// Recorder drop count at the last publish, so repeated measurements
    /// add deltas, not running totals.
    dropped_baseline: u64,
    /// Provenance ordinal of the next GPM round, cumulative across
    /// measurements so span ids never repeat between calls. Within the
    /// first call it equals the GPM invocation ordinal of each provisioned
    /// round (the feedback-free first round is round 0).
    prov_round: u64,
    /// Working buffers reused by every measurement.
    scratch: RoundScratch,
    /// Optional wall-clock self-profiler for the sense/decide/actuate
    /// phases. The coordinator only calls the seam — the implementation
    /// (and its clock) lives in the bench crate, and nothing it measures
    /// enters recorded events.
    profiler: Option<Box<dyn PhaseProfiler + Send>>,
}

impl Coordinator {
    /// Builds the chip, workload, and management stack for `cfg`.
    pub fn new(cfg: ExperimentConfig) -> Result<Self, ConfigError> {
        let assignment = Self::assignment(&cfg)?;
        let variation = match &cfg.variation {
            Some(v) => {
                if v.islands() != cfg.cmp.islands() {
                    return Err(ConfigError::VariationMismatch(format!(
                        "map covers {} islands, chip has {}",
                        v.islands(),
                        cfg.cmp.islands()
                    )));
                }
                v.clone()
            }
            None => VariationMap::uniform(cfg.cmp.islands()),
        };
        let chip = Chip::with_variation(cfg.cmp.clone(), &assignment, variation);
        let memo_key = format!("{:?}|{assignment:?}|{:?}", chip.config(), chip.variation());
        let (reference_power, _) =
            PROBE_MEMO.get_or_compute(&memo_key, || Self::probe_reference_power(&chip));
        let budget = cfg.budget_fraction * reference_power;
        Self::check_budget(&chip, budget)?;

        let manager = match &cfg.scheme {
            ManagementScheme::Cpm(kind) => {
                let islands = cfg.cmp.islands();
                let ranges = island_ranges(&chip);
                let policy: Box<dyn ProvisioningPolicy + Send> = match kind {
                    PolicyKind::Performance => Box::new(PerformanceAware::new()),
                    PolicyKind::Thermal(c) => Box::new(ThermalAware::new(
                        Box::new(PerformanceAware::new()),
                        c.clone(),
                        islands,
                    )),
                    PolicyKind::Variation => Box::new(VariationAware::new()),
                };
                let pics = (0..islands)
                    .map(|i| {
                        let pic = PerIslandController::new(
                            IslandId(i),
                            cfg.cmp.dvfs.clone(),
                            ranges[i].ceiling,
                            cfg.pid_gains,
                            cfg.plant_gain,
                            cfg.sensor,
                        );
                        if cfg.adaptive_gain {
                            pic.with_adaptive_gain()
                        } else {
                            pic
                        }
                    })
                    .collect();
                let gpm = GlobalPowerManager::new(budget, policy, ranges);
                Manager::Cpm { gpm, pics }
            }
            ManagementScheme::MaxBips => Manager::MaxBips {
                mb: MaxBips::new(cfg.cmp.dvfs.clone()),
                static_table: None,
            },
            ManagementScheme::NoManagement => Manager::None,
        };

        let islands = cfg.cmp.islands();
        Ok(Self {
            cfg,
            chip,
            manager,
            reference_power,
            alloc: vec![budget / islands as f64; islands],
            calibrated: false,
            recorder: Recorder::disabled(),
            registry: None,
            hotspot: None,
            injection: None,
            memo_key,
            dropped_baseline: 0,
            prov_round: 0,
            scratch: RoundScratch::new(),
            profiler: None,
        })
    }

    /// Attaches a flight-recorder handle and threads it through the whole
    /// management stack: the GPM (and its policy), every PIC, and the
    /// hotspot tracker if one is attached. The coordinator advances the
    /// recorder's ambient simulated clock as the chip steps, and emits
    /// `WorkerSpan` events for the calibrate/settle/measure phases.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        if let Manager::Cpm { gpm, pics } = &mut self.manager {
            gpm.set_recorder(recorder.clone());
            for pic in pics.iter_mut() {
                pic.set_recorder(recorder.clone());
            }
        }
        if let Some(h) = &mut self.hotspot {
            h.set_recorder(recorder.clone());
        }
        self.recorder = recorder;
    }

    /// Attaches a metrics registry. Run-level instruments — GPM/PIC
    /// invocation counts, thermal statistics — are published here after
    /// each measurement; without one, nothing is published.
    pub fn set_registry(&mut self, registry: Registry) {
        self.registry = Some(registry);
    }

    /// Attaches a die-temperature watchdog: every PIC interval the chip's
    /// node temperatures are checked against `threshold`, and each hotspot
    /// onset emits a `ThermalViolation` event when a recorder is attached.
    pub fn attach_hotspot_tracker(&mut self, threshold: Celsius) {
        let mut tracker = HotspotTracker::new(self.cfg.cmp.cores, threshold);
        tracker.set_recorder(self.recorder.clone());
        self.hotspot = Some(tracker);
    }

    /// Attaches a fault-injection seam. During measurement the seam
    /// filters every island's sensed `(utilization, power)` pair before
    /// its PIC sees it, every requested DVFS move before it is applied,
    /// and is polled each GPM round for budget transients (clamped to the
    /// chip's idle floor) and per-island controller failure — a failed
    /// island's PIC is skipped entirely (no sensing, control, or rezero)
    /// and the GPM fails over around its uncontrolled draw. Calibration
    /// and settle-in run un-faulted: scenarios perturb the measured
    /// story, not the characterization that precedes it.
    pub fn set_injection(&mut self, seam: Box<dyn InjectionSeam + Send>) {
        self.injection = Some(seam);
    }

    /// Attaches a control-phase wall-clock profiler: during measurement
    /// the coordinator brackets chip stepping/sensing (`Sense`), tier-1
    /// provisioning (`Decide`), and the PIC invoke/DVFS loop (`Actuate`)
    /// with `enter`/`exit` calls. Profiler output never enters recorded
    /// events or byte-diffed artifacts — see [`cpm_obs::PhaseProfiler`].
    pub fn set_profiler(&mut self, profiler: Box<dyn PhaseProfiler + Send>) {
        self.profiler = Some(profiler);
    }

    /// Cumulative (hits, misses) of the reference-power probe memo cache
    /// for this process.
    pub fn probe_cache_stats() -> (u64, u64) {
        PROBE_MEMO.stats()
    }

    /// Measures the chip's *required* power: a deterministic unmanaged
    /// probe on a clone of the freshly built chip. The probe first warms
    /// the die past the thermal time constant (leakage is temperature-
    /// sensitive, so a cold-die reading would understate the requirement),
    /// then averages 8 GPM intervals at the top operating point. This is
    /// the basis the paper expresses budgets in — the unmanaged chip reads
    /// ≈ 100 %.
    fn probe_reference_power(chip: &Chip) -> Watts {
        let mut probe = chip.clone();
        let per_gpm = probe.config().pics_per_gpm();
        let mut snap = ChipSnapshot::empty();
        for _ in 0..20 * per_gpm {
            probe.step_pic_into(&mut snap); // thermal warm-up, discarded
        }
        let steps = 8 * per_gpm;
        let mut total = 0.0f64;
        for _ in 0..steps {
            probe.step_pic_into(&mut snap);
            total += snap.chip_power.value();
        }
        Watts::new(total / steps as f64)
    }

    fn assignment(cfg: &ExperimentConfig) -> Result<WorkloadAssignment, ConfigError> {
        if let Some(a) = &cfg.assignment {
            if a.cores() != cfg.cmp.cores || a.cores_per_island() != cfg.cmp.cores_per_island {
                return Err(ConfigError::MixTopologyMismatch(format!(
                    "assignment covers {} cores x {} per island, chip has {} x {}",
                    a.cores(),
                    a.cores_per_island(),
                    cfg.cmp.cores,
                    cfg.cmp.cores_per_island
                )));
            }
            return Ok(a.clone());
        }
        let expected_width = match cfg.mix {
            Mix::Mix1 | Mix::Mix2 => 2,
            Mix::Mix3 => 4,
            Mix::Thermal => 1,
        };
        if cfg.cmp.cores_per_island != expected_width {
            return Err(ConfigError::MixTopologyMismatch(format!(
                "{:?} requires {} cores/island, chip has {}",
                cfg.mix, expected_width, cfg.cmp.cores_per_island
            )));
        }
        match cfg.mix {
            Mix::Mix1 | Mix::Mix2 | Mix::Thermal if cfg.cmp.cores != 8 => {
                Err(ConfigError::MixTopologyMismatch(format!(
                    "{:?} requires 8 cores, chip has {}",
                    cfg.mix, cfg.cmp.cores
                )))
            }
            Mix::Mix3 if cfg.cmp.cores != 16 && cfg.cmp.cores != 32 => {
                Err(ConfigError::MixTopologyMismatch(format!(
                    "Mix3 requires 16/32 cores, chip has {}",
                    cfg.cmp.cores
                )))
            }
            mix => Ok(WorkloadAssignment::paper_mix(mix, cfg.cmp.cores)),
        }
    }

    /// Rejects a budget below the chip's idle floor, the least budget any
    /// allocation can meet (every island idle at the bottom operating point).
    fn check_budget(chip: &Chip, budget: Watts) -> Result<(), ConfigError> {
        let floor: Watts = island_ranges(chip).iter().map(|r| r.floor).sum();
        if budget < floor {
            return Err(ConfigError::InfeasibleBudget(format!(
                "budget {budget} below chip idle floor {floor}"
            )));
        }
        Ok(())
    }

    /// The chip under management (read access for experiments).
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// The chip budget in watts.
    pub fn budget(&self) -> Watts {
        self.cfg.budget_fraction * self.reference_power
    }

    /// The measured unmanaged-power reference (the percent basis).
    pub fn reference_power(&self) -> Watts {
        self.reference_power
    }

    /// Changes the chip budget at runtime (e.g. a rack-level manager
    /// re-provisioned this socket). Takes effect at the next GPM
    /// invocation. Panics, before changing anything, on a budget that
    /// [`Self::new`] would reject as [`ConfigError::InfeasibleBudget`].
    pub fn set_budget_fraction(&mut self, fraction: Ratio) {
        assert!(fraction.value() > 0.0, "budget fraction must be positive");
        let budget = fraction * self.reference_power;
        Self::check_budget(&self.chip, budget).expect("runtime budget change");
        self.cfg.budget_fraction = fraction;
        if let Manager::Cpm { gpm, .. } = &mut self.manager {
            gpm.set_budget(budget);
        }
    }

    /// Transducer calibration sweep: visit every DVFS level for two PIC
    /// intervals and feed every island's (capacity-utilization, power)
    /// pair to its transducer. No-op for oracle sensing or non-CPM
    /// schemes. Runs automatically on the first measurement call.
    pub fn calibrate(&mut self) {
        if self.calibrated {
            return;
        }
        self.calibrated = true;
        let Manager::Cpm { pics, .. } = &mut self.manager else {
            return;
        };
        if self.cfg.sensor == SensorMode::Oracle {
            return;
        }
        // A miss runs the open-loop sweep in place on this chip; a hit adopts
        // the cached post-sweep chip. Either way the PICs replay the rows.
        let (sweep, hit) = CALIB_SWEEP_MEMO.get_or_compute(&self.memo_key, || {
            let (cmp, chip) = (&self.cfg.cmp, &mut self.chip);
            let levels = cmp.dvfs.len();
            // A schedule of (level, settling intervals, observed intervals).
            // Warm the die to operating temperature first: leakage is strongly
            // temperature-dependent, so a cold-die calibration would bias the
            // transducer low and every island would drift above its target.
            // ~20 GPM intervals at an upper-mid operating point approaches the
            // thermal steady state the managed run will live at.
            let warm = ((3 * levels) / 4, 20 * cmp.pics_per_gpm(), 0);
            // Then three sweeps over all levels (down, up, down): multiple
            // phase states per level average the workload noise out of the
            // fit. The first interval at each level absorbs the transition
            // freeze; the two following (clean) ones are observed. Finally
            // return to the top point so every run starts there.
            let sweeps = (0..levels).rev().chain(0..levels).chain((0..levels).rev());
            let sweeps = sweeps.map(|level| (level, 1, 2));
            let schedule = [warm].into_iter().chain(sweeps).chain([(levels - 1, 1, 0)]);
            let (mut snap, mut rows) = (ChipSnapshot::empty(), Vec::new());
            for (level, settle, observe) in schedule {
                for i in 0..cmp.islands() {
                    chip.set_island_dvfs(IslandId(i), level);
                }
                for _ in 0..settle {
                    chip.step_pic_into(&mut snap);
                }
                for _ in 0..observe {
                    chip.step_pic_into(&mut snap);
                    let row = snap.islands.iter();
                    rows.push(row.map(|i| (i.capacity_utilization, i.power)).collect());
                }
            }
            let chip = chip.clone();
            Arc::new(CalibSweep { chip, rows })
        });
        if hit {
            self.chip = sweep.chip.clone();
        }
        for row in &sweep.rows {
            for (pic, &(u, p)) in pics.iter_mut().zip(row) {
                pic.observe_calibration(u, p);
            }
        }
        // Give every PIC a clean start.
        for pic in pics.iter_mut() {
            pic.reset();
        }
    }

    /// Cumulative (hits, misses) of the calibration-sweep memo cache for
    /// this process.
    pub fn calib_sweep_cache_stats() -> (u64, u64) {
        CALIB_SWEEP_MEMO.stats()
    }

    /// Settle-in: one unrecorded GPM interval during which the PICs pull
    /// the freshly booted (top-V/F) chip down to the initial equal-share
    /// allocation, so the measured traces start from controlled state the
    /// way the paper's plots do.
    fn settle_in(&mut self) {
        let Manager::Cpm { gpm, pics } = &mut self.manager else {
            return;
        };
        let alloc = gpm.initial_allocation();
        for (pic, &a) in pics.iter_mut().zip(&alloc) {
            pic.set_target(a);
        }
        let mut snap = ChipSnapshot::empty();
        for _ in 0..self.cfg.cmp.pics_per_gpm() {
            self.chip.step_pic_into(&mut snap);
            for (i, pic) in pics.iter_mut().enumerate() {
                let isl = &snap.islands[i];
                let idx = pic.invoke(isl.capacity_utilization, isl.power);
                self.chip.set_island_dvfs(IslandId(i), idx);
            }
        }
    }

    /// Runs `n` GPM intervals under the configured scheme and records the
    /// outcome (calibrating first if needed).
    pub fn run_for_gpm_intervals(&mut self, n: usize) -> Outcome {
        if !self.calibrated {
            // Calibration and settle-in chatter is not part of the measured
            // story: blank the recorder, then log the phases as spans.
            self.recorder.pause();
            let t0 = self.chip.time().value();
            self.calibrate();
            let t1 = self.chip.time().value();
            self.settle_in();
            let t2 = self.chip.time().value();
            self.recorder.resume();
            self.recorder.set_time(t2);
            self.recorder.record(EventPayload::WorkerSpan {
                worker: 0,
                label: "calibrate",
                start_s: t0,
                end_s: t1,
            });
            self.recorder.record(EventPayload::WorkerSpan {
                worker: 0,
                label: "settle",
                start_s: t1,
                end_s: t2,
            });
        }
        let measure_start = self.chip.time().value();
        self.recorder.set_time(measure_start);
        // Invocation counts already published by earlier measurements on
        // this coordinator must not be re-added.
        let (gpm_before, pic_before) = match &self.manager {
            Manager::Cpm { gpm, pics } => (
                gpm.invocations(),
                pics.iter().map(|p| p.invocations()).sum::<u64>(),
            ),
            _ => (0, 0),
        };
        let islands = self.cfg.cmp.islands();
        let pics_per_gpm = self.cfg.cmp.pics_per_gpm();
        let budget = self.budget();
        let reference = self.reference_power;
        let pct = |w: Watts| w.value() / reference.value() * 100.0;

        // Every series gets exactly one sample per PIC interval. Each
        // per-island series is built on its own: `vec![series; islands]`
        // would clone, and a cloned `Vec` keeps only the length, so all
        // but one series would start at capacity 0.
        let samples = n * pics_per_gpm;
        let per_island = || {
            (0..islands)
                .map(|_| TimeSeries::with_capacity(samples))
                .collect()
        };
        let mut out = Outcome {
            budget,
            max_chip_power: self.chip.max_power(),
            reference_power: reference,
            chip_power_percent: TimeSeries::with_capacity(samples),
            island_actual_percent: per_island(),
            island_target_percent: per_island(),
            island_dvfs_index: per_island(),
            chip_bips: TimeSeries::with_capacity(samples),
            peak_temperature: TimeSeries::with_capacity(samples),
            total_instructions: 0.0,
            measured_time: Seconds::ZERO,
            violations: None,
            transducer_r2: vec![None; islands],
            island_energy: vec![EnergyAccount::new(); islands],
            pics_per_gpm,
        };

        // The accumulators, flags and snapshot buffer live across calls:
        // the per-step hot loop below performs no heap allocation.
        self.scratch.reset(islands);
        let RoundScratch {
            snap,
            acc_power,
            acc_instr,
            acc_util,
            acc_cap_util,
            acc_peak_temp,
            island_failed,
            feedback,
        } = &mut self.scratch;
        let mut have_feedback = false;
        // Provenance events (GpmRound roots, Actuation leaves) read chip
        // state the un-instrumented loop never touches, so they are gated
        // on an attached recorder rather than on `Recorder::record`'s
        // internal branch.
        let record_provenance = self.recorder.is_enabled();

        for _gpm_round in 0..n {
            // ---- Injection: budget transients + controller liveness ----
            let now = self.chip.time();
            let mut round_budget = budget;
            if let Some(seam) = &mut self.injection {
                let scale = seam.budget_scale(now);
                if scale != 1.0 {
                    let mut scaled = Watts::new(budget.value() * scale);
                    if let Manager::Cpm { gpm, .. } = &self.manager {
                        // A transient below the idle floor is physically
                        // unmeetable; clamp rather than panic mid-run.
                        if scaled < gpm.floor() {
                            scaled = gpm.floor();
                        }
                    }
                    round_budget = scaled;
                }
                for (i, f) in island_failed.iter_mut().enumerate() {
                    *f = seam.controller_failed(now, IslandId(i));
                }
                if let Manager::Cpm { gpm, .. } = &mut self.manager {
                    if gpm.budget() != round_budget {
                        gpm.set_budget(round_budget);
                    }
                    for (i, &f) in island_failed.iter().enumerate() {
                        gpm.set_island_failed(IslandId(i), f);
                    }
                }
            }

            // ---- Provenance root: this round's cause-tree anchor ----
            // The GPM stamps its `GpmAllocation` events with this ordinal.
            let round_no = self.prov_round;
            if record_provenance {
                // `acc_power` still holds the previous interval's sums at
                // this point — the mean chip draw the GPM is reacting to.
                let actual_w = if have_feedback {
                    acc_power.iter().map(|w| w.value()).sum::<f64>() / pics_per_gpm as f64
                } else {
                    0.0
                };
                self.recorder.record(EventPayload::GpmRound {
                    span: SpanId::gpm_round(round_no).raw(),
                    round: round_no,
                    budget_w: round_budget.value(),
                    actual_w,
                    islands: islands as u32,
                });
            }

            // ---- Tier 1: global provisioning ----
            if let Some(p) = &mut self.profiler {
                p.enter(ControlPhase::Decide);
            }
            match &mut self.manager {
                Manager::Cpm { gpm, pics } => {
                    if have_feedback {
                        // The coarse per-island meter read the GPM relies
                        // on also re-zeroes each PIC's fast transducer
                        // (skipped for islands whose controller is dead —
                        // there is nothing alive to trim).
                        for (i, pic) in pics.iter_mut().enumerate() {
                            if island_failed[i] {
                                continue;
                            }
                            let k = pics_per_gpm as f64;
                            pic.rezero(Ratio::new(acc_cap_util[i] / k), acc_power[i] / k);
                        }
                        feedback.clear();
                        feedback.extend((0..islands).map(|i| {
                            let k = pics_per_gpm as f64;
                            let mean_power = acc_power[i] / k;
                            let dt = self.cfg.cmp.gpm_interval;
                            IslandFeedback {
                                island: IslandId(i),
                                allocated: self.alloc[i],
                                actual_power: mean_power,
                                bips: acc_instr[i] / dt.value() / 1.0e9,
                                utilization: Ratio::new(acc_util[i] / k),
                                epi: (acc_instr[i] > 0.0).then(|| (mean_power * dt) / acc_instr[i]),
                                peak_temperature: acc_peak_temp[i],
                            }
                        }));
                        self.alloc = gpm.provision_round(feedback, round_no);
                    } else {
                        gpm.initial_allocation_into(&mut self.alloc);
                    }
                    for (pic, &a) in pics.iter_mut().zip(&self.alloc) {
                        pic.set_target(a);
                        pic.begin_round(round_no);
                    }
                }
                Manager::MaxBips { mb, static_table } => {
                    if have_feedback {
                        if static_table.is_none() {
                            // One-time characterization pass: build the
                            // static table from the first full interval.
                            *static_table = Some(
                                (0..islands)
                                    .map(|i| {
                                        let idx = self.chip.island_dvfs(IslandId(i));
                                        // Characterized leakage at the
                                        // island's voltage (hot reference).
                                        let v = self.cfg.cmp.dvfs.point(idx).voltage;
                                        let static_power = self.cfg.cmp.power.leakage.power(
                                            v,
                                            cpm_power::LeakageModel::HOT_REFERENCE,
                                            self.chip.variation().multiplier(IslandId(i)),
                                        ) * self.cfg.cmp.cores_per_island as f64;
                                        MaxBipsObservation {
                                            power: acc_power[i] / pics_per_gpm as f64,
                                            static_power,
                                            bips: acc_instr[i]
                                                / self.cfg.cmp.gpm_interval.value()
                                                / 1.0e9,
                                            dvfs_index: idx,
                                        }
                                    })
                                    .collect(),
                            );
                        }
                        let combo = mb.choose(round_budget, static_table.as_ref().unwrap());
                        for (i, &requested) in combo.iter().enumerate() {
                            let lvl = match &mut self.injection {
                                Some(seam) => {
                                    let cur = self.chip.island_dvfs(IslandId(i));
                                    seam.filter_actuate(now, IslandId(i), requested, cur)
                                }
                                None => requested,
                            };
                            if record_provenance {
                                // MaxBIPS actuates straight from the round
                                // decision — no PIC in between — so the
                                // actuation parents on the round span.
                                let from = self.chip.island_dvfs(IslandId(i)) as u32;
                                self.recorder.record(EventPayload::Actuation {
                                    span: SpanId::actuation(round_no, i as u32, 0).raw(),
                                    parent: SpanId::gpm_round(round_no).raw(),
                                    island: i as u32,
                                    from_dvfs: from,
                                    requested_dvfs: requested as u32,
                                    to_dvfs: lvl as u32,
                                    granted: lvl == requested,
                                });
                            }
                            self.chip.set_island_dvfs(IslandId(i), lvl);
                        }
                    }
                    // Allocation bookkeeping for reporting: equal split.
                    self.alloc.fill(round_budget / islands as f64);
                }
                Manager::None => {}
            }
            if let Some(p) = &mut self.profiler {
                p.exit(ControlPhase::Decide);
            }

            acc_power.fill(Watts::ZERO);
            acc_instr.fill(0.0);
            acc_util.fill(0.0);
            acc_cap_util.fill(0.0);
            acc_peak_temp.fill(0.0);

            // ---- Tier 2: local control, one PIC interval at a time ----
            for k in 0..pics_per_gpm {
                if let Some(p) = &mut self.profiler {
                    p.enter(ControlPhase::Sense);
                }
                self.chip.step_pic_into(snap);
                let t = snap.time;
                self.recorder.set_time(t.value());
                if let Some(h) = &mut self.hotspot {
                    h.observe(&snap.temperatures, snap.dt);
                }
                for (i, isl) in snap.islands.iter().enumerate() {
                    acc_power[i] += isl.power;
                    acc_instr[i] += isl.instructions;
                    acc_util[i] += isl.utilization.value();
                    acc_cap_util[i] += isl.capacity_utilization.value();
                    out.island_actual_percent[i].push(t, pct(isl.power));
                    out.island_target_percent[i].push(t, pct(self.alloc[i]));
                    out.island_dvfs_index[i].push(t, isl.dvfs_index as f64);
                    out.island_energy[i].record_interval(isl.power, snap.dt, isl.instructions);
                }
                for (i, peak) in acc_peak_temp.iter_mut().enumerate() {
                    // Peak temperature across the island's cores.
                    let island_cores = (i * self.cfg.cmp.cores_per_island)
                        ..((i + 1) * self.cfg.cmp.cores_per_island);
                    let island_peak = island_cores
                        .map(|c| snap.temperatures[c].value())
                        .fold(f64::NEG_INFINITY, f64::max);
                    *peak = peak.max(island_peak);
                }
                out.chip_power_percent.push(t, pct(snap.chip_power));
                out.chip_bips.push(t, snap.chip_bips());
                out.peak_temperature.push(
                    t,
                    snap.temperatures
                        .iter()
                        .map(|c| c.value())
                        .fold(f64::NEG_INFINITY, f64::max),
                );
                out.total_instructions += snap.instructions;
                out.measured_time += snap.dt;
                if let Some(p) = &mut self.profiler {
                    p.exit(ControlPhase::Sense);
                    p.enter(ControlPhase::Actuate);
                }

                if let Manager::Cpm { pics, .. } = &mut self.manager {
                    for (i, pic) in pics.iter_mut().enumerate() {
                        let id = IslandId(i);
                        let isl = &snap.islands[i];
                        let (mut u, mut p) = (isl.capacity_utilization, isl.power);
                        if let Some(seam) = &mut self.injection {
                            if seam.controller_failed(t, id) {
                                continue; // dead controller: knob holds
                            }
                            (u, p) = seam.filter_sense(t, id, u, p);
                        }
                        let requested = pic.invoke(u, p);
                        let current = self.chip.island_dvfs(id);
                        // Un-faulted platform: the knob honors the request.
                        let idx = match &mut self.injection {
                            Some(seam) => seam.filter_actuate(t, id, requested, current),
                            None => requested,
                        };
                        if record_provenance {
                            self.recorder.record(EventPayload::Actuation {
                                span: SpanId::actuation(round_no, i as u32, k as u32).raw(),
                                parent: SpanId::pic_decision(round_no, i as u32, k as u32).raw(),
                                island: i as u32,
                                from_dvfs: current as u32,
                                requested_dvfs: requested as u32,
                                to_dvfs: idx as u32,
                                granted: idx == requested,
                            });
                        }
                        self.chip.set_island_dvfs(id, idx);
                    }
                }
                if let Some(p) = &mut self.profiler {
                    p.exit(ControlPhase::Actuate);
                }
            }
            have_feedback = true;
            self.prov_round += 1;
        }

        // Leave the GPM in its nominal state: an injection-scaled budget
        // or failover flag must not leak into a later measurement.
        if self.injection.is_some() {
            if let Manager::Cpm { gpm, .. } = &mut self.manager {
                gpm.set_budget(budget);
                for i in 0..islands {
                    gpm.set_island_failed(IslandId(i), false);
                }
            }
        }

        if let Manager::Cpm { pics, .. } = &self.manager {
            for (i, pic) in pics.iter().enumerate() {
                out.transducer_r2[i] = pic.transducer_r_squared();
            }
        }
        // Violation stats from thermal-aware runs are carried by the policy;
        // surfaced via `thermal_stats`.
        out.violations = self.thermal_stats();
        let measure_end = self.chip.time().value();
        self.recorder.set_time(measure_end);
        self.recorder.record(EventPayload::WorkerSpan {
            worker: 0,
            label: "measure",
            start_s: measure_start,
            end_s: measure_end,
        });
        self.publish_metrics(&out, n as u64, gpm_before, pic_before);
        out
    }

    /// Publishes run-level instruments to the registry (called once per
    /// measurement, never on the hot path).
    fn publish_metrics(&mut self, out: &Outcome, rounds: u64, gpm_before: u64, pic_before: u64) {
        let Some(r) = &self.registry else {
            return;
        };
        // Recorder overflow surfaces as a counter so truncated histories
        // are visible in every metrics snapshot (delta since last publish).
        let dropped = self.recorder.dropped();
        r.counter("recorder.dropped_events")
            .add(dropped.saturating_sub(self.dropped_baseline));
        self.dropped_baseline = dropped;
        r.counter("coordinator.gpm_rounds").add(rounds);
        if let Manager::Cpm { gpm, pics } = &self.manager {
            r.counter("gpm.invocations")
                .add(gpm.invocations() - gpm_before);
            r.counter("pic.invocations")
                .add(pics.iter().map(|p| p.invocations()).sum::<u64>() - pic_before);
        }
        r.gauge("chip.budget_percent").set(out.budget_percent());
        r.gauge("chip.mean_power_percent")
            .set(out.mean_chip_power_percent());
        if let Some(v) = &out.violations {
            r.counter("thermal.violated_intervals")
                .add(v.violated_intervals);
        }
        if let Some(h) = &self.hotspot {
            r.counter("thermal.hotspot_events").add(h.events() as u64);
            r.gauge("thermal.hotspot_violation_fraction")
                .set(h.violation_fraction());
        }
        let err = out.chip_tracking_error();
        r.gauge("tracking.chip_mean_abs_error_percent")
            .set(err.mean_abs_error_percent);
        r.counter("tracking.skipped_samples")
            .add(err.skipped_samples as u64);
    }

    /// Violation statistics when running the thermal-aware policy.
    pub fn thermal_stats(&self) -> Option<ViolationStats> {
        match &self.manager {
            Manager::Cpm { gpm, .. } => gpm.policy_violation_stats().cloned(),
            _ => None,
        }
    }
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("cores", &self.cfg.cmp.cores)
            .field("islands", &self.cfg.cmp.islands())
            .field("budget", &self.budget())
            .finish()
    }
}

/// Convenience: runs `cfg` for `n` GPM intervals and also its
/// no-management twin, returning `(managed, baseline)` outcomes for
/// degradation reporting. Both runs share seeds, so phase sequences align.
pub fn run_with_baseline(
    cfg: ExperimentConfig,
    n: usize,
) -> Result<(Outcome, Outcome), ConfigError> {
    let baseline_cfg = cfg.clone().with_scheme(ManagementScheme::NoManagement);
    let mut managed = Coordinator::new(cfg)?;
    let mut baseline = Coordinator::new(baseline_cfg)?;
    Ok((
        managed.run_for_gpm_intervals(n),
        baseline.run_for_gpm_intervals(n),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: ExperimentConfig, n: usize) -> Outcome {
        Coordinator::new(cfg)
            .expect("valid config")
            .run_for_gpm_intervals(n)
    }

    #[test]
    fn paper_default_tracks_the_chip_budget() {
        let out = quick(ExperimentConfig::paper_default(), 20);
        let track = out.chip_tracking_error();
        // The paper bounds overshoot within ~4 % of target; allow slack for
        // the synthetic substrate.
        assert!(
            track.max_overshoot_percent < 10.0,
            "overshoot {}",
            track.max_overshoot_percent
        );
        // Long-run mean should sit near the budget (within 10 % of target).
        let mean = out.mean_chip_power_percent();
        assert!(
            (mean - out.budget_percent()).abs() < 0.10 * out.budget_percent(),
            "mean {mean} vs budget {}",
            out.budget_percent()
        );
    }

    #[test]
    fn island_allocations_sum_to_budget() {
        let out = quick(ExperimentConfig::paper_default(), 10);
        // At each recorded instant the island targets sum to the budget.
        let n = out.island_target_percent[0].len();
        for k in 0..n {
            let total: f64 = out
                .island_target_percent
                .iter()
                .map(|ts| ts.samples()[k].value)
                .sum();
            assert!(
                (total - out.budget_percent()).abs() < 0.5,
                "t={k}: targets sum to {total}"
            );
        }
    }

    #[test]
    fn no_management_runs_flat_out() {
        let out = quick(
            ExperimentConfig::paper_default().with_scheme(ManagementScheme::NoManagement),
            10,
        );
        // Unmanaged power exceeds an 80 % budget (that is why management
        // is needed).
        assert!(out.mean_chip_power_percent() > out.budget_percent());
    }

    #[test]
    fn cpm_degradation_is_modest_at_80_percent() {
        let (managed, baseline) = run_with_baseline(ExperimentConfig::paper_default(), 20).unwrap();
        let deg = managed.degradation_vs(&baseline);
        assert!(deg >= 0.0, "managed cannot beat full speed: {deg}");
        assert!(deg < 15.0, "degradation {deg}% too large for an 80% budget");
    }

    #[test]
    fn maxbips_undershoots_the_budget() {
        let out = quick(
            ExperimentConfig::paper_default().with_scheme(ManagementScheme::MaxBips),
            20,
        );
        assert!(
            out.mean_chip_power_percent() <= out.budget_percent() + 1.0,
            "MaxBIPS mean {} must not exceed budget {}",
            out.mean_chip_power_percent(),
            out.budget_percent()
        );
    }

    #[test]
    fn infeasible_budget_is_a_config_error() {
        let cfg = ExperimentConfig::paper_default().with_budget_percent(1.0);
        assert!(matches!(
            Coordinator::new(cfg),
            Err(ConfigError::InfeasibleBudget(_))
        ));
    }

    fn paper_coordinator(scheme: ManagementScheme) -> Coordinator {
        Coordinator::new(ExperimentConfig::paper_default().with_scheme(scheme)).unwrap()
    }

    #[test]
    #[should_panic(expected = "below chip idle floor")]
    fn cpm_rejects_a_runtime_budget_below_the_idle_floor() {
        let mut coord = paper_coordinator(ManagementScheme::Cpm(PolicyKind::Performance));
        coord.set_budget_fraction(Ratio::from_percent(1.0));
    }

    #[test]
    #[should_panic(expected = "below chip idle floor")]
    fn maxbips_rejects_a_runtime_budget_below_the_idle_floor() {
        let mut coord = paper_coordinator(ManagementScheme::MaxBips);
        coord.set_budget_fraction(Ratio::from_percent(1.0));
    }

    #[test]
    #[should_panic(expected = "below chip idle floor")]
    fn no_management_rejects_a_runtime_budget_below_the_idle_floor() {
        let mut coord = paper_coordinator(ManagementScheme::NoManagement);
        coord.set_budget_fraction(Ratio::from_percent(1.0));
    }

    #[test]
    fn a_feasible_runtime_budget_change_takes_effect_under_every_scheme() {
        let cpm = ManagementScheme::Cpm(PolicyKind::Performance);
        for scheme in [
            cpm,
            ManagementScheme::MaxBips,
            ManagementScheme::NoManagement,
        ] {
            let mut coord = paper_coordinator(scheme);
            coord.set_budget_fraction(Ratio::from_percent(65.0));
            let expected = Ratio::from_percent(65.0) * coord.reference_power();
            assert_eq!(coord.budget(), expected);
            if let Manager::Cpm { gpm, .. } = &coord.manager {
                assert_eq!(gpm.budget(), expected);
            }
        }
    }

    #[test]
    fn mix_topology_mismatch_is_a_config_error() {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.cmp = CmpConfig::with_topology(16, 4);
        // Mix1 on a 16-core chip.
        assert!(matches!(
            Coordinator::new(cfg),
            Err(ConfigError::MixTopologyMismatch(_))
        ));
    }

    #[test]
    fn oracle_sensor_skips_calibration_but_still_tracks() {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.sensor = SensorMode::Oracle;
        let out = quick(cfg, 15);
        let mean = out.mean_chip_power_percent();
        assert!((mean - out.budget_percent()).abs() < 0.10 * out.budget_percent());
        assert!(out.transducer_r2.iter().all(|r| r.is_none()));
    }

    #[test]
    fn transducer_calibration_quality_matches_fig6() {
        let out = quick(ExperimentConfig::paper_default(), 10);
        for (i, r2) in out.transducer_r2.iter().enumerate() {
            let r2 = r2.expect("transducer calibrated");
            assert!(r2 > 0.85, "island {i} transducer R² = {r2}");
        }
    }

    #[test]
    fn memoized_reference_power_is_bit_identical_to_direct_probe() {
        let cfg = ExperimentConfig::paper_default().with_budget_percent(80.0);
        // Whatever the first construction did, this one is a guaranteed cache
        // hit for the same construction key.
        let warm = Coordinator::new(cfg.clone()).unwrap();
        drop(warm);
        let coord = Coordinator::new(cfg).unwrap();
        let direct = Coordinator::probe_reference_power(coord.chip());
        assert_eq!(
            coord.reference_power().value().to_bits(),
            direct.value().to_bits(),
            "memoized reference power {} != direct probe {}",
            coord.reference_power(),
            direct
        );
    }

    #[test]
    fn determinism_same_config_same_outcome() {
        let a = quick(ExperimentConfig::paper_default(), 5);
        let b = quick(ExperimentConfig::paper_default(), 5);
        assert_eq!(a.total_instructions, b.total_instructions);
        assert_eq!(
            a.chip_power_percent.samples().last().unwrap().value,
            b.chip_power_percent.samples().last().unwrap().value
        );
    }
}
