//! The full chip: cores, islands, power, and thermal state, advanced one
//! control interval at a time.

use crate::config::CmpConfig;
use crate::soa::{CoreBank, CoreView, IslandBank, IslandCtx, IslandView, SegmentTotals};
use cpm_power::variation::VariationMap;
use cpm_power::IslandPowerTerms;
use cpm_runtime::Pool;
use cpm_thermal::ThermalGrid;
use cpm_units::{Celsius, CoreId, IslandId, Ratio, Seconds, Watts};
use cpm_workloads::WorkloadAssignment;

/// Per-island observations for one interval — exactly the feedback the
/// GPM and PICs consume.
#[derive(Debug, Clone, PartialEq)]
pub struct IslandSnapshot {
    /// Which island.
    pub island: IslandId,
    /// Average island power over the interval.
    pub power: Watts,
    /// Mean CPU utilization across the island's cores (busy fraction of the
    /// interval at the *current* clock).
    pub utilization: Ratio,
    /// Capacity utilization: busy fraction scaled by `f / f_max` — the
    /// OS-counter view of "how much of the core's maximum capability was
    /// used". This is the observable the PIC's transducer regresses power
    /// against (it correlates positively with power across DVFS points,
    /// unlike the raw busy fraction).
    pub capacity_utilization: Ratio,
    /// Instructions retired by the island this interval.
    pub instructions: f64,
    /// Throughput in billions of instructions per second.
    pub bips: f64,
    /// Operating point in effect.
    pub dvfs_index: usize,
}

/// Full-chip observations for one interval.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSnapshot {
    /// Simulated time at the *end* of the interval.
    pub time: Seconds,
    /// Interval length.
    pub dt: Seconds,
    /// Per-island observations.
    pub islands: Vec<IslandSnapshot>,
    /// Per-core power draw (core-id order) — the thermal model's input.
    pub core_powers: Vec<Watts>,
    /// Per-core die temperature at the end of the interval.
    pub temperatures: Vec<Celsius>,
    /// Total chip power (Σ islands).
    pub chip_power: Watts,
    /// Total instructions retired this interval.
    pub instructions: f64,
    /// Aggregate DRAM traffic demand this interval, bytes/second.
    pub memory_demand: f64,
    /// The memory-contention (DRAM latency inflation) factor that was in
    /// effect during this interval (1.0 = uncontended).
    pub memory_contention: f64,
}

impl ChipSnapshot {
    /// An empty snapshot suitable as a reusable output buffer for
    /// [`Chip::step_into`]. The vectors start unallocated and grow to the
    /// chip's size on first use, after which they are reused in place.
    pub fn empty() -> Self {
        Self {
            time: Seconds::ZERO,
            dt: Seconds::ZERO,
            islands: Vec::new(),
            core_powers: Vec::new(),
            temperatures: Vec::new(),
            chip_power: Watts::ZERO,
            instructions: 0.0,
            memory_demand: 0.0,
            memory_contention: 1.0,
        }
    }

    /// Chip throughput in BIPS this interval.
    pub fn chip_bips(&self) -> f64 {
        self.instructions / self.dt.value() / 1.0e9
    }
}

/// The simulated CMP.
///
/// Hot per-core and per-island state lives in structure-of-arrays banks
/// (see [`crate::soa`]); [`Chip::core`] and [`Chip::island`] expose the
/// scalar-struct read API over them.
#[derive(Debug, Clone)]
pub struct Chip {
    config: CmpConfig,
    cores: CoreBank,
    islands: IslandBank,
    thermal: ThermalGrid,
    variation: VariationMap,
    time: Seconds,
    max_power: Watts,
    /// Memory-contention factor applied this interval (computed from the
    /// previous interval's aggregate traffic — a one-interval lag, as a
    /// real controller's congestion feedback would have).
    mem_contention: f64,
    /// The island power terms of each operating point, by DVFS index: a
    /// function of the operating point alone, so computing them once here
    /// is bit-identical to hoisting them per island per step.
    terms: Vec<IslandPowerTerms>,
    /// Per-step scratch: each island's lane context and totals.
    island_ctx: Vec<IslandCtx>,
    island_totals: Vec<SegmentTotals>,
}

impl Chip {
    /// Builds a chip from a configuration and a workload assignment (which
    /// must agree on topology), with uniform process variation.
    pub fn new(config: CmpConfig, assignment: &WorkloadAssignment) -> Self {
        let variation = VariationMap::uniform(config.islands());
        Self::with_variation(config, assignment, variation)
    }

    /// Builds a chip with an explicit per-island leakage variation map.
    pub fn with_variation(
        config: CmpConfig,
        assignment: &WorkloadAssignment,
        variation: VariationMap,
    ) -> Self {
        config.validate();
        assert_eq!(
            assignment.cores(),
            config.cores,
            "workload assignment core count must match the chip"
        );
        assert_eq!(
            assignment.cores_per_island(),
            config.cores_per_island,
            "workload assignment island width must match the chip"
        );
        assert_eq!(
            variation.islands(),
            config.islands(),
            "variation map must cover every island"
        );
        let mut cores = CoreBank::new(config.cores_per_island);
        for c in 0..config.cores {
            cores.push(assignment.profile(CoreId(c)).clone(), config.seed, c as u64);
        }
        let top = config.dvfs.len() - 1;
        // Boot every island at the nominal (highest) operating point.
        let islands = IslandBank::new(config.islands(), config.cores_per_island, top);
        let thermal = ThermalGrid::new(config.floorplan(), config.thermal);
        let max_power = Self::compute_max_power(&config, &variation);
        let terms = config
            .dvfs
            .points()
            .iter()
            .map(|&op| config.power.island_terms(op))
            .collect();
        Self {
            island_ctx: vec![IslandCtx::default(); config.islands()],
            island_totals: vec![SegmentTotals::default(); config.islands()],
            config,
            cores,
            islands,
            thermal,
            variation,
            time: Seconds::ZERO,
            max_power,
            mem_contention: 1.0,
            terms,
        }
    }

    fn compute_max_power(config: &CmpConfig, variation: &VariationMap) -> Watts {
        (0..config.cores)
            .map(|c| {
                let island = IslandId(c / config.cores_per_island);
                config
                    .power
                    .max_power(&config.dvfs, variation.multiplier(island))
            })
            .sum()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CmpConfig {
        &self.config
    }

    /// Simulated time so far.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// The basis for all "percent power" figures: every core at the top
    /// operating point, fully active, at the hot reference temperature.
    pub fn max_power(&self) -> Watts {
        self.max_power
    }

    /// Current operating point of an island.
    pub fn island_dvfs(&self, island: IslandId) -> usize {
        self.islands.dvfs_index(island.index())
    }

    /// Requests an island operating-point change (takes effect immediately;
    /// the transition freeze is charged to the next interval).
    pub fn set_island_dvfs(&mut self, island: IslandId, idx: usize) {
        self.islands
            .set_dvfs_index(island.index(), idx, &self.config.dvfs);
    }

    /// Total DVFS transitions performed by an island so far.
    pub fn island_transitions(&self, island: IslandId) -> u64 {
        self.islands.transitions(island.index())
    }

    /// Read view of one core's state (profile, lifetime accounting).
    pub fn core(&self, core: CoreId) -> CoreView<'_> {
        CoreView::new(&self.cores, core)
    }

    /// Read view of one island's state (operating point, transitions).
    pub fn island(&self, island: IslandId) -> IslandView<'_> {
        IslandView::new(&self.islands, island)
    }

    /// The per-island process-variation map.
    pub fn variation(&self) -> &VariationMap {
        &self.variation
    }

    /// Per-core die temperatures in °C, borrowed (allocation-free).
    pub fn temperatures_deg(&self) -> &[f64] {
        self.thermal.temperatures_deg()
    }

    /// The memory-contention factor currently in effect (≥ 1).
    pub fn memory_contention(&self) -> f64 {
        self.mem_contention
    }

    /// Advances the chip by one PIC interval and reports what happened.
    pub fn step_pic(&mut self) -> ChipSnapshot {
        self.step(self.config.pic_interval)
    }

    /// Advances the chip by one PIC interval, writing the observations into
    /// a caller-owned snapshot buffer (see [`Chip::step_into`]).
    pub fn step_pic_into(&mut self, out: &mut ChipSnapshot) {
        self.step_into(self.config.pic_interval, out);
    }

    /// Advances the chip by an arbitrary interval `dt`.
    pub fn step(&mut self, dt: Seconds) -> ChipSnapshot {
        let mut out = ChipSnapshot::empty();
        self.step_into(dt, &mut out);
        out
    }

    /// Advances the chip by `dt`, writing the observations into `out`.
    ///
    /// The snapshot's vectors are cleared and refilled in place, so a buffer
    /// obtained from [`ChipSnapshot::empty`] and reused across steps makes
    /// steady-state stepping allocation-free after the first call. Results
    /// are bit-identical to [`Chip::step`].
    pub fn step_into(&mut self, dt: Seconds, out: &mut ChipSnapshot) {
        let contention = self.mem_contention;
        // One pass over all cores for the phase sequences, the islands'
        // contexts, then one fused CPI+power lane pass over all cores.
        self.cores.advance_phases(dt);
        for (i, ctx) in self.island_ctx.iter_mut().enumerate() {
            let idx = self.islands.dvfs_index(i);
            let frozen = self.islands.take_freeze(i, &self.config.dvfs, dt);
            *ctx = IslandCtx::new(
                self.config.dvfs.point(idx).frequency,
                dt,
                frozen,
                self.terms[idx],
                self.variation.multiplier(IslandId(i)),
            );
        }
        self.cores.step_islands(
            0,
            &self.island_ctx,
            dt,
            contention,
            &self.config.power,
            self.thermal.temperatures_deg(),
            &mut self.island_totals,
        );
        out.core_powers.clear();
        out.core_powers.extend_from_slice(self.cores.core_powers());
        // Fold DRAM bytes in chip core order — the exact addition order of
        // the array-of-structs walk.
        let mut total_dram_bytes = 0.0;
        for &b in self.cores.dram_bytes() {
            total_dram_bytes += b;
        }
        out.islands.clear();
        out.islands.reserve(self.islands.len());
        let mut total_instructions = 0.0;
        let f_max = self.config.dvfs.max_point().frequency;
        for (i, totals) in self.island_totals.iter().enumerate() {
            total_instructions += totals.instructions;
            let dvfs_index = self.islands.dvfs_index(i);
            let utilization = Ratio::new(totals.util_sum / self.islands.width() as f64);
            let f_ratio = self.config.dvfs.point(dvfs_index).frequency / f_max;
            out.islands.push(IslandSnapshot {
                island: IslandId(i),
                power: totals.power,
                utilization,
                capacity_utilization: Ratio::new(utilization.value() * f_ratio),
                instructions: totals.instructions,
                bips: totals.instructions / dt.value() / 1.0e9,
                dvfs_index,
            });
        }

        self.thermal.step(&out.core_powers, dt);
        self.time += dt;

        // Next interval's contention from this interval's traffic, lightly
        // smoothed so the factor does not chatter interval to interval.
        let memory_demand = total_dram_bytes / dt.value();
        if let Some(bw) = self.config.memory_bandwidth {
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
        out.instructions = total_instructions;
        out.memory_demand = memory_demand;
        out.memory_contention = contention;
    }

    /// [`Chip::step_pic_into`], kept for callers that hold a pool: see
    /// [`Chip::step_into_on`].
    pub fn step_pic_into_on(&mut self, out: &mut ChipSnapshot, pool: &Pool) {
        self.step_into_on(self.config.pic_interval, out, pool);
    }

    /// [`Chip::step_into`]. The pool is not used: fanning island segments
    /// out to workers never beat the serial lane pass, even on the
    /// 1024-core chip, so the sharded step is the serial one and its
    /// trajectory is the serial trajectory at any worker count.
    pub fn step_into_on(&mut self, dt: Seconds, out: &mut ChipSnapshot, _pool: &Pool) {
        self.step_into(dt, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_workloads::{Mix, WorkloadAssignment};

    fn chip() -> Chip {
        Chip::new(
            CmpConfig::paper_default(),
            &WorkloadAssignment::paper_mix(Mix::Mix1, 8),
        )
    }

    #[test]
    fn boots_at_top_operating_point() {
        let c = chip();
        for i in 0..4 {
            assert_eq!(c.island_dvfs(IslandId(i)), 7);
        }
    }

    #[test]
    fn max_power_is_plausible_for_8_cores() {
        let c = chip();
        let p = c.max_power().value();
        assert!(p > 80.0 && p < 110.0, "8-core max power {p} W");
    }

    #[test]
    fn snapshot_totals_are_consistent() {
        let mut c = chip();
        let s = c.step_pic();
        let island_sum: Watts = s.islands.iter().map(|i| i.power).sum();
        assert!((island_sum.value() - s.chip_power.value()).abs() < 1e-9);
        let core_sum: Watts = s.core_powers.iter().copied().sum();
        assert!((core_sum.value() - s.chip_power.value()).abs() < 1e-9);
        let instr_sum: f64 = s.islands.iter().map(|i| i.instructions).sum();
        assert!((instr_sum - s.instructions).abs() < 1.0);
    }

    #[test]
    fn full_speed_power_stays_below_max_basis() {
        let mut c = chip();
        for _ in 0..200 {
            let s = c.step_pic();
            assert!(
                s.chip_power <= c.max_power(),
                "power {} exceeded basis {}",
                s.chip_power,
                c.max_power()
            );
        }
    }

    #[test]
    fn lowering_dvfs_reduces_power_and_throughput() {
        let mut hi = chip();
        let mut lo = chip();
        for i in 0..4 {
            lo.set_island_dvfs(IslandId(i), 0);
        }
        // Skip the transition interval, then compare steady state.
        lo.step_pic();
        hi.step_pic();
        let mut p_hi = 0.0;
        let mut p_lo = 0.0;
        let mut i_hi = 0.0;
        let mut i_lo = 0.0;
        for _ in 0..50 {
            let sh = hi.step_pic();
            let sl = lo.step_pic();
            p_hi += sh.chip_power.value();
            p_lo += sl.chip_power.value();
            i_hi += sh.instructions;
            i_lo += sl.instructions;
        }
        assert!(p_lo < 0.5 * p_hi, "low V/F power {p_lo} vs {p_hi}");
        assert!(i_lo < i_hi);
        // But throughput falls less than power: the energy argument for DVFS.
        assert!(i_lo / i_hi > p_lo / p_hi);
    }

    #[test]
    fn dvfs_transition_freezes_cost_instructions() {
        let mut steady = chip();
        let mut switching = chip();
        // Warm both up identically.
        steady.step_pic();
        switching.step_pic();
        let mut i_steady = 0.0;
        let mut i_switch = 0.0;
        for k in 0..50 {
            i_steady += steady.step_pic().instructions;
            // Toggle between the top two points every interval.
            switching.set_island_dvfs(IslandId(0), 6 + (k % 2));
            i_switch += switching.step_pic().instructions;
        }
        assert!(i_switch < i_steady, "churn must cost throughput");
        assert_eq!(switching.island_transitions(IslandId(0)), 50);
    }

    #[test]
    fn temperatures_rise_under_load() {
        let mut c = chip();
        let ambient = c.temperatures_deg()[0];
        for _ in 0..400 {
            c.step_pic();
        }
        for &t in c.temperatures_deg() {
            assert!(t > ambient, "core should heat up: {t} °C");
        }
    }

    #[test]
    fn leaky_variation_increases_power() {
        let cfg = CmpConfig::paper_default();
        let asg = WorkloadAssignment::paper_mix(Mix::Mix1, 8);
        let mut uniform = Chip::new(cfg.clone(), &asg);
        let mut leaky = Chip::with_variation(cfg, &asg, VariationMap::paper_four_island());
        let pu: f64 = (0..20).map(|_| uniform.step_pic().chip_power.value()).sum();
        let pl: f64 = (0..20).map(|_| leaky.step_pic().chip_power.value()).sum();
        assert!(pl > pu, "leaky chip {pl} must draw more than uniform {pu}");
        assert!(leaky.max_power() > uniform.max_power());
    }

    #[test]
    #[should_panic(expected = "core count must match")]
    fn mismatched_assignment_rejected() {
        Chip::new(
            CmpConfig::with_topology(16, 4),
            &WorkloadAssignment::paper_mix(Mix::Mix1, 8),
        );
    }

    #[test]
    fn memory_contention_is_idle_on_a_light_8_core_chip() {
        let mut c = chip();
        for _ in 0..50 {
            c.step_pic();
        }
        assert!(
            c.memory_contention() < 1.05,
            "8 Mix-1 cores should not saturate 6.4 GB/s: {}",
            c.memory_contention()
        );
    }

    #[test]
    fn memory_contention_binds_for_an_all_memory_chip() {
        // 32 cores of native canneal at full speed overwhelm the
        // controller; the contention factor must rise and throughput must
        // fall relative to an infinite-bandwidth twin.
        use cpm_workloads::{parsec, InputSet, WorkloadAssignment};
        let profile = parsec::canneal().with_input(InputSet::Native);
        let assignment = WorkloadAssignment::new(vec![profile; 32], 4);
        let cfg = CmpConfig::with_topology(32, 4);
        let mut ideal_cfg = cfg.clone();
        ideal_cfg.memory_bandwidth = None;
        let mut real = Chip::new(cfg, &assignment);
        let mut ideal = Chip::new(ideal_cfg, &assignment);
        let mut i_real = 0.0;
        let mut i_ideal = 0.0;
        for _ in 0..60 {
            i_real += real.step_pic().instructions;
            i_ideal += ideal.step_pic().instructions;
        }
        assert!(
            real.memory_contention() > 1.1,
            "contention factor {}",
            real.memory_contention()
        );
        assert!(
            i_real < 0.95 * i_ideal,
            "bandwidth ceiling must cost throughput"
        );
    }

    #[test]
    fn snapshot_reports_memory_demand() {
        let mut c = chip();
        let s = c.step_pic();
        assert!(s.memory_demand > 0.0);
        assert_eq!(
            s.memory_contention, 1.0,
            "first interval starts uncontended"
        );
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let mut a = chip();
        let mut b = chip();
        for _ in 0..30 {
            assert_eq!(a.step_pic(), b.step_pic());
        }
    }

    /// The chip-wide lane pass at island widths whose chunks straddle
    /// islands and leave a padded remainder (core counts that are and are
    /// not multiples of the lane width), under DVFS moves every few steps
    /// and the four-island variation map, so one chunk mixes operating
    /// points, freezes and leakage multipliers. `Chip::step_pic_into` must
    /// agree bit for bit with a per-island `CoreBank::step_island` walk
    /// and with the scalar `CoreModel` oracle.
    #[test]
    fn lane_pass_matches_island_walk_and_scalar_oracle_at_any_width() {
        use crate::core_model::tests::CoreModel;
        use crate::soa::CoreBank;
        use cpm_workloads::{parsec, BenchmarkProfile};

        let islands = 4;
        for width in [1, 2, 3, 4, 5, 8, 64] {
            let n = width * islands;
            let cfg = CmpConfig::with_topology(n, width);
            let profiles: Vec<BenchmarkProfile> =
                parsec::all().into_iter().cycle().take(n).collect();
            let variation = VariationMap::paper_four_island();
            let asg = WorkloadAssignment::new(profiles.clone(), width);
            let mut chip = Chip::with_variation(cfg.clone(), &asg, variation.clone());
            let mut bank = CoreBank::new(width);
            let mut walk_islands = IslandBank::new(islands, width, cfg.dvfs.len() - 1);
            let mut scalars = Vec::new();
            for (c, p) in profiles.into_iter().enumerate() {
                bank.push(p.clone(), cfg.seed, c as u64);
                scalars.push(CoreModel::new(p, cfg.seed, c as u64));
            }
            let dt = cfg.pic_interval;
            let mut snap = ChipSnapshot::empty();
            for step in 0..30 {
                for i in 0..islands {
                    if (step + i) % 3 == 0 {
                        let idx = (step * 5 + i * 3) % cfg.dvfs.len();
                        chip.set_island_dvfs(IslandId(i), idx);
                        walk_islands.set_dvfs_index(i, idx, &cfg.dvfs);
                    }
                }
                let temps = chip.temperatures_deg().to_vec();
                let contention = chip.memory_contention();
                chip.step_pic_into(&mut snap);
                bank.advance_phases(dt);
                let mut dram = 0.0;
                for i in 0..islands {
                    let at = format!("width {width}, step {step}, island {i}");
                    let op = cfg.dvfs.point(walk_islands.dvfs_index(i));
                    let frozen = walk_islands.take_freeze(i, &cfg.dvfs, dt);
                    let leak = variation.multiplier(IslandId(i));
                    let terms = cfg.power.island_terms(op);
                    let walk = bank.step_island(
                        i,
                        op.frequency,
                        dt,
                        frozen,
                        contention,
                        &cfg.power,
                        terms,
                        leak,
                        &temps,
                    );
                    let mut oracle = crate::soa::SegmentTotals::default();
                    for c in i * width..(i + 1) * width {
                        let stats = scalars[c].step_contended(op.frequency, dt, frozen, contention);
                        let p = cfg.power.total_power_with_terms(
                            terms,
                            stats.activity,
                            Celsius::new(temps[c]),
                            leak,
                        );
                        let bits = |w: Watts| w.value().to_bits();
                        assert_eq!(bits(snap.core_powers[c]), bits(p), "core {c}, {at}");
                        let walk_power = bank.segment(i).core_powers()[c - i * width];
                        assert_eq!(bits(walk_power), bits(p), "core {c}, {at}");
                        oracle.power += p;
                        oracle.util_sum += stats.utilization.value();
                        oracle.instructions += stats.instructions;
                        dram += stats.dram_bytes;
                    }
                    assert_eq!(walk, oracle, "{at}");
                    let s = &snap.islands[i];
                    assert_eq!(
                        s.power.value().to_bits(),
                        oracle.power.value().to_bits(),
                        "{at}"
                    );
                    assert_eq!(
                        s.instructions.to_bits(),
                        oracle.instructions.to_bits(),
                        "{at}"
                    );
                    let util = Ratio::new(oracle.util_sum / width as f64);
                    assert_eq!(
                        s.utilization.value().to_bits(),
                        util.value().to_bits(),
                        "{at}"
                    );
                }
                assert_eq!(
                    snap.memory_demand.to_bits(),
                    (dram / dt.value()).to_bits(),
                    "width {width}, step {step}"
                );
            }
            for (c, scalar) in scalars.iter().enumerate() {
                let core = chip.core(CoreId(c));
                assert_eq!(core.total_instructions(), scalar.total_instructions());
                assert_eq!(core.total_time(), scalar.total_time());
            }
        }
    }
}
