//! The full chip: cores, islands, power, and thermal state, advanced one
//! control interval at a time.

use crate::config::CmpConfig;
use crate::soa::{CoreBank, CoreView, IslandBank, IslandView};
use cpm_power::variation::VariationMap;
use cpm_runtime::Pool;
use cpm_thermal::ThermalGrid;
use cpm_units::{Celsius, CoreId, IslandId, Ratio, Seconds, Watts};
use cpm_workloads::WorkloadAssignment;
use std::sync::Arc;

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
        Self {
            config,
            cores,
            islands,
            thermal,
            variation,
            time: Seconds::ZERO,
            max_power,
            mem_contention: 1.0,
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
        out.core_powers.clear();
        out.islands.clear();
        out.islands.reserve(self.islands.len());
        let mut total_instructions = 0.0;
        let mut total_dram_bytes = 0.0;
        let contention = self.mem_contention;

        // One pass over all cores for the phase sequences (independent
        // per-core streams, so this draws exactly what the per-island walk
        // would), then one fused CPI+power pass per island segment.
        self.cores.advance_phases(dt);
        for i in 0..self.islands.len() {
            let op = self.config.dvfs.point(self.islands.dvfs_index(i));
            let frozen = self.islands.take_freeze(i, &self.config.dvfs, dt);
            let leak_mult = self.variation.multiplier(IslandId(i));
            // V²f and the leakage voltage factor are functions of the
            // operating point alone — compute them once per island, not
            // once per core (bit-identical, see `IslandPowerTerms`).
            let terms = self.config.power.island_terms(op);
            let totals = self.cores.step_island(
                i,
                op.frequency,
                dt,
                frozen,
                contention,
                &self.config.power,
                terms,
                leak_mult,
                self.thermal.temperatures_deg(),
            );
            let seg = self.cores.segment(i);
            out.core_powers.extend_from_slice(seg.core_powers());
            // Fold DRAM bytes in chip core order — the exact addition
            // order of the array-of-structs walk.
            for &b in seg.dram_bytes() {
                total_dram_bytes += b;
            }
            total_instructions += totals.instructions;
            self.push_island_snapshot(out, i, totals, dt);
        }

        self.finish_step(dt, out, total_instructions, total_dram_bytes, contention);
    }

    /// [`Chip::step_pic_into`] with the island segments sharded across
    /// `pool` (see [`Chip::step_into_on`]).
    pub fn step_pic_into_on(&mut self, out: &mut ChipSnapshot, pool: &Pool) {
        self.step_into_on(self.config.pic_interval, out, pool);
    }

    /// Advances the chip by `dt` with the per-island work sharded across
    /// `pool`, writing the observations into `out`.
    ///
    /// Each island's segment is moved onto the pool whole (phases + CPI +
    /// power for its cores), then restored and reduced in island order —
    /// the exact serial reduction order — so trajectories are
    /// byte-identical to [`Chip::step_into`] at any worker count. Per-core
    /// phase streams are independent, which is what makes the per-segment
    /// phase advance order-free.
    ///
    /// Unlike the serial path this one allocates per step (boxed pool jobs
    /// and a temperature snapshot); it exists for large chips where the
    /// parallelism pays for that overhead many times over.
    pub fn step_into_on(&mut self, dt: Seconds, out: &mut ChipSnapshot, pool: &Pool) {
        if pool.workers() <= 1 || self.islands.len() <= 1 {
            self.step_into(dt, out);
            return;
        }
        let n_islands = self.islands.len();
        let width = self.islands.width();
        out.core_powers.clear();
        out.islands.clear();
        out.islands.reserve(n_islands);
        let contention = self.mem_contention;
        // The job closure is 'static: snapshot the temperatures into a
        // shared slice and clone the (stack-only) power model.
        let temps: Arc<[f64]> = Arc::from(self.thermal.temperatures_deg());
        let power_model = self.config.power.clone();

        // Serial prologue in island order: consume freezes and hoist the
        // island-constant factors exactly as the serial walk does, then
        // move each island's segment into its job.
        let mut jobs = Vec::with_capacity(n_islands);
        for i in 0..n_islands {
            let op = self.config.dvfs.point(self.islands.dvfs_index(i));
            let frozen = self.islands.take_freeze(i, &self.config.dvfs, dt);
            let leak_mult = self.variation.multiplier(IslandId(i));
            let terms = self.config.power.island_terms(op);
            let seg = std::mem::take(&mut self.cores.segments_mut()[i]);
            jobs.push((i, seg, op.frequency, frozen, terms, leak_mult));
        }
        let results = pool.parallel_map(jobs, move |(i, mut seg, freq, frozen, terms, leak)| {
            seg.advance_phases(dt);
            let lo = i * width;
            let totals = seg.step(
                freq,
                dt,
                frozen,
                contention,
                &power_model,
                terms,
                leak,
                &temps[lo..lo + seg.len()],
            );
            (seg, totals)
        });

        // Serial epilogue in island order: restore the segments and fold
        // totals and DRAM bytes in exactly the serial reduction order.
        let mut total_instructions = 0.0;
        let mut total_dram_bytes = 0.0;
        for (i, (seg, totals)) in results.into_iter().enumerate() {
            out.core_powers.extend_from_slice(seg.core_powers());
            for &b in seg.dram_bytes() {
                total_dram_bytes += b;
            }
            self.cores.segments_mut()[i] = seg;
            total_instructions += totals.instructions;
            self.push_island_snapshot(out, i, totals, dt);
        }

        self.finish_step(dt, out, total_instructions, total_dram_bytes, contention);
    }

    /// Folds one island's [`SegmentTotals`] into its `IslandSnapshot` —
    /// shared verbatim by the serial and sharded steps so their island
    /// arithmetic cannot drift apart.
    fn push_island_snapshot(
        &self,
        out: &mut ChipSnapshot,
        i: usize,
        totals: crate::soa::SegmentTotals,
        dt: Seconds,
    ) {
        let n = self.islands.width() as f64;
        let op = self.config.dvfs.point(self.islands.dvfs_index(i));
        let utilization = Ratio::new(totals.util_sum / n);
        let f_ratio = op.frequency / self.config.dvfs.max_point().frequency;
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

    /// The shared tail of the serial and sharded steps: thermal advance,
    /// contention feedback, and snapshot bookkeeping.
    fn finish_step(
        &mut self,
        dt: Seconds,
        out: &mut ChipSnapshot,
        total_instructions: f64,
        total_dram_bytes: f64,
        contention: f64,
    ) {
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

    /// The sharding contract: a chip stepped with its islands fanned out
    /// across pool workers produces the identical trajectory — snapshots,
    /// per-core powers, temperatures, contention feedback — as the serial
    /// walk, under wandering DVFS (so transition freezes are in play).
    #[test]
    fn sharded_step_matches_serial_bitwise() {
        let cfg = CmpConfig::with_topology(32, 4);
        let asg = WorkloadAssignment::paper_mix(Mix::Mix3, 32);
        let mut serial = Chip::new(cfg.clone(), &asg);
        let mut sharded = Chip::new(cfg, &asg);
        let pool = Pool::new(4);
        let mut a = ChipSnapshot::empty();
        let mut b = ChipSnapshot::empty();
        for step in 0..60 {
            if step % 7 == 0 {
                let island = IslandId(step % 8);
                let idx = (step * 3) % 8;
                serial.set_island_dvfs(island, idx);
                sharded.set_island_dvfs(island, idx);
            }
            serial.step_pic_into(&mut a);
            sharded.step_pic_into_on(&mut b, &pool);
            assert_eq!(a, b, "step {step}");
            for (c, (x, y)) in a.core_powers.iter().zip(&b.core_powers).enumerate() {
                assert_eq!(
                    x.value().to_bits(),
                    y.value().to_bits(),
                    "core {c} power bits, step {step}"
                );
            }
        }
        assert_eq!(
            serial.memory_contention().to_bits(),
            sharded.memory_contention().to_bits()
        );
    }

    /// A single-worker pool must take the allocation-free serial path and
    /// still agree with the pooled result.
    #[test]
    fn sharded_step_on_one_worker_is_the_serial_path() {
        let mut serial = chip();
        let mut pooled = chip();
        let pool = Pool::new(1);
        let mut a = ChipSnapshot::empty();
        let mut b = ChipSnapshot::empty();
        for _ in 0..20 {
            serial.step_pic_into(&mut a);
            pooled.step_pic_into_on(&mut b, &pool);
            assert_eq!(a, b);
        }
    }
}
