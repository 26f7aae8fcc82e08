//! Structure-of-arrays chip state: the kilocore-scaling layout.
//!
//! One core and one island are the right unit of *meaning*, but a
//! 1024-core step over a thousand per-core structs walks scattered
//! memory. The banks here keep every hot scalar in its own contiguous
//! `Vec<f64>` so [`crate::chip::Chip`] steps an island as one tight loop
//! over a segment of parallel arrays, fusing the CPI model of
//! [`crate::core_model`] with the per-island V²f/leakage power terms.
//!
//! A [`CoreBank`] owns the chip's phase streams — one [`PhaseBank`] in
//! core order plus the chip-wide columns of the interval's phase samples —
//! and a list of per-island [`CoreSegment`]s. Each segment owns its
//! island's profile constants, lifetime accounting and the per-core
//! power/DRAM scratch the chip folds afterwards; it reads its island's
//! slice of the phase samples the way it reads its slice of the die
//! temperatures. So the whole chip's phases advance in one pass (on the
//! paper's 2-core islands a per-segment pass never fills a lane chunk),
//! while the chip stepper can still move whole segments onto pool workers
//! and restore them in island order — the sharded step reduces in exactly
//! the serial order.
//!
//! Inside a segment the step runs in `LANES`-wide chunks: an elementwise
//! CPI pass, a power pass through the lane kernels of `cpm-power`, and a
//! serial fold, with a scalar tail for the remainder. Chunking never
//! reassociates: the elementwise passes evaluate token-identical
//! expressions per lane, and every accumulator (island totals, the
//! chip-order DRAM sum) still receives its additions in the original core
//! order. So a [`CoreBank`] stepped island-by-island is bit-identical to
//! the same cores stepped one at a time through the scalar CPI walk, and
//! an [`IslandBank`] has exactly the actuation semantics of one scalar
//! island; the scalar oracles for both are test-only items of the
//! `core_model` and `island` modules. [`CoreView`] / [`IslandView`]
//! expose the read accessors of one core or island over the banks.

use cpm_power::dvfs::DvfsTable;
use cpm_power::{CorePowerModel, IslandPowerTerms};
use cpm_units::{Celsius, CoreId, Hertz, IslandId, Ratio, Seconds, Watts};
use cpm_workloads::{BenchmarkProfile, PhaseBank};
use std::ops::Range;

/// Chunk width of the segment step. Eight `f64`s span two AVX2 registers
/// (or four NEON ones); the pass bodies are elementwise over arrays of
/// this size, which is the shape LLVM's autovectorizer recognizes.
const LANES: usize = 8;

/// Island-level aggregates of one [`CoreBank::step_island`] call — the
/// quantities `Chip::step_into` folds into an `IslandSnapshot`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentTotals {
    /// Σ core power over the segment.
    pub power: Watts,
    /// Σ per-core utilization (callers divide by the core count).
    pub util_sum: f64,
    /// Σ instructions retired.
    pub instructions: f64,
}

/// The island-constant inputs of one segment step, hoisted once per
/// island. All are pure functions of island-constant arguments, so
/// computing them up front changes nothing bit-wise.
#[derive(Clone, Copy)]
struct StepCtx {
    cycles: f64,
    avail_frac: f64,
    f_val: f64,
    dt_val: f64,
    dram_latency_mult: f64,
    terms: IslandPowerTerms,
    leak_mult: f64,
}

/// One interval's phase samples for a run of cores, in core order: the
/// scale columns [`CoreBank::advance_phases`] fills, borrowed whole or as
/// one island's slice.
#[derive(Clone, Copy)]
pub(crate) struct PhaseScales<'a> {
    pub(crate) cpi: &'a [f64],
    pub(crate) mem: &'a [f64],
    pub(crate) activity: &'a [f64],
}

impl<'a> PhaseScales<'a> {
    /// The samples of the cores in `range`.
    pub(crate) fn slice(self, range: Range<usize>) -> Self {
        Self {
            cpi: &self.cpi[range.clone()],
            mem: &self.mem[range.clone()],
            activity: &self.activity[range],
        }
    }
}

/// One island's cores in structure-of-arrays form.
///
/// Each index holds the state of one scalar core apart from its phase
/// sequence, which lives in the owning [`CoreBank`]: the profile's hot
/// scalars, the (possibly calibrated) miss rates and lifetime accounting.
/// `core_powers` / `dram_bytes` are per-core step outputs the chip folds
/// in core order afterwards.
///
/// The segment owns everything its step writes, and reads its phase
/// samples and temperatures as borrowed slices, so the chip stepper can
/// move it onto a pool worker (`std::mem::take` + restore) without any
/// shared mutable state.
#[derive(Debug, Clone, Default)]
pub struct CoreSegment {
    profiles: Vec<BenchmarkProfile>,
    base_cpi: Vec<f64>,
    activity: Vec<f64>,
    /// The hoisted miss-rate factors of `core_model::miss_terms`:
    /// `l1_mpki/1000·L2_HIT_CYCLES`, `l2_mpki/1000·DRAM_LATENCY_S`, and
    /// `l2_mpki/1000·64` — per-core constants, folded at push time so the
    /// CPI pass is multiply-add with a single reciprocal.
    l1_term: Vec<f64>,
    l2_dram: Vec<f64>,
    l2_bytes: Vec<f64>,
    total_instructions: Vec<f64>,
    total_time: Vec<f64>,
    core_powers: Vec<Watts>,
    dram_bytes: Vec<f64>,
}

impl CoreSegment {
    /// Appends the core running `profile`.
    fn push(&mut self, profile: BenchmarkProfile) {
        self.base_cpi.push(profile.base_cpi);
        self.activity.push(profile.activity);
        let (l1_term, l2_dram, l2_bytes) =
            crate::core_model::miss_terms(profile.l1_mpki, profile.l2_mpki);
        self.l1_term.push(l1_term);
        self.l2_dram.push(l2_dram);
        self.l2_bytes.push(l2_bytes);
        self.total_instructions.push(0.0);
        self.total_time.push(0.0);
        self.core_powers.push(Watts::ZERO);
        self.dram_bytes.push(0.0);
        self.profiles.push(profile);
    }

    /// Number of cores in the segment.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the segment holds no cores.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Per-core power of the last [`CoreBank::step_island`], in segment-core
    /// order — the thermal model's input for this island's slice.
    pub fn core_powers(&self) -> &[Watts] {
        &self.core_powers
    }

    /// Per-core DRAM traffic of the last [`CoreBank::step_island`], in bytes.
    /// Folding these in core order reproduces the array-of-structs DRAM
    /// sum bit-for-bit (same addends, same addition order).
    pub fn dram_bytes(&self) -> &[f64] {
        &self.dram_bytes
    }

    /// Steps the segment through one interval at frequency `f`, fusing the
    /// CPI model with the power model whose island-constant `terms` the
    /// caller hoisted. `temps_deg` and `scales` are this segment's slices
    /// of the die temperatures and of the interval's phase samples, one
    /// entry per core.
    ///
    /// The loop runs in `LANES`-wide chunks of three passes — an
    /// elementwise CPI pass, the `cpm-power` lane kernels, a serial fold —
    /// with a scalar tail identical to the unchunked body. Every per-lane
    /// expression matches the scalar CPI walk token for token and every accumulator still sees its additions in
    /// core order, so results are bit-identical to the scalar walk.
    // A params struct would hide the token-for-token identity with the
    // scalar path's signature.
    #[allow(clippy::too_many_arguments)] // mirrors step_contended's params
    pub(crate) fn step(
        &mut self,
        f: Hertz,
        dt: Seconds,
        frozen: Seconds,
        dram_latency_mult: f64,
        power_model: &CorePowerModel,
        terms: IslandPowerTerms,
        leak_mult: f64,
        temps_deg: &[f64],
        scales: PhaseScales<'_>,
    ) -> SegmentTotals {
        assert!(f.value() > 0.0, "core clock must be positive");
        assert!(
            frozen.value() >= 0.0 && frozen <= dt,
            "freeze within interval"
        );
        assert!(dram_latency_mult >= 1.0, "contention can only slow memory");
        let n = self.len();
        assert_eq!(temps_deg.len(), n, "one temperature per segment core");
        assert!(
            scales.cpi.len() == n && scales.mem.len() == n && scales.activity.len() == n,
            "one phase sample per segment core"
        );
        let avail = dt - frozen;
        let ctx = StepCtx {
            cycles: f.cycles_in(avail),
            avail_frac: avail.value() / dt.value(),
            f_val: f.value(),
            dt_val: dt.value(),
            dram_latency_mult,
            terms,
            leak_mult,
        };
        let mut totals = SegmentTotals {
            power: Watts::ZERO,
            util_sum: 0.0,
            instructions: 0.0,
        };
        let mut base = 0;
        while base + LANES <= n {
            self.step_chunk(base, ctx, power_model, temps_deg, scales, &mut totals);
            base += LANES;
        }
        for i in base..n {
            self.step_one(i, ctx, power_model, temps_deg, scales, &mut totals);
        }
        totals
    }

    /// One `LANES`-wide chunk of [`CoreSegment::step`], in three passes.
    fn step_chunk(
        &mut self,
        base: usize,
        ctx: StepCtx,
        power_model: &CorePowerModel,
        temps_deg: &[f64],
        scales: PhaseScales<'_>,
        totals: &mut SegmentTotals,
    ) {
        // Pass 1 — the CPI model, elementwise over the lanes (this is the
        // pass LLVM vectorizes: mul/add/div and two clamps, no calls).
        // `Ratio::new(x).clamped().value()` is `x.clamp(0.0, 1.0)` by
        // definition, so the plain-f64 clamp is the identical operation.
        let mut instr = [0.0; LANES];
        let mut util = [0.0; LANES];
        let mut act = [0.0; LANES];
        for l in 0..LANES {
            let i = base + l;
            let mem = scales.mem[i];
            let on_chip = self.base_cpi[i] * scales.cpi[i] + self.l1_term[i] * mem;
            let dram_base = self.l2_dram[i] * mem * ctx.f_val;
            let dram = dram_base * ctx.dram_latency_mult;
            let cpi = on_chip + dram;
            let inv_cpi = 1.0 / cpi;
            let instructions = ctx.cycles * inv_cpi;
            let busy_frac = on_chip * inv_cpi;
            instr[l] = instructions;
            util[l] = (busy_frac * ctx.avail_frac).clamp(0.0, 1.0);
            act[l] = (self.activity[i] * scales.activity[i] * busy_frac * ctx.avail_frac)
                .clamp(0.0, 1.0);
            self.total_instructions[i] += instructions;
            self.total_time[i] += ctx.dt_val;
            self.dram_bytes[i] = instructions * self.l2_bytes[i] * mem;
        }
        // Pass 2 — per-lane power through the cpm-power lane kernels
        // (vector dynamic pass, scalar-libm leakage pass; each lane
        // bit-identical to the scalar power call by that crate's tests).
        let temps: &[f64; LANES] = temps_deg[base..base + LANES]
            .try_into()
            .expect("chunk is LANES wide");
        let mut power = [Watts::ZERO; LANES];
        power_model.total_power_with_terms_lanes(ctx.terms, &act, temps, ctx.leak_mult, &mut power);
        // Pass 3 — serial fold in core order: the island accumulators
        // receive exactly the additions the unchunked loop performed, in
        // the same order; no reassociation anywhere.
        self.core_powers[base..base + LANES].copy_from_slice(&power);
        for l in 0..LANES {
            totals.power += power[l];
            totals.util_sum += util[l];
            totals.instructions += instr[l];
        }
    }

    /// The scalar tail of [`CoreSegment::step`]: the original unchunked
    /// per-core body, for the `len % LANES` remainder (and, degenerately,
    /// whole sub-lane segments).
    fn step_one(
        &mut self,
        i: usize,
        ctx: StepCtx,
        power_model: &CorePowerModel,
        temps_deg: &[f64],
        scales: PhaseScales<'_>,
        totals: &mut SegmentTotals,
    ) {
        let mem = scales.mem[i];
        let on_chip = self.base_cpi[i] * scales.cpi[i] + self.l1_term[i] * mem;
        let dram_base = self.l2_dram[i] * mem * ctx.f_val;
        let dram = dram_base * ctx.dram_latency_mult;
        let cpi = on_chip + dram;
        let inv_cpi = 1.0 / cpi;
        let instructions = ctx.cycles * inv_cpi;
        let busy_frac = on_chip * inv_cpi;
        let utilization = Ratio::new(busy_frac * ctx.avail_frac).clamped();
        let activity =
            Ratio::new(self.activity[i] * scales.activity[i] * busy_frac * ctx.avail_frac)
                .clamped();
        self.total_instructions[i] += instructions;
        self.total_time[i] += ctx.dt_val;
        self.dram_bytes[i] = instructions * self.l2_bytes[i] * mem;
        let p = power_model.total_power_with_terms(
            ctx.terms,
            activity,
            Celsius::new(temps_deg[i]),
            ctx.leak_mult,
        );
        self.core_powers[i] = p;
        totals.power += p;
        totals.util_sum += utilization.value();
        totals.instructions += instructions;
    }
}

/// All cores of a chip: one phase bank in core order, and the per-island
/// segments.
///
/// Cores pushed in chip order land in `width`-sized [`CoreSegment`]s, so
/// segment `i` is exactly island `i`'s contiguous core range and the chip
/// stepper can hand whole segments to pool workers. Their phase sequences
/// land in one chip-wide [`PhaseBank`], whose samples fill the three
/// `*_scale` columns in core order; each segment step reads its island's
/// slice of them.
#[derive(Debug, Clone)]
pub struct CoreBank {
    width: usize,
    segments: Vec<CoreSegment>,
    phases: PhaseBank,
    cpi_scale: Vec<f64>,
    mem_scale: Vec<f64>,
    activity_scale: Vec<f64>,
}

impl CoreBank {
    /// An empty bank whose segments hold `width` cores each (the island
    /// width).
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "an island needs at least one core");
        Self {
            width,
            segments: Vec::new(),
            phases: PhaseBank::new(),
            cpi_scale: Vec::new(),
            mem_scale: Vec::new(),
            activity_scale: Vec::new(),
        }
    }

    /// Appends the core running `profile`, with phase randomness derived
    /// from `(seed, stream)`, opening a new segment at every island
    /// boundary.
    pub fn push(&mut self, profile: BenchmarkProfile, seed: u64, stream: u64) {
        if self.len() % self.width == 0 {
            self.segments.push(CoreSegment::default());
        }
        self.phases.push(&profile, seed, stream);
        self.cpi_scale.push(1.0);
        self.mem_scale.push(1.0);
        self.activity_scale.push(1.0);
        let seg = self
            .segments
            .last_mut()
            .expect("push opened a segment at the island boundary");
        seg.push(profile);
    }

    /// Number of cores in the bank.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether the bank holds no cores.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Cores per segment (the island width).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Island `i`'s segment.
    pub fn segment(&self, i: usize) -> &CoreSegment {
        &self.segments[i]
    }

    /// Mutable access to the segments, for the sharded chip step's
    /// take/restore discipline.
    pub(crate) fn segments_mut(&mut self) -> &mut [CoreSegment] {
        &mut self.segments
    }

    /// The phase samples of the last [`CoreBank::advance_phases`], chip
    /// core order.
    pub(crate) fn phase_scales(&self) -> PhaseScales<'_> {
        PhaseScales {
            cpi: &self.cpi_scale,
            mem: &self.mem_scale,
            activity: &self.activity_scale,
        }
    }

    /// Advances every core's phase sequence by `dt` in one pass over the
    /// chip, leaving the interval's samples in the scale columns. Per-core
    /// phase streams are independent, so this draws exactly the numbers
    /// the per-core walk would.
    pub fn advance_phases(&mut self, dt: Seconds) {
        self.phases.advance_into(
            dt,
            &mut self.cpi_scale,
            &mut self.mem_scale,
            &mut self.activity_scale,
        );
    }

    /// Steps island `island`'s segment through one interval at frequency
    /// `f`, fusing the CPI model with the power model whose island-constant
    /// `terms` the caller hoisted. `temps_deg` is the whole chip's
    /// temperature array; the island's slices of it and of the phase
    /// samples of the last [`CoreBank::advance_phases`] are carved out here.
    #[allow(clippy::too_many_arguments)] // mirrors step_contended's params
    pub fn step_island(
        &mut self,
        island: usize,
        f: Hertz,
        dt: Seconds,
        frozen: Seconds,
        dram_latency_mult: f64,
        power_model: &CorePowerModel,
        terms: IslandPowerTerms,
        leak_mult: f64,
        temps_deg: &[f64],
    ) -> SegmentTotals {
        let lo = island * self.width;
        let seg = &mut self.segments[island];
        let cores = lo..lo + seg.len();
        let scales = PhaseScales {
            cpi: &self.cpi_scale,
            mem: &self.mem_scale,
            activity: &self.activity_scale,
        };
        seg.step(
            f,
            dt,
            frozen,
            dram_latency_mult,
            power_model,
            terms,
            leak_mult,
            &temps_deg[cores.clone()],
            scales.slice(cores),
        )
    }

    /// The segment and in-segment index of chip core `index`.
    fn locate(&self, index: usize) -> (&CoreSegment, usize) {
        (&self.segments[index / self.width], index % self.width)
    }
}

/// All islands of a chip in structure-of-arrays form: islands own
/// contiguous, equal-width core segments, so per-island core lists reduce
/// to one `width` scalar and [`IslandBank::core_range`].
#[derive(Debug, Clone)]
pub struct IslandBank {
    width: usize,
    dvfs_index: Vec<usize>,
    /// Set when the operating point changed since the last interval — the
    /// next interval pays the freeze cost.
    pending_transition: Vec<bool>,
    transitions: Vec<u64>,
}

impl IslandBank {
    /// Creates `islands` islands of `width` cores each, all starting at
    /// `dvfs_index`.
    pub fn new(islands: usize, width: usize, dvfs_index: usize) -> Self {
        assert!(width > 0, "an island needs at least one core");
        Self {
            width,
            dvfs_index: vec![dvfs_index; islands],
            pending_transition: vec![false; islands],
            transitions: vec![0; islands],
        }
    }

    /// Number of islands.
    pub fn len(&self) -> usize {
        self.dvfs_index.len()
    }

    /// Whether the bank holds no islands.
    pub fn is_empty(&self) -> bool {
        self.dvfs_index.is_empty()
    }

    /// Cores per island.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The contiguous core-index segment of island `i`.
    pub fn core_range(&self, i: usize) -> Range<usize> {
        i * self.width..(i + 1) * self.width
    }

    /// Current operating-point index of island `i`.
    pub fn dvfs_index(&self, i: usize) -> usize {
        self.dvfs_index[i]
    }

    /// Requests a new operating point for island `i`: a real change
    /// schedules a freeze for the next interval; requesting the current
    /// point is free.
    pub fn set_dvfs_index(&mut self, i: usize, idx: usize, table: &DvfsTable) {
        assert!(idx < table.len(), "operating point {idx} out of range");
        if idx != self.dvfs_index[i] {
            self.dvfs_index[i] = idx;
            self.pending_transition[i] = true;
            self.transitions[i] += 1;
        }
    }

    /// Consumes island `i`'s pending transition, returning the freeze time
    /// to charge against an interval of length `dt`.
    pub fn take_freeze(&mut self, i: usize, table: &DvfsTable, dt: Seconds) -> Seconds {
        if self.pending_transition[i] {
            self.pending_transition[i] = false;
            dt * table.transition_overhead()
        } else {
            Seconds::ZERO
        }
    }

    /// Total operating-point changes by island `i` so far.
    pub fn transitions(&self, i: usize) -> u64 {
        self.transitions[i]
    }
}

/// Read view of one core inside a [`CoreBank`], backed by the parallel
/// arrays.
#[derive(Debug, Clone, Copy)]
pub struct CoreView<'a> {
    bank: &'a CoreBank,
    index: usize,
}

impl<'a> CoreView<'a> {
    /// A view of core `core` in `bank`.
    pub fn new(bank: &'a CoreBank, core: CoreId) -> Self {
        Self {
            bank,
            index: core.index(),
        }
    }

    /// The benchmark this core runs.
    pub fn profile(&self) -> &'a BenchmarkProfile {
        let (seg, i) = self.bank.locate(self.index);
        &seg.profiles[i]
    }

    /// Cumulative instructions retired.
    pub fn total_instructions(&self) -> f64 {
        let (seg, i) = self.bank.locate(self.index);
        seg.total_instructions[i]
    }

    /// Cumulative simulated time.
    pub fn total_time(&self) -> Seconds {
        let (seg, i) = self.bank.locate(self.index);
        Seconds::new(seg.total_time[i])
    }
}

/// Read view of one island inside an [`IslandBank`], backed by the
/// parallel arrays.
#[derive(Debug, Clone, Copy)]
pub struct IslandView<'a> {
    bank: &'a IslandBank,
    index: usize,
}

impl<'a> IslandView<'a> {
    /// A view of island `island` in `bank`.
    pub fn new(bank: &'a IslandBank, island: IslandId) -> Self {
        Self {
            bank,
            index: island.index(),
        }
    }

    /// The island's id.
    pub fn id(&self) -> IslandId {
        IslandId(self.index)
    }

    /// The cores in this island, as a contiguous index range.
    pub fn cores(&self) -> Range<usize> {
        self.bank.core_range(self.index)
    }

    /// Current operating-point index.
    pub fn dvfs_index(&self) -> usize {
        self.bank.dvfs_index(self.index)
    }

    /// Total operating-point changes so far.
    pub fn transitions(&self) -> u64 {
        self.bank.transitions(self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_model::tests::CoreModel;
    use crate::island::IslandState;
    use cpm_workloads::parsec;

    /// The heart of the SoA contract, parameterized over island width: a
    /// bank whose phases advance in one chip-wide pass and whose segments
    /// then step island-at-a-time is bit-identical to the same cores
    /// stepped one `CoreModel` at a time, including lifetime accounting
    /// and the chip-order DRAM-byte sum.
    fn assert_bank_matches_scalars(width: usize, islands: usize, steps: usize) {
        let n = width * islands;
        let profiles: Vec<BenchmarkProfile> = parsec::all().into_iter().cycle().take(n).collect();
        let seed = 0xC0FFEE;
        let mut scalars: Vec<CoreModel> = profiles
            .iter()
            .enumerate()
            .map(|(c, p)| CoreModel::new(p.clone(), seed, c as u64))
            .collect();
        let mut bank = CoreBank::new(width);
        for (c, p) in profiles.iter().enumerate() {
            bank.push(p.clone(), seed, c as u64);
        }
        let power_model = CorePowerModel::paper_default();
        let table = DvfsTable::pentium_m();
        let dt = Seconds::from_ms(0.5);
        let temps: Vec<f64> = (0..n).map(|i| 45.0 + i as f64 * 0.5).collect();
        for step in 0..steps {
            // Wander the knobs: per-island operating points, occasional
            // freezes, drifting contention.
            let contention = 1.0 + (step % 5) as f64 * 0.3;
            bank.advance_phases(dt);
            let mut bank_dram = 0.0;
            let mut scalar_dram = 0.0;
            for island in 0..islands {
                let op = table.point((island + step) % table.len());
                let frozen = if step % 11 == 0 {
                    dt * 0.005
                } else {
                    Seconds::ZERO
                };
                let terms = power_model.island_terms(op);
                let leak_mult = 1.0 + island as f64 * 0.1;
                let totals = bank.step_island(
                    island,
                    op.frequency,
                    dt,
                    frozen,
                    contention,
                    &power_model,
                    terms,
                    leak_mult,
                    &temps,
                );
                let seg = bank.segment(island);
                for &b in seg.dram_bytes() {
                    bank_dram += b;
                }
                let mut power = Watts::ZERO;
                let mut util_sum = 0.0;
                let mut instructions = 0.0;
                for c in island * width..(island + 1) * width {
                    let stats = scalars[c].step_contended(op.frequency, dt, frozen, contention);
                    scalar_dram += stats.dram_bytes;
                    let p = power_model.total_power_with_terms(
                        terms,
                        stats.activity,
                        Celsius::new(temps[c]),
                        leak_mult,
                    );
                    assert_eq!(
                        seg.core_powers()[c - island * width],
                        p,
                        "core {c} power, width {width}, step {step}"
                    );
                    power += p;
                    util_sum += stats.utilization.value();
                    instructions += stats.instructions;
                }
                assert_eq!(
                    totals.power, power,
                    "island {island} power, width {width}, step {step}"
                );
                assert_eq!(
                    totals.util_sum.to_bits(),
                    util_sum.to_bits(),
                    "island {island} utilization, width {width}, step {step}"
                );
                assert_eq!(
                    totals.instructions.to_bits(),
                    instructions.to_bits(),
                    "island {island} instructions, width {width}, step {step}"
                );
            }
            assert_eq!(
                bank_dram.to_bits(),
                scalar_dram.to_bits(),
                "width {width}, step {step}"
            );
        }
        for (c, scalar) in scalars.iter().enumerate() {
            let view = CoreView::new(&bank, CoreId(c));
            assert_eq!(view.total_instructions(), scalar.total_instructions());
            assert_eq!(view.total_time(), scalar.total_time());
            assert_eq!(view.profile().name, scalar.profile().name);
        }
    }

    #[test]
    fn bank_matches_scalar_core_models_bitwise() {
        assert_bank_matches_scalars(4, 4, 200);
    }

    /// Tail handling is where chunked kernels break: every width that is
    /// not a multiple of the lane width — including the 1-core degenerate
    /// segment and widths straddling one and two chunks — must still match
    /// the scalar walk bit for bit.
    #[test]
    fn bank_matches_scalars_at_non_lane_multiple_widths() {
        for width in [1, 3, 5, 7, 9, 13, 16] {
            assert_bank_matches_scalars(width, 2, 40);
        }
    }

    /// The phase pass chunks over the whole chip and the segment step over
    /// one island, so each shape here covers a different mix of full
    /// `LANES` chunks and scalar tails: 1 × 8 and 2 × 4 (the paper's
    /// chips) fill one phase chunk exactly while every segment step is a
    /// pure tail; 3 × 3 runs a phase chunk plus a tail over pure-tail
    /// segments; 64 × 2 fills whole chunks in both.
    #[test]
    fn chip_wide_bank_matches_scalars_at_chunk_and_tail_shapes() {
        for (width, islands) in [(1, 8), (2, 4), (3, 3), (64, 2)] {
            assert_bank_matches_scalars(width, islands, 60);
        }
    }

    #[test]
    fn island_bank_mirrors_island_state() {
        let table = DvfsTable::pentium_m();
        let dt = Seconds::from_ms(0.5);
        let mut bank = IslandBank::new(4, 2, 7);
        let mut scalars: Vec<IslandState> = (0..4).map(|_| IslandState::new(2, 7)).collect();
        let schedule = [3usize, 3, 7, 0, 5, 5, 7, 7, 1];
        for (k, &idx) in schedule.iter().enumerate() {
            let i = k % 4;
            bank.set_dvfs_index(i, idx, &table);
            scalars[i].set_dvfs_index(idx, &table);
            for (j, scalar) in scalars.iter().enumerate() {
                assert_eq!(bank.dvfs_index(j), scalar.dvfs_index());
                assert_eq!(bank.transitions(j), scalar.transitions());
            }
            let j = (k + 1) % 4;
            assert_eq!(
                bank.take_freeze(j, &table, dt),
                scalars[j].take_freeze(&table, dt)
            );
        }
        let view = IslandView::new(&bank, IslandId(2));
        assert_eq!(view.id(), IslandId(2));
        assert_eq!(view.cores(), 4..6);
        assert_eq!(view.dvfs_index(), bank.dvfs_index(2));
        assert_eq!(view.transitions(), bank.transitions(2));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_width_island_bank_rejected() {
        IslandBank::new(4, 0, 7);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_width_core_bank_rejected() {
        CoreBank::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn island_bank_rejects_out_of_range_point() {
        IslandBank::new(1, 2, 7).set_dvfs_index(0, 8, &DvfsTable::pentium_m());
    }

    #[test]
    #[should_panic(expected = "freeze within interval")]
    fn segment_rejects_oversized_freeze() {
        let mut bank = CoreBank::new(1);
        bank.push(parsec::x264(), 1, 0);
        let power_model = CorePowerModel::paper_default();
        let table = DvfsTable::pentium_m();
        let terms = power_model.island_terms(table.max_point());
        bank.advance_phases(Seconds::from_ms(0.5));
        bank.step_island(
            0,
            table.max_point().frequency,
            Seconds::from_ms(0.5),
            Seconds::from_ms(1.0),
            1.0,
            &power_model,
            terms,
            1.0,
            &[45.0],
        );
    }
}
