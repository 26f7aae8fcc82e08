//! Structure-of-arrays chip state: the kilocore-scaling layout.
//!
//! One core and one island are the right unit of *meaning*, but a
//! 1024-core step over a thousand per-core structs walks scattered
//! memory. The banks here keep every hot scalar in its own contiguous
//! chip-wide `Vec<f64>` so [`crate::chip::Chip`] steps the whole chip as
//! one tight lane pass over parallel arrays, fusing the CPI model of
//! [`crate::core_model`] with the per-island V²f/leakage power terms.
//!
//! A [`CoreBank`] owns every per-core column in core order: the phase
//! streams (one [`PhaseBank`], whose own chunk pass fills the interval's
//! phase samples), the profile constants and hoisted miss terms, the
//! lifetime totals, and the per-core power/DRAM outputs. Island `i` is
//! the contiguous core range `i·width..(i+1)·width`; [`CoreBank::segment`]
//! is a borrowed view of that range's outputs.
//!
//! The step runs in `LANES`-wide chunks of one kernel, whatever the island
//! width: an elementwise CPI pass, a power pass through the lane kernels
//! of `cpm-power`, and a serial fold into each island's totals and the
//! chip-wide DRAM-byte sum, which the chip reads off the pass instead of
//! re-walking the DRAM column. Each lane reads its island's
//! context — `cycles`, `avail_frac`, `f_val`, `v2f`, `leak_v_term`,
//! `leak_mult` — from a per-island `IslandCtx` scratch. The kernel is
//! generic over [`cpm_power::Lanes`]: a chunk inside one island passes its
//! context as shared scalars (the kilocore chip's 64-wide islands run the
//! same code as before), a chunk spanning islands (the paper's 2-core and
//! 1-core islands) gathers it per lane. The `len % LANES` remainder runs
//! through the same kernel on a padded stack chunk that writes back only
//! its valid lanes.
//!
//! Chunking never reassociates: the elementwise passes evaluate
//! token-identical expressions per lane, and every accumulator (each
//! island's totals, the chip-order DRAM sum) still receives its additions
//! in the original core order. So a [`CoreBank`] stepped chip-wide or
//! island-by-island is bit-identical to the same cores stepped one at a
//! time through the scalar CPI walk, and an [`IslandBank`] has exactly the
//! actuation semantics of one scalar island; the scalar oracles for both
//! are test-only items of the `core_model` and `island` modules.
//! [`CoreView`] / [`IslandView`] expose the read accessors of one core or
//! island over the banks.

use cpm_power::dvfs::DvfsTable;
use cpm_power::{CorePowerModel, IslandPowerTerms, Lanes};
use cpm_units::{CoreId, Hertz, IslandId, Seconds, Watts};
use cpm_workloads::{BenchmarkProfile, PhaseBank};
use std::ops::Range;

/// Chunk width of the step. Eight `f64`s span two AVX2 registers (or four
/// NEON ones); the pass bodies are elementwise over arrays of this size,
/// which is the shape LLVM's autovectorizer recognizes.
const LANES: usize = 8;

/// Island-level aggregates of one step — the quantities `Chip::step_into`
/// folds into an `IslandSnapshot`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SegmentTotals {
    /// Σ core power over the island.
    pub power: Watts,
    /// Σ per-core utilization (callers divide by the core count).
    pub util_sum: f64,
    /// Σ instructions retired.
    pub instructions: f64,
}

/// The island-constant inputs of one step, hoisted once per island (all
/// are pure functions of island-constant arguments, so computing them up
/// front changes nothing bit-wise) — or, as `IslandCtx<[f64; LANES]>`,
/// those of each lane's island in a chunk that spans islands.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IslandCtx<T = f64> {
    cycles: T,
    avail_frac: T,
    f_val: T,
    v2f: T,
    leak_v_term: T,
    leak_mult: T,
}

impl IslandCtx {
    /// The context of an island at frequency `f` whose interval `dt`
    /// loses `frozen` to a transition, with power `terms` hoisted for its
    /// operating point and leakage multiplier `leak_mult`.
    pub(crate) fn new(
        f: Hertz,
        dt: Seconds,
        frozen: Seconds,
        terms: IslandPowerTerms,
        leak_mult: f64,
    ) -> Self {
        assert!(f.value() > 0.0, "core clock must be positive");
        assert!(
            frozen.value() >= 0.0 && frozen <= dt,
            "freeze within interval"
        );
        let avail = dt - frozen;
        Self {
            cycles: f.cycles_in(avail),
            avail_frac: avail / dt,
            f_val: f.value(),
            v2f: terms.v2f,
            leak_v_term: terms.leak_v_term,
            leak_mult,
        }
    }
}

impl IslandCtx<[f64; LANES]> {
    /// Lane `l` takes `ctx[island[l]]`.
    fn gather(ctx: &[IslandCtx], island: &[usize; LANES]) -> Self {
        let field = |get: fn(&IslandCtx) -> f64| std::array::from_fn(|l| get(&ctx[island[l]]));
        Self {
            cycles: field(|c| c.cycles),
            avail_frac: field(|c| c.avail_frac),
            f_val: field(|c| c.f_val),
            v2f: field(|c| c.v2f),
            leak_v_term: field(|c| c.leak_v_term),
            leak_mult: field(|c| c.leak_mult),
        }
    }
}

/// The `valid` entries of `col` from `base`, padded to a full chunk with
/// copies of the last one (whose results are computed and dropped).
#[inline(always)]
fn load(col: &[f64], base: usize, valid: usize) -> [f64; LANES] {
    let col = &col[base..base + valid];
    std::array::from_fn(|l| col[l.min(valid - 1)])
}

/// Borrowed view of one island's step outputs inside a [`CoreBank`].
#[derive(Debug, Clone, Copy)]
pub struct CoreSegment<'a> {
    core_powers: &'a [Watts],
    dram_bytes: &'a [f64],
}

impl<'a> CoreSegment<'a> {
    /// Per-core power of the last step, in island-core order — the
    /// thermal model's input for this island's slice.
    pub fn core_powers(&self) -> &'a [Watts] {
        self.core_powers
    }

    /// Per-core DRAM traffic of the last step, in bytes. Folding these in
    /// core order reproduces the array-of-structs DRAM sum bit-for-bit
    /// (same addends, same addition order).
    pub fn dram_bytes(&self) -> &'a [f64] {
        self.dram_bytes
    }
}

/// All cores of a chip, one column per per-core quantity in core order.
///
/// Cores pushed in chip order land in `width`-sized islands: island `i`
/// is the contiguous range `i·width..(i+1)·width` of every column. The
/// phase sequences live in one chip-wide [`PhaseBank`], whose samples
/// fill the three `*_scale` columns.
#[derive(Debug, Clone)]
pub struct CoreBank {
    width: usize,
    phases: PhaseBank,
    cpi_scale: Vec<f64>,
    mem_scale: Vec<f64>,
    activity_scale: Vec<f64>,
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

impl CoreBank {
    /// An empty bank whose islands hold `width` cores each.
    pub fn new(width: usize) -> Self {
        Self::with_capacity(width, 0)
    }

    /// An empty bank whose islands hold `width` cores each, with every
    /// column sized for `cores` pushes.
    pub(crate) fn with_capacity(width: usize, cores: usize) -> Self {
        assert!(width > 0, "an island needs at least one core");
        Self {
            width,
            phases: PhaseBank::with_capacity(cores),
            cpi_scale: Vec::with_capacity(cores),
            mem_scale: Vec::with_capacity(cores),
            activity_scale: Vec::with_capacity(cores),
            profiles: Vec::with_capacity(cores),
            base_cpi: Vec::with_capacity(cores),
            activity: Vec::with_capacity(cores),
            l1_term: Vec::with_capacity(cores),
            l2_dram: Vec::with_capacity(cores),
            l2_bytes: Vec::with_capacity(cores),
            total_instructions: Vec::with_capacity(cores),
            total_time: Vec::with_capacity(cores),
            core_powers: Vec::with_capacity(cores),
            dram_bytes: Vec::with_capacity(cores),
        }
    }

    /// Appends the core running `profile`, with phase randomness derived
    /// from `(seed, stream)`.
    pub fn push(&mut self, profile: BenchmarkProfile, seed: u64, stream: u64) {
        self.phases.push(&profile, seed, stream);
        self.cpi_scale.push(1.0);
        self.mem_scale.push(1.0);
        self.activity_scale.push(1.0);
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

    /// Number of cores in the bank.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the bank holds no cores.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Cores per island.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Island `i`'s step outputs (the last island may be short).
    pub fn segment(&self, i: usize) -> CoreSegment<'_> {
        let cores = i * self.width..((i + 1) * self.width).min(self.len());
        CoreSegment {
            core_powers: &self.core_powers[cores.clone()],
            dram_bytes: &self.dram_bytes[cores],
        }
    }

    /// Per-core power of the last step, chip core order.
    pub(crate) fn core_powers(&self) -> &[Watts] {
        &self.core_powers
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

    /// Steps island `island` through one interval at frequency `f`, fusing
    /// the CPI model with the power model whose island-constant `terms`
    /// the caller hoisted. `temps_deg` is the whole chip's temperature
    /// array; the step reads the island's slice of it and of the phase
    /// samples of the last [`CoreBank::advance_phases`].
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
        let ctx = [IslandCtx::new(f, dt, frozen, terms, leak_mult)];
        let mut totals = [SegmentTotals::default()];
        self.step_islands(
            island,
            &ctx,
            dt,
            dram_latency_mult,
            power_model,
            temps_deg,
            &mut totals,
        );
        totals[0]
    }

    /// Steps islands `first..first + ctx.len()` through one interval, one
    /// lane pass over their cores: island `first + k` runs with context
    /// `ctx[k]` and its aggregates land in `totals[k]`. `dt` and the
    /// contention factor are chip-wide. Returns the sum of the stepped
    /// cores' DRAM bytes, added in core order.
    ///
    /// Every per-lane expression matches the scalar CPI walk token for
    /// token and every accumulator sees its additions in core order, so
    /// results are bit-identical to the scalar walk at any island width.
    #[allow(clippy::too_many_arguments)] // step_island's params, per island
    pub(crate) fn step_islands(
        &mut self,
        first: usize,
        ctx: &[IslandCtx],
        dt: Seconds,
        dram_latency_mult: f64,
        power_model: &CorePowerModel,
        temps_deg: &[f64],
        totals: &mut [SegmentTotals],
    ) -> f64 {
        assert!(dram_latency_mult >= 1.0, "contention can only slow memory");
        assert_eq!(temps_deg.len(), self.len(), "one temperature per core");
        assert_eq!(ctx.len(), totals.len(), "one total per island context");
        totals.fill(SegmentTotals::default());
        let start = first * self.width;
        let end = ((first + ctx.len()) * self.width).min(self.len());
        let step = Step {
            ctx,
            dt_val: dt.value(),
            dram_latency_mult,
            power_model,
            temps_deg,
        };
        // The context index of the last core stepped, and the first core
        // of the island after it.
        let mut cursor = (0, start + self.width);
        let mut dram = 0.0;
        let mut base = start;
        while base + LANES <= end {
            self.step_chunk(base, LANES, &step, &mut cursor, totals, &mut dram);
            base += LANES;
        }
        if base < end {
            self.step_chunk(base, end - base, &step, &mut cursor, totals, &mut dram);
        }
        dram
    }

    /// One chunk of [`CoreBank::step_islands`]: the `valid ≤ LANES` cores
    /// from `base`, each lane in its island's context.
    #[inline(always)]
    fn step_chunk(
        &mut self,
        base: usize,
        valid: usize,
        step: &Step<'_>,
        cursor: &mut (usize, usize),
        totals: &mut [SegmentTotals],
        dram: &mut f64,
    ) {
        // Each lane's island context index. Lane 0 may open the next
        // island; a chunk that ends inside that island takes its context
        // as shared scalars, any other walks the island edges lane by lane
        // (padded lanes keep lane 0's island, whose results are dropped).
        if base == cursor.1 {
            cursor.0 += 1;
            cursor.1 += self.width;
        }
        let mut island = [cursor.0; LANES];
        if base + valid <= cursor.1 {
            self.step_lanes(base, valid, step.ctx[cursor.0], &island, step, totals, dram);
        } else {
            for (l, slot) in island.iter_mut().enumerate().take(valid).skip(1) {
                if base + l == cursor.1 {
                    cursor.0 += 1;
                    cursor.1 += self.width;
                }
                *slot = cursor.0;
            }
            let cx = IslandCtx::gather(step.ctx, &island);
            self.step_lanes(base, valid, cx, &island, step, totals, dram);
        }
    }

    /// The kernel of [`CoreBank::step_chunk`], in three passes over a full
    /// chunk of lanes: lane `l` runs in island context `island[l]`, whose
    /// inputs `cx` holds shared by every lane or one per lane; the lanes'
    /// DRAM bytes add onto `dram`.
    #[allow(clippy::too_many_arguments)] // step_chunk's params, split context
    #[inline(always)]
    fn step_lanes<T: Lanes<LANES>>(
        &mut self,
        base: usize,
        valid: usize,
        cx: IslandCtx<T>,
        island: &[usize; LANES],
        step: &Step<'_>,
        totals: &mut [SegmentTotals],
        dram: &mut f64,
    ) {
        let mem = load(&self.mem_scale, base, valid);
        let cpi_scale = load(&self.cpi_scale, base, valid);
        let act_scale = load(&self.activity_scale, base, valid);
        let base_cpi = load(&self.base_cpi, base, valid);
        let activity = load(&self.activity, base, valid);
        let l1_term = load(&self.l1_term, base, valid);
        let l2_dram = load(&self.l2_dram, base, valid);
        let l2_bytes = load(&self.l2_bytes, base, valid);
        let temps = load(step.temps_deg, base, valid);
        // Pass 1 — the CPI model, elementwise over the lanes (this is the
        // pass LLVM vectorizes: mul/add/div and two clamps, no calls).
        // `Ratio::new(x).clamped().value()` is `x.clamp(0.0, 1.0)` by
        // definition, so the plain-f64 clamp is the identical operation.
        let mut instr = [0.0; LANES];
        let mut util = [0.0; LANES];
        let mut act = [0.0; LANES];
        let mut dram_bytes = [0.0; LANES];
        for l in 0..LANES {
            let on_chip = base_cpi[l] * cpi_scale[l] + l1_term[l] * mem[l];
            let dram_base = l2_dram[l] * mem[l] * cx.f_val.lane(l);
            let dram = dram_base * step.dram_latency_mult;
            let cpi = on_chip + dram;
            let inv_cpi = 1.0 / cpi;
            let instructions = cx.cycles.lane(l) * inv_cpi;
            let busy_frac = on_chip * inv_cpi;
            instr[l] = instructions;
            util[l] = (busy_frac * cx.avail_frac.lane(l)).clamp(0.0, 1.0);
            act[l] =
                (activity[l] * act_scale[l] * busy_frac * cx.avail_frac.lane(l)).clamp(0.0, 1.0);
            dram_bytes[l] = instructions * l2_bytes[l] * mem[l];
        }
        // Pass 2 — per-lane power through the cpm-power lane kernels
        // (each lane bit-identical to the scalar power call by that
        // crate's tests).
        let mut power = [Watts::ZERO; LANES];
        step.power_model.total_power_with_terms_lanes(
            cx.v2f,
            cx.leak_v_term,
            &act,
            &temps,
            cx.leak_mult,
            &mut power,
        );
        // Pass 3 — write back the valid lanes, and fold them serially in
        // core order: each island's accumulators and the chip-wide DRAM
        // sum receive exactly the additions the scalar walk performed, in
        // the same order.
        let cores = base..base + valid;
        for (t, &x) in self.total_instructions[cores.clone()]
            .iter_mut()
            .zip(&instr)
        {
            *t += x;
        }
        for t in &mut self.total_time[cores.clone()] {
            *t += step.dt_val;
        }
        self.dram_bytes[cores.clone()].copy_from_slice(&dram_bytes[..valid]);
        self.core_powers[cores].copy_from_slice(&power[..valid]);
        let mut k = island[0];
        let mut acc = totals[k];
        let mut dram_acc = *dram;
        for l in 0..valid {
            if island[l] != k {
                totals[k] = acc;
                k = island[l];
                acc = totals[k];
            }
            acc.power += power[l];
            acc.util_sum += util[l];
            acc.instructions += instr[l];
            dram_acc += dram_bytes[l];
        }
        totals[k] = acc;
        *dram = dram_acc;
    }
}

/// The chip-wide inputs of one [`CoreBank::step_islands`] call.
struct Step<'a> {
    ctx: &'a [IslandCtx],
    dt_val: f64,
    dram_latency_mult: f64,
    power_model: &'a CorePowerModel,
    temps_deg: &'a [f64],
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
        &self.bank.profiles[self.index]
    }

    /// Cumulative instructions retired.
    pub fn total_instructions(&self) -> f64 {
        self.bank.total_instructions[self.index]
    }

    /// Cumulative simulated time.
    pub fn total_time(&self) -> Seconds {
        Seconds::new(self.bank.total_time[self.index])
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
    use cpm_units::Celsius;
    use cpm_workloads::parsec;

    /// The heart of the SoA contract, parameterized over island width: a
    /// bank whose phases advance in one chip-wide pass and whose islands
    /// then step one `step_island` call at a time is bit-identical to the
    /// same cores stepped one `CoreModel` at a time, including lifetime
    /// accounting and the chip-order DRAM-byte sum. (The chip-wide lane
    /// pass is checked against both in `chip::tests`.)
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
    /// island and widths straddling one and two chunks — must still match
    /// the scalar walk bit for bit through the padded remainder chunk.
    #[test]
    fn bank_matches_scalars_at_non_lane_multiple_widths() {
        for width in [1, 3, 5, 7, 9, 13, 16] {
            assert_bank_matches_scalars(width, 2, 40);
        }
    }

    /// The phase pass chunks over the whole chip and `step_island` over
    /// one island, so each shape here covers a different mix of full and
    /// padded `LANES` chunks: 1 × 8 and 2 × 4 (the paper's chips) fill one
    /// phase chunk exactly while every island step is one padded chunk;
    /// 3 × 3 runs a phase chunk plus a remainder over padded island
    /// chunks; 64 × 2 fills whole chunks in both.
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
