//! Time-varying workload phases.
//!
//! The GPM exists because workload demand *varies over time* — Fig. 7/8
//! show island power demand wandering between ~12 % and ~26 % of chip power
//! as applications move through phases. The generator combines three
//! standard components of program phase behaviour:
//!
//! 1. a **periodic** term (period/amplitude from the profile — video
//!    encoding frames, solver iterations),
//! 2. a **Markov-modulated** intensity level (low/nominal/high dwell
//!    phases, geometric dwell times),
//! 3. small white **jitter**.
//!
//! Each `(seed, stream)` pair produces an independent, reproducible
//! sequence; the simulator gives every core its own stream id.

use crate::profile::BenchmarkProfile;
use cpm_math::{sin_det, sin_into};
use cpm_rng::{Xoshiro256pp, XoshiroBank};
use cpm_units::Seconds;

/// Instantaneous phase multipliers applied to a profile's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSample {
    /// Multiplier on the core-bound CPI (≥ `1-var`, ≤ `1+var`):
    /// higher = less ILP available this phase.
    pub cpi_scale: f64,
    /// Multiplier on memory intensity (L1/L2 miss rates).
    pub mem_scale: f64,
    /// Multiplier on the functional-unit activity factor.
    pub activity_scale: f64,
}

impl PhaseSample {
    /// The neutral sample (no modulation).
    pub const NEUTRAL: Self = Self {
        cpi_scale: 1.0,
        mem_scale: 1.0,
        activity_scale: 1.0,
    };
}

/// Markov intensity levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Low,
    Nominal,
    High,
}

impl Level {
    fn intensity(self) -> f64 {
        match self {
            Level::Low => -1.0,
            Level::Nominal => 0.0,
            Level::High => 1.0,
        }
    }
}

/// A seeded per-core phase sequence for one benchmark.
#[derive(Debug, Clone)]
pub struct PhaseGenerator {
    rng: Xoshiro256pp,
    /// `2π / phase_period`, or `0` for profiles with no periodic term.
    /// Stored as the reciprocal product so the hot path multiplies
    /// instead of dividing (division is the one f64 op with multi-cycle
    /// reciprocal throughput even vectorized).
    tau_over_period: f64,
    variability: f64,
    /// Phase offset so co-scheduled copies of one benchmark don't move in
    /// lock-step.
    phase_offset: f64,
    level: Level,
    /// Reciprocal of the mean dwell time in one Markov level (1/s).
    inv_mean_dwell: f64,
    elapsed: f64,
}

impl PhaseGenerator {
    /// Creates a generator for `profile`, deterministically derived from
    /// `seed` and a per-core `stream` id.
    pub fn new(profile: &BenchmarkProfile, seed: u64, stream: u64) -> Self {
        // SplitMix-style mixing keeps streams decorrelated.
        let mixed = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(stream.wrapping_mul(0xBF58476D1CE4E5B9))
            ^ (profile.name.len() as u64).wrapping_mul(0x94D049BB133111EB);
        let mut rng = Xoshiro256pp::seed_from_u64(mixed);
        let phase_offset = rng.next_f64() * std::f64::consts::TAU;
        Self {
            rng,
            tau_over_period: if profile.phase_period > 0.0 {
                std::f64::consts::TAU / profile.phase_period
            } else {
                0.0
            },
            variability: profile.variability,
            phase_offset,
            level: Level::Nominal,
            inv_mean_dwell: 1.0 / (profile.phase_period * 2.0).max(0.01),
            elapsed: 0.0,
        }
    }

    /// Advances time by `dt` and returns the sample governing the elapsed
    /// interval.
    pub fn advance(&mut self, dt: Seconds) -> PhaseSample {
        let dt = dt.value();
        assert!(dt >= 0.0, "time cannot run backwards");
        self.elapsed += dt;

        // Markov level switching: geometric dwell with mean dwell time
        // `1/inv_mean_dwell`.
        let p_switch = (dt * self.inv_mean_dwell).min(1.0);
        if self.rng.next_f64() < p_switch {
            self.level = match self.rng.below(3) {
                0 => Level::Low,
                1 => Level::Nominal,
                _ => Level::High,
            };
        }

        // Periodic component, through the deterministic repo-owned sin
        // kernel (cpm-math) — never libm, whose bits vary by host.
        let periodic = if self.tau_over_period > 0.0 {
            sin_det(self.elapsed * self.tau_over_period + self.phase_offset)
        } else {
            0.0
        };

        // Jitter.
        let jitter = self.rng.signed_unit() * 0.15;

        // Blend: periodic 50 %, Markov 35 %, jitter 15 %, scaled to the
        // profile's variability.
        let x = (0.50 * periodic + 0.35 * self.level.intensity() + jitter) * self.variability;

        // Intensity x > 0 = "hot" phase: more ILP (lower CPI), more memory
        // traffic, higher activity. Keep multipliers positive.
        PhaseSample {
            cpi_scale: (1.0 - 0.6 * x).max(0.2),
            mem_scale: (1.0 + x).max(0.05),
            activity_scale: (1.0 + 0.5 * x).clamp(0.2, 1.25),
        }
    }

    /// Total simulated time this generator has covered.
    pub fn elapsed(&self) -> Seconds {
        Seconds::new(self.elapsed)
    }
}

/// A structure-of-arrays batch of phase generators: one entry per core,
/// with every hot scalar in its own contiguous `Vec` so the simulator can
/// advance all cores in one pass instead of chasing per-core structs.
///
/// Each entry replicates [`PhaseGenerator`] state-for-state (the Markov
/// level is stored directly as its intensity, which `Level::intensity`
/// maps 1:1; the RNG streams live in a column-wise [`XoshiroBank`]), and
/// [`PhaseBank::advance_into`] evaluates the exact expressions of
/// [`PhaseGenerator::advance`] — as whole-column elementwise passes,
/// which preserves bit-identity because no pass has a cross-lane
/// reduction to reassociate and each lane's RNG draw order (switch draw
/// → optional level redraw → jitter draw) is untouched. So a bank built
/// by pushing `(profile, seed, stream)` triples is bit-identical to a
/// `Vec<PhaseGenerator>` built from the same triples, at any length.
#[derive(Debug, Clone, Default)]
pub struct PhaseBank {
    rng: XoshiroBank,
    /// `2π / period` per entry, `0` when the profile has no periodic term
    /// (the same reciprocal hoist as the scalar generator).
    tau_over_period: Vec<f64>,
    variability: Vec<f64>,
    phase_offset: Vec<f64>,
    /// The current Markov level as its intensity: −1 (low), 0 (nominal),
    /// +1 (high).
    level_intensity: Vec<f64>,
    inv_mean_dwell: Vec<f64>,
    elapsed: Vec<f64>,
    scratch: PhaseScratch,
}

/// Persistent whole-column temporaries of [`PhaseBank::advance_into`],
/// sized at push time so the steady-state step allocates nothing. Taken
/// out of the bank for the duration of a step (`std::mem::take`, O(1))
/// so the passes can read state columns while writing scratch columns.
#[derive(Debug, Clone, Default)]
struct PhaseScratch {
    /// Per-entry Markov switch probability this step.
    p_switch: Vec<f64>,
    /// RNG draw column — the switch draws, then reused for the jitter.
    draw: Vec<f64>,
    /// Argument column of the periodic term.
    arg: Vec<f64>,
    /// `sin` of the argument column.
    per: Vec<f64>,
}

impl PhaseBank {
    /// An empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of per-core sequences in the bank.
    pub fn len(&self) -> usize {
        self.rng.len()
    }

    /// Whether the bank holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.rng.is_empty()
    }

    /// Appends the sequence [`PhaseGenerator::new`] would produce for
    /// `(profile, seed, stream)`.
    pub fn push(&mut self, profile: &BenchmarkProfile, seed: u64, stream: u64) {
        // Same SplitMix-style stream mixing as `PhaseGenerator::new`.
        let mixed = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(stream.wrapping_mul(0xBF58476D1CE4E5B9))
            ^ (profile.name.len() as u64).wrapping_mul(0x94D049BB133111EB);
        let mut rng = Xoshiro256pp::seed_from_u64(mixed);
        self.phase_offset
            .push(rng.next_f64() * std::f64::consts::TAU);
        self.rng.push(rng);
        self.tau_over_period.push(if profile.phase_period > 0.0 {
            std::f64::consts::TAU / profile.phase_period
        } else {
            0.0
        });
        self.variability.push(profile.variability);
        self.level_intensity.push(Level::Nominal.intensity());
        self.inv_mean_dwell
            .push(1.0 / (profile.phase_period * 2.0).max(0.01));
        self.elapsed.push(0.0);
        self.scratch.p_switch.push(0.0);
        self.scratch.draw.push(0.0);
        self.scratch.arg.push(0.0);
        self.scratch.per.push(0.0);
    }

    /// Advances every sequence by `dt`, writing the governing samples into
    /// the three scale slices (core order). Entry `i` is bit-identical to
    /// `PhaseGenerator::advance` on generator `i`.
    ///
    /// The step is a handful of whole-column elementwise passes (no chunking, no
    /// tail path): the arithmetic passes autovectorize over the full
    /// column, the RNG draws batch through the column-wise bank, and the
    /// periodic term goes through the deterministic `cpm-math` sin kernel
    /// — itself branch-free and vectorized. The only remaining scalar
    /// work is the conditional Markov redraw, whose draw must stay
    /// per-lane-conditional to keep non-switching streams in sync.
    pub fn advance_into(
        &mut self,
        dt: Seconds,
        cpi_scale: &mut [f64],
        mem_scale: &mut [f64],
        activity_scale: &mut [f64],
    ) {
        let n = self.rng.len();
        assert!(
            cpi_scale.len() == n && mem_scale.len() == n && activity_scale.len() == n,
            "one output slot per sequence required"
        );
        let dt = dt.value();
        assert!(dt >= 0.0, "time cannot run backwards");
        let mut s = std::mem::take(&mut self.scratch);

        // Columns are bound as length-`n` slices up front so every pass
        // below is a bounds-check-free loop over equal-length slices —
        // the shape LLVM's autovectorizer recognizes.
        let elapsed = &mut self.elapsed[..n];
        let inv_mean_dwell = &self.inv_mean_dwell[..n];
        let tau_over_period = &self.tau_over_period[..n];
        let phase_offset = &self.phase_offset[..n];
        let variability = &self.variability[..n];

        // Pass 1 (vector): elapsed update, switch probability, and the
        // periodic-term argument. The argument only depends on the
        // updated elapsed time — not on any draw — so it can be computed
        // here and handed to the sin kernel later without perturbing the
        // RNG call order. Entries with no periodic term have
        // tau_over_period = 0, so their arg collapses to the offset and
        // stays finite; the gate is applied as a select in the blend
        // pass. Evaluating the argument into a column is the same
        // rounding sequence as the fused scalar expression, so the
        // kernel result is bit-identical to the scalar `sin_det` call.
        {
            let p_switch = &mut s.p_switch[..n];
            let arg = &mut s.arg[..n];
            for i in 0..n {
                elapsed[i] += dt;
                p_switch[i] = (dt * inv_mean_dwell[i]).min(1.0);
                arg[i] = elapsed[i] * tau_over_period[i] + phase_offset[i];
            }
        }

        // Pass 2 (vector): the switch draw — every lane's first draw of
        // this step, batched through the column-wise RNG bank.
        self.rng.fill_next_f64(0, &mut s.draw);

        // Pass 3 (scalar): Markov level redraw on switching lanes only —
        // the draw is conditional, so batching it would desynchronize
        // non-switching lanes' streams.
        for i in 0..n {
            if s.draw[i] < s.p_switch[i] {
                self.level_intensity[i] = match self.rng.below_at(i, 3) {
                    0 => Level::Low.intensity(),
                    1 => Level::Nominal.intensity(),
                    _ => Level::High.intensity(),
                };
            }
        }

        // Pass 4 (vector): the jitter draw — batched through the
        // column-wise bank; the signed_unit map is fused into the blend.
        self.rng.fill_next_f64(0, &mut s.draw);

        // Pass 5 (vector): the periodic term over the whole column,
        // unconditionally, through the deterministic sin kernel.
        sin_into(&s.arg, &mut s.per);

        // Pass 6 (vector): blend — periodic 50 %, Markov 35 %, jitter
        // 15 %, scaled to the profile's variability. The jitter term
        // applies the signed_unit map `lo + f·(hi−lo)` with (lo, hi) =
        // (−1, 1) constant-folded — exactly the ops `signed_unit() *
        // 0.15` performs.
        {
            let per_col = &s.per[..n];
            let draw = &s.draw[..n];
            let level_intensity = &self.level_intensity[..n];
            let cpi_scale = &mut cpi_scale[..n];
            let mem_scale = &mut mem_scale[..n];
            let activity_scale = &mut activity_scale[..n];
            for i in 0..n {
                let per = if tau_over_period[i] > 0.0 {
                    per_col[i]
                } else {
                    0.0
                };
                let jitter = (-1.0 + draw[i] * 2.0) * 0.15;
                let x = (0.50 * per + 0.35 * level_intensity[i] + jitter) * variability[i];
                cpi_scale[i] = (1.0 - 0.6 * x).max(0.2);
                mem_scale[i] = (1.0 + x).max(0.05);
                activity_scale[i] = (1.0 + 0.5 * x).clamp(0.2, 1.25);
            }
        }

        self.scratch = s;
    }

    /// Total simulated time sequence `i` has covered.
    pub fn elapsed(&self, i: usize) -> Seconds {
        Seconds::new(self.elapsed[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parsec;

    fn gen_for(seed: u64, stream: u64) -> PhaseGenerator {
        PhaseGenerator::new(&parsec::x264(), seed, stream)
    }

    fn run(generator: &mut PhaseGenerator, n: usize) -> Vec<PhaseSample> {
        (0..n)
            .map(|_| generator.advance(Seconds::from_ms(0.5)))
            .collect()
    }

    #[test]
    fn same_seed_same_sequence() {
        let a = run(&mut gen_for(7, 0), 200);
        let b = run(&mut gen_for(7, 0), 200);
        assert_eq!(a, b);
    }

    #[test]
    fn different_streams_decorrelate() {
        let a = run(&mut gen_for(7, 0), 200);
        let b = run(&mut gen_for(7, 1), 200);
        assert_ne!(a, b);
    }

    #[test]
    fn samples_stay_positive_and_bounded() {
        let samples = run(&mut gen_for(3, 5), 2000);
        for s in samples {
            assert!(s.cpi_scale > 0.0 && s.cpi_scale < 2.0);
            assert!(s.mem_scale > 0.0 && s.mem_scale < 2.0);
            assert!((0.2..=1.25).contains(&s.activity_scale));
        }
    }

    #[test]
    fn variability_controls_spread() {
        // x264 (var 0.30) must wander more than blackscholes (var 0.08).
        let spread = |p: &BenchmarkProfile| {
            let mut g = PhaseGenerator::new(p, 11, 0);
            let xs: Vec<f64> = (0..2000)
                .map(|_| g.advance(Seconds::from_ms(0.5)).mem_scale)
                .collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let hi = spread(&parsec::x264());
        let lo = spread(&parsec::blackscholes());
        assert!(hi > 2.0 * lo, "x264 σ={hi} vs blackscholes σ={lo}");
    }

    #[test]
    fn mean_stays_near_neutral() {
        let mut g = gen_for(13, 2);
        let xs: Vec<f64> = (0..4000)
            .map(|_| g.advance(Seconds::from_ms(0.5)).mem_scale)
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 1.0).abs() < 0.08, "mean mem_scale {mean}");
    }

    #[test]
    fn elapsed_tracks_time() {
        let mut g = gen_for(1, 0);
        run(&mut g, 100);
        assert!((g.elapsed().ms() - 50.0).abs() < 1e-9);
    }

    fn assert_bank_matches_generators(cores: usize, steps: usize) {
        let profiles = parsec::all();
        let seed = 0xC0FFEE;
        let mut generators: Vec<PhaseGenerator> = Vec::new();
        let mut bank = PhaseBank::new();
        for (stream, p) in profiles.iter().cycle().take(cores).enumerate() {
            generators.push(PhaseGenerator::new(p, seed, stream as u64));
            bank.push(p, seed, stream as u64);
        }
        assert_eq!(bank.len(), generators.len());
        let mut cpi = vec![0.0; cores];
        let mut mem = vec![0.0; cores];
        let mut act = vec![0.0; cores];
        for step in 0..steps {
            let dt = Seconds::from_ms(0.5);
            bank.advance_into(dt, &mut cpi, &mut mem, &mut act);
            for (i, g) in generators.iter_mut().enumerate() {
                let s = g.advance(dt);
                assert!(
                    s.cpi_scale.to_bits() == cpi[i].to_bits()
                        && s.mem_scale.to_bits() == mem[i].to_bits()
                        && s.activity_scale.to_bits() == act[i].to_bits(),
                    "core {i} of {cores} diverged at step {step}"
                );
                assert_eq!(g.elapsed(), bank.elapsed(i));
            }
        }
    }

    #[test]
    fn bank_is_bit_identical_to_generators() {
        // The SoA bank must replay every scalar generator exactly — the
        // chip's determinism contract rides on this.
        assert_bank_matches_generators(32, 500);
    }

    #[test]
    fn bank_is_bit_identical_at_non_lane_multiple_sizes() {
        // Tail handling is where chunked kernels break: exercise sizes
        // below, at, just past, and far past the lane width — including
        // the 1-core degenerate where *only* the scalar tail runs.
        for cores in [1usize, 5, 7, 8, 9, 13, 16, 33] {
            assert_bank_matches_generators(cores, 120);
        }
    }

    #[test]
    #[should_panic(expected = "one output slot per sequence")]
    fn bank_rejects_short_output_slices() {
        let mut bank = PhaseBank::new();
        bank.push(&parsec::x264(), 1, 0);
        bank.advance_into(Seconds::from_ms(0.5), &mut [], &mut [], &mut []);
    }

    /// The libm accuracy oracle for [`PhaseGenerator::advance`]: the same
    /// trajectory, expression for expression, except the periodic term
    /// calls the host `sin`.
    fn advance_libm(g: &mut PhaseGenerator, dt: Seconds) -> PhaseSample {
        let dt = dt.value();
        assert!(dt >= 0.0, "time cannot run backwards");
        g.elapsed += dt;
        let p_switch = (dt * g.inv_mean_dwell).min(1.0);
        if g.rng.next_f64() < p_switch {
            g.level = match g.rng.below(3) {
                0 => Level::Low,
                1 => Level::Nominal,
                _ => Level::High,
            };
        }
        let periodic = if g.tau_over_period > 0.0 {
            (g.elapsed * g.tau_over_period + g.phase_offset).sin()
        } else {
            0.0
        };
        let jitter = g.rng.signed_unit() * 0.15;
        let x = (0.50 * periodic + 0.35 * g.level.intensity() + jitter) * g.variability;
        PhaseSample {
            cpi_scale: (1.0 - 0.6 * x).max(0.2),
            mem_scale: (1.0 + x).max(0.05),
            activity_scale: (1.0 + 0.5 * x).clamp(0.2, 1.25),
        }
    }

    #[test]
    fn deterministic_kernel_tracks_libm_reference_trajectory() {
        // The ≤ 1 ulp kernel difference must stay negligible when
        // compounded through a whole trajectory: both twins draw the
        // same RNG stream (the Markov branch takes probabilities far
        // from the ulp boundary), so divergence can only enter through
        // the periodic term, bounded per step.
        for (stream, p) in parsec::all().iter().enumerate() {
            let mut det = PhaseGenerator::new(p, 21, stream as u64);
            let mut libm = PhaseGenerator::new(p, 21, stream as u64);
            for _ in 0..2000 {
                let a = det.advance(Seconds::from_ms(0.5));
                let b = advance_libm(&mut libm, Seconds::from_ms(0.5));
                assert!(
                    (a.cpi_scale - b.cpi_scale).abs() < 1e-12
                        && (a.mem_scale - b.mem_scale).abs() < 1e-12
                        && (a.activity_scale - b.activity_scale).abs() < 1e-12,
                    "kernel vs libm trajectory diverged on {}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn phases_actually_vary_over_time() {
        let samples = run(&mut gen_for(5, 3), 500);
        let distinct: std::collections::BTreeSet<u64> =
            samples.iter().map(|s| (s.mem_scale * 1e6) as u64).collect();
        assert!(distinct.len() > 100, "phases should not be constant");
    }
}
