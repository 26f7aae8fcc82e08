//! Per-core interval execution: the CPI-stack model.
//!
//! Over a control interval at frequency `f`, a core's average cycles per
//! instruction decompose as
//!
//! ```text
//! CPI(f) = base_cpi·φ_cpi  +  (l1_mpki·φ_mem/1000)·L2_HIT_CYCLES
//!        + (l2_mpki·φ_mem/1000)·(DRAM_LATENCY_S · f)
//! ```
//!
//! where the `φ` are the current phase multipliers. The first two terms are
//! on-chip work — fixed in *cycles*, so their wall-clock cost shrinks as
//! `f` rises. The DRAM term is fixed in *time*, so its cycle cost grows
//! with `f`: raising frequency buys little for memory-bound phases, which
//! is the asymmetry the whole power-management problem rides on.

use cpm_workloads::BenchmarkProfile;

/// The hoisted per-core factors of the CPI stack for miss rates
/// `(l1_mpki, l2_mpki)`: the on-chip miss term per unit of `mem_scale`
/// (`l1_mpki/1000 · L2_HIT_CYCLES`), the DRAM-seconds term per unit of
/// `mem_scale` (multiplied by `f` in the step), and the DRAM bytes per
/// instruction per unit of `mem_scale` (`l2_mpki/1000 · 64`). The SoA
/// segment and the scalar test oracle derive their columns from these
/// same expressions, so both are bit-identical.
pub(crate) fn miss_terms(l1_mpki: f64, l2_mpki: f64) -> (f64, f64, f64) {
    (
        l1_mpki / 1000.0 * BenchmarkProfile::L2_HIT_CYCLES,
        l2_mpki / 1000.0 * BenchmarkProfile::DRAM_LATENCY_S,
        l2_mpki / 1000.0 * 64.0,
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cpm_rng::{check, Xoshiro256pp};
    use cpm_units::{Hertz, Ratio, Seconds};
    use cpm_workloads::{parsec, InputSet, PhaseGenerator, PhaseSample};

    /// What a core did during one control interval.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) struct CoreIntervalStats {
        /// Instructions retired.
        pub instructions: f64,
        /// Fraction of the interval spent on useful on-chip work (the "CPU
        /// utilization" visible to performance counters, net of DRAM stalls
        /// and DVFS-transition freeze time).
        pub utilization: Ratio,
        /// Average functional-unit activity factor over the interval (drives
        /// dynamic power; includes the freeze dead-time).
        pub activity: Ratio,
        /// Core cycles elapsed while clocked.
        pub cycles: f64,
        /// Bytes of DRAM traffic generated (L2 misses × line size).
        pub dram_bytes: f64,
    }

    /// One core executing one benchmark through its phase sequence: the
    /// scalar oracle that `CoreBank`'s SoA step is checked against, bit for
    /// bit.
    #[derive(Debug, Clone)]
    pub(crate) struct CoreModel {
        profile: BenchmarkProfile,
        phase: PhaseGenerator,
        /// The three factors of [`miss_terms`].
        l1_term: f64,
        l2_dram: f64,
        l2_bytes: f64,
        total_instructions: f64,
        total_time: Seconds,
    }

    impl CoreModel {
        /// Creates a core running `profile`, with phase randomness derived from
        /// `(seed, stream)`.
        pub(crate) fn new(profile: BenchmarkProfile, seed: u64, stream: u64) -> Self {
            let phase = PhaseGenerator::new(&profile, seed, stream);
            let (l1_term, l2_dram, l2_bytes) = miss_terms(profile.l1_mpki, profile.l2_mpki);
            Self {
                profile,
                phase,
                l1_term,
                l2_dram,
                l2_bytes,
                total_instructions: 0.0,
                total_time: Seconds::ZERO,
            }
        }

        /// Overrides the miss rates with externally calibrated values (e.g.
        /// from `calibration::calibrate`).
        pub(crate) fn with_rates(mut self, l1_mpki: f64, l2_mpki: f64) -> Self {
            assert!(l1_mpki >= 0.0 && l2_mpki >= 0.0 && l1_mpki >= l2_mpki);
            let (l1_term, l2_dram, l2_bytes) = miss_terms(l1_mpki, l2_mpki);
            self.l1_term = l1_term;
            self.l2_dram = l2_dram;
            self.l2_bytes = l2_bytes;
            self
        }

        /// The benchmark this core runs.
        pub(crate) fn profile(&self) -> &BenchmarkProfile {
            &self.profile
        }

        /// Cumulative instructions retired.
        pub(crate) fn total_instructions(&self) -> f64 {
            self.total_instructions
        }

        /// Cumulative simulated time.
        pub(crate) fn total_time(&self) -> Seconds {
            self.total_time
        }

        /// Effective CPI for a given frequency and phase sample.
        fn cpi_parts(&self, f: Hertz, s: PhaseSample) -> (f64, f64) {
            let on_chip = self.profile.base_cpi * s.cpi_scale + self.l1_term * s.mem_scale;
            let dram = self.l2_dram * s.mem_scale * f.value();
            (on_chip, dram)
        }

        /// Advances the core one interval of `dt` at frequency `f`, with
        /// `frozen` of that interval lost to a DVFS transition (no instructions
        /// retire while frozen), under an uncontended memory system.
        pub(crate) fn step(&mut self, f: Hertz, dt: Seconds, frozen: Seconds) -> CoreIntervalStats {
            self.step_contended(f, dt, frozen, 1.0)
        }

        /// Like [`CoreModel::step`], with the effective DRAM latency inflated
        /// by `dram_latency_mult ≥ 1` (memory-controller queueing under
        /// bandwidth contention; the chip supplies last interval's factor).
        pub(crate) fn step_contended(
            &mut self,
            f: Hertz,
            dt: Seconds,
            frozen: Seconds,
            dram_latency_mult: f64,
        ) -> CoreIntervalStats {
            assert!(f.value() > 0.0, "core clock must be positive");
            assert!(
                frozen.value() >= 0.0 && frozen <= dt,
                "freeze within interval"
            );
            assert!(dram_latency_mult >= 1.0, "contention can only slow memory");
            let sample = self.phase.advance(dt);
            let avail = dt - frozen;
            let (on_chip, dram_base) = self.cpi_parts(f, sample);
            let dram = dram_base * dram_latency_mult;
            let cpi = on_chip + dram;
            let cycles = f.cycles_in(avail);
            // One reciprocal feeds both quotients: cycles/cpi and on_chip/cpi
            // as two divides would double the slowest f64 op in the loop.
            let inv_cpi = 1.0 / cpi;
            let instructions = cycles * inv_cpi;
            let avail_frac = avail.value() / dt.value();
            let busy_frac = on_chip * inv_cpi;
            let utilization = Ratio::new(busy_frac * avail_frac).clamped();
            let activity =
                Ratio::new(self.profile.activity * sample.activity_scale * busy_frac * avail_frac)
                    .clamped();
            self.total_instructions += instructions;
            self.total_time += dt;
            let dram_bytes = instructions * self.l2_bytes * sample.mem_scale;
            CoreIntervalStats {
                instructions,
                utilization,
                activity,
                cycles,
                dram_bytes,
            }
        }

        /// Phase-free instruction rate at frequency `f` (for quick estimates).
        pub(crate) fn nominal_ips(&self, f: Hertz) -> f64 {
            let (on_chip, dram) = self.cpi_parts(f, PhaseSample::NEUTRAL);
            f.value() / (on_chip + dram)
        }
    }

    fn cpu_core(seed: u64) -> CoreModel {
        CoreModel::new(parsec::blackscholes(), seed, 0)
    }

    fn mem_core(seed: u64) -> CoreModel {
        CoreModel::new(parsec::canneal().with_input(InputSet::Native), seed, 0)
    }

    #[test]
    fn instructions_scale_with_frequency_for_cpu_bound() {
        let mut lo = cpu_core(1);
        let mut hi = cpu_core(1); // same seed → same phases
        let dt = Seconds::from_ms(0.5);
        let mut ilo = 0.0;
        let mut ihi = 0.0;
        for _ in 0..100 {
            ilo += lo
                .step(Hertz::from_mhz(600.0), dt, Seconds::ZERO)
                .instructions;
            ihi += hi
                .step(Hertz::from_ghz(2.0), dt, Seconds::ZERO)
                .instructions;
        }
        let speedup = ihi / ilo;
        assert!(
            speedup > 3.0,
            "cpu-bound speedup {speedup} should approach the 3.33 clock ratio"
        );
    }

    #[test]
    fn memory_bound_barely_benefits_from_frequency() {
        let mut lo = mem_core(1);
        let mut hi = mem_core(1);
        let dt = Seconds::from_ms(0.5);
        let mut ilo = 0.0;
        let mut ihi = 0.0;
        for _ in 0..100 {
            ilo += lo
                .step(Hertz::from_mhz(600.0), dt, Seconds::ZERO)
                .instructions;
            ihi += hi
                .step(Hertz::from_ghz(2.0), dt, Seconds::ZERO)
                .instructions;
        }
        let speedup = ihi / ilo;
        assert!(
            speedup < 2.6,
            "memory-bound speedup {speedup} should be well below the 3.33 clock ratio"
        );
    }

    #[test]
    fn utilization_reflects_memory_stalls() {
        let mut c = cpu_core(2);
        let mut m = mem_core(2);
        let dt = Seconds::from_ms(0.5);
        let f = Hertz::from_ghz(2.0);
        let uc: f64 = (0..50)
            .map(|_| c.step(f, dt, Seconds::ZERO).utilization.value())
            .sum::<f64>()
            / 50.0;
        let um: f64 = (0..50)
            .map(|_| m.step(f, dt, Seconds::ZERO).utilization.value())
            .sum::<f64>()
            / 50.0;
        assert!(uc > 0.85, "cpu-bound utilization {uc}");
        assert!(um < 0.70, "memory-bound utilization {um}");
    }

    #[test]
    fn freeze_time_costs_instructions_and_utilization() {
        let dt = Seconds::from_ms(0.5);
        let f = Hertz::from_ghz(1.0);
        let mut a = cpu_core(3);
        let mut b = cpu_core(3);
        let sa = a.step(f, dt, Seconds::ZERO);
        let sb = b.step(f, dt, dt * 0.5);
        assert!((sb.instructions / sa.instructions - 0.5).abs() < 1e-9);
        assert!((sb.utilization.value() / sa.utilization.value() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let mut a = cpu_core(7);
        let mut b = cpu_core(7);
        for _ in 0..20 {
            let sa = a.step(Hertz::from_ghz(1.4), Seconds::from_ms(0.5), Seconds::ZERO);
            let sb = b.step(Hertz::from_ghz(1.4), Seconds::from_ms(0.5), Seconds::ZERO);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn accounting_accumulates() {
        let mut c = cpu_core(4);
        for _ in 0..10 {
            c.step(Hertz::from_ghz(2.0), Seconds::from_ms(0.5), Seconds::ZERO);
        }
        assert!((c.total_time().ms() - 5.0).abs() < 1e-9);
        // ~2 GHz / CPI ~0.9 → ≈ 10 M instructions in 5 ms.
        assert!(c.total_instructions() > 5.0e6);
    }

    #[test]
    fn calibrated_rates_override() {
        let base = cpu_core(5);
        let heavy = cpu_core(5).with_rates(30.0, 10.0);
        assert!(heavy.nominal_ips(Hertz::from_ghz(2.0)) < base.nominal_ips(Hertz::from_ghz(2.0)));
    }

    #[test]
    #[should_panic(expected = "freeze within interval")]
    fn freeze_longer_than_interval_panics() {
        cpu_core(6).step(
            Hertz::from_ghz(1.0),
            Seconds::from_ms(0.5),
            Seconds::from_ms(1.0),
        );
    }

    #[test]
    fn contention_slows_memory_bound_cores_most() {
        let dt = Seconds::from_ms(0.5);
        let f = Hertz::from_ghz(2.0);
        let mut cu = cpu_core(9);
        let mut cc = cpu_core(9);
        let mut mu = mem_core(9);
        let mut mc = mem_core(9);
        let mut sums = [0.0f64; 4];
        for _ in 0..40 {
            sums[0] += cu.step(f, dt, Seconds::ZERO).instructions;
            sums[1] += cc.step_contended(f, dt, Seconds::ZERO, 2.0).instructions;
            sums[2] += mu.step(f, dt, Seconds::ZERO).instructions;
            sums[3] += mc.step_contended(f, dt, Seconds::ZERO, 2.0).instructions;
        }
        let cpu_loss = 1.0 - sums[1] / sums[0];
        let mem_loss = 1.0 - sums[3] / sums[2];
        assert!(
            mem_loss > 2.0 * cpu_loss,
            "mem {mem_loss} vs cpu {cpu_loss}"
        );
    }

    #[test]
    fn dram_bytes_track_miss_rate() {
        let dt = Seconds::from_ms(0.5);
        let f = Hertz::from_ghz(2.0);
        let mut c = cpu_core(10);
        let mut m = mem_core(10);
        let sc = c.step(f, dt, Seconds::ZERO);
        let sm = m.step(f, dt, Seconds::ZERO);
        // Bytes per instruction ∝ l2_mpki.
        let bpi_c = sc.dram_bytes / sc.instructions;
        let bpi_m = sm.dram_bytes / sm.instructions;
        assert!(bpi_m > 10.0 * bpi_c, "{bpi_m} vs {bpi_c}");
    }

    #[test]
    #[should_panic(expected = "only slow")]
    fn contention_below_one_rejected() {
        cpu_core(11).step_contended(
            Hertz::from_ghz(1.0),
            Seconds::from_ms(0.5),
            Seconds::ZERO,
            0.5,
        );
    }

    #[test]
    fn activity_is_higher_for_active_cpu_bound_work() {
        let mut c = cpu_core(8);
        let mut m = mem_core(8);
        let dt = Seconds::from_ms(0.5);
        let f = Hertz::from_ghz(2.0);
        let ac: f64 = (0..50)
            .map(|_| c.step(f, dt, Seconds::ZERO).activity.value())
            .sum::<f64>()
            / 50.0;
        let am: f64 = (0..50)
            .map(|_| m.step(f, dt, Seconds::ZERO).activity.value())
            .sum::<f64>()
            / 50.0;
        assert!(ac > am, "cpu-bound activity {ac} vs memory-bound {am}");
    }

    fn any_profile(rng: &mut Xoshiro256pp) -> BenchmarkProfile {
        let l2 = rng.f64_in(0.0, 20.0);
        BenchmarkProfile {
            name: "prop",
            short: "prop",
            description: "generated",
            input: InputSet::SimLarge,
            base_cpi: rng.f64_in(0.5, 2.0),
            l1_mpki: l2 + rng.f64_in(0.0, 30.0),
            l2_mpki: l2,
            activity: rng.f64_in(0.3, 1.0),
            working_set: 4 << 20,
            stream_fraction: 0.3,
            phase_period: 0.05,
            variability: rng.f64_in(0.0, 0.3),
        }
    }

    #[test]
    fn core_instructions_monotone_in_frequency() {
        check::forall_cases("instructions monotone in f", 64, |rng| {
            // Same seed → same phases; higher clock must never retire fewer
            // instructions over the same wall-clock window.
            let profile = any_profile(rng);
            let seed = rng.below(1000);
            let dt = Seconds::from_ms(0.5);
            let mut totals = Vec::new();
            for mhz in [600.0, 1200.0, 2000.0] {
                let mut core = CoreModel::new(profile.clone(), seed, 0);
                let t: f64 = (0..20)
                    .map(|_| {
                        core.step(Hertz::from_mhz(mhz), dt, Seconds::ZERO)
                            .instructions
                    })
                    .sum();
                totals.push(t);
            }
            assert!(totals[0] < totals[1] && totals[1] < totals[2], "{totals:?}");
        });
    }

    #[test]
    fn core_utilization_and_activity_stay_in_unit_range() {
        check::forall_cases("core outputs in range", 64, |rng| {
            let profile = any_profile(rng);
            let seed = rng.below(1000);
            let mhz = rng.f64_in(600.0, 2000.0);
            let mut core = CoreModel::new(profile, seed, 1);
            for _ in 0..50 {
                let s = core.step(Hertz::from_mhz(mhz), Seconds::from_ms(0.5), Seconds::ZERO);
                assert!((0.0..=1.0).contains(&s.utilization.value()));
                assert!((0.0..=1.0).contains(&s.activity.value()));
                assert!(s.instructions >= 0.0);
            }
        });
    }

    #[test]
    fn freeze_reduces_instructions_proportionally() {
        check::forall_cases("freeze proportional", 64, |rng| {
            let profile = any_profile(rng);
            let freeze_frac = rng.next_f64();
            let dt = Seconds::from_ms(0.5);
            let f = Hertz::from_ghz(1.0);
            let mut a = CoreModel::new(profile.clone(), 7, 0);
            let mut b = CoreModel::new(profile, 7, 0);
            let sa = a.step(f, dt, Seconds::ZERO);
            let sb = b.step(f, dt, dt * freeze_frac);
            let expected = sa.instructions * (1.0 - freeze_frac);
            assert!((sb.instructions - expected).abs() < 1e-6 * (1.0 + expected));
        });
    }

    #[test]
    fn calibrated_cache_rates_drive_the_core_model() {
        // The real cache simulator's measured rates plug into the CPI stack
        // and preserve the CPU/memory-bound contrast.
        let cache = crate::CmpConfig::paper_default().cache;
        let cpu = parsec::blackscholes();
        let mem = parsec::canneal().with_input(InputSet::Native);
        let cpu_rates = crate::calibration::calibrate(&cpu, &cache, 7);
        let mem_rates = crate::calibration::calibrate(&mem, &cache, 7);

        let mut cpu_core =
            CoreModel::new(cpu, 1, 0).with_rates(cpu_rates.l1_mpki, cpu_rates.l2_mpki);
        let mut mem_core =
            CoreModel::new(mem, 1, 0).with_rates(mem_rates.l1_mpki, mem_rates.l2_mpki);

        let dt = Seconds::from_ms(0.5);
        let speedup = |core: &mut CoreModel| {
            let lo: f64 = (0..40)
                .map(|_| {
                    core.step(Hertz::from_mhz(600.0), dt, Seconds::ZERO)
                        .instructions
                })
                .sum();
            let hi: f64 = (0..40)
                .map(|_| {
                    core.step(Hertz::from_ghz(2.0), dt, Seconds::ZERO)
                        .instructions
                })
                .sum();
            hi / lo
        };
        let s_cpu = speedup(&mut cpu_core);
        let s_mem = speedup(&mut mem_core);
        assert!(
            s_cpu > s_mem + 0.3,
            "measured-rate cores keep the class split: cpu {s_cpu} vs mem {s_mem}"
        );
    }
}
