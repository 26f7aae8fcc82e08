//! Profile ↔ cache-simulator calibration.
//!
//! A core's miss rates can come either from the profile's paper-shaped
//! constants (deterministic, the default for experiments) or from
//! *measurement*: running the benchmark's synthetic address stream through
//! the real cache hierarchy. The measured path keeps the substrate
//! honest — the working-set and locality parameters must actually produce
//! the claimed cache behaviour — and is compared against the constants in
//! tests and in an ablation bench.

use crate::cache::Hierarchy;
use crate::config::CacheConfig;
use cpm_workloads::{AddressStream, BenchmarkProfile};

/// Memory references per kilo-instruction assumed by the calibrator
/// (≈ 30 % loads+stores — the standard x86 integer mix).
pub const REFS_PER_KILO_INSTRUCTION: f64 = 300.0;

/// Reference count for the warmup pass.
const WARMUP_REFS: usize = 60_000;
/// Reference count for the measurement pass.
const MEASURE_REFS: usize = 200_000;

/// Miss rates measured by driving the cache simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredRates {
    /// L1 misses per kilo-instruction.
    pub l1_mpki: f64,
    /// L2 misses per kilo-instruction (DRAM accesses).
    pub l2_mpki: f64,
    /// Raw L1 miss ratio.
    pub l1_miss_ratio: f64,
    /// Raw local L2 miss ratio (of L1 misses).
    pub l2_miss_ratio: f64,
}

/// Runs `profile`'s address stream through a fresh hierarchy and reports
/// measured miss rates. A pure function of (profile, cache config,
/// seed): the address stream is seeded and the hierarchy starts cold.
pub fn calibrate(profile: &BenchmarkProfile, cache: &CacheConfig, seed: u64) -> MeasuredRates {
    let mut h = Hierarchy::new(cache);
    let mut stream = AddressStream::new(profile, seed);
    for _ in 0..WARMUP_REFS {
        h.access(stream.next_address());
    }
    h.reset_stats();
    for _ in 0..MEASURE_REFS {
        h.access(stream.next_address());
    }
    let l1_ratio = h.l1.miss_ratio();
    let l2_ratio = h.l2.miss_ratio();
    MeasuredRates {
        l1_mpki: REFS_PER_KILO_INSTRUCTION * l1_ratio,
        l2_mpki: REFS_PER_KILO_INSTRUCTION * l1_ratio * l2_ratio,
        l1_miss_ratio: l1_ratio,
        l2_miss_ratio: l2_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_workloads::{parsec, InputSet};

    fn cfg() -> CacheConfig {
        CacheConfig::paper_default()
    }

    #[test]
    fn small_working_set_fits_in_l2() {
        // blackscholes (2 MB working set > 512 KB slice, but heavy temporal
        // reuse) should show far lower DRAM traffic than canneal.
        let bs = calibrate(&parsec::blackscholes(), &cfg(), 1);
        let cn = calibrate(&parsec::canneal(), &cfg(), 1);
        assert!(
            cn.l2_mpki > 2.0 * bs.l2_mpki,
            "canneal {} vs blackscholes {}",
            cn.l2_mpki,
            bs.l2_mpki
        );
    }

    #[test]
    fn native_input_increases_measured_dram_traffic() {
        let sim_large = calibrate(&parsec::facesim(), &cfg(), 2);
        let native = calibrate(&parsec::facesim().with_input(InputSet::Native), &cfg(), 2);
        assert!(
            native.l2_mpki > sim_large.l2_mpki,
            "native {} ≤ sim-large {}",
            native.l2_mpki,
            sim_large.l2_mpki
        );
    }

    #[test]
    fn measured_rates_are_internally_consistent() {
        for p in parsec::all() {
            let r = calibrate(&p, &cfg(), 3);
            assert!(r.l1_mpki >= r.l2_mpki, "{}: L2 ⊆ L1 misses", p.name);
            assert!((0.0..=1.0).contains(&r.l1_miss_ratio));
            assert!((0.0..=1.0).contains(&r.l2_miss_ratio));
            assert!(r.l1_mpki <= REFS_PER_KILO_INSTRUCTION);
        }
    }

    #[test]
    fn calibration_is_deterministic_per_seed() {
        let a = calibrate(&parsec::vips(), &cfg(), 9);
        let b = calibrate(&parsec::vips(), &cfg(), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn measured_class_ordering_matches_profile_intent() {
        // The measured DRAM traffic should rank the M-role natives above
        // the C-role sim-large benchmarks — the substrate agrees with the
        // constants on who is memory-bound.
        let c_role: f64 = ["bschls", "btrack", "fmine", "x264"]
            .iter()
            .map(|s| calibrate(&parsec::by_short(s).unwrap(), &cfg(), 4).l2_mpki)
            .sum::<f64>()
            / 4.0;
        let m_role: f64 = ["sclust", "fsim", "canneal", "vips"]
            .iter()
            .map(|s| {
                calibrate(
                    &parsec::by_short(s).unwrap().with_input(InputSet::Native),
                    &cfg(),
                    4,
                )
                .l2_mpki
            })
            .sum::<f64>()
            / 4.0;
        assert!(
            m_role > 1.5 * c_role,
            "measured M-role {m_role} vs C-role {c_role}"
        );
    }
}
