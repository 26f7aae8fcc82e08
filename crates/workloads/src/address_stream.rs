//! Synthetic memory reference streams.
//!
//! The paper drives GEMS `g-cache` models with real PARSEC address traces;
//! we generate per-benchmark synthetic streams with a three-tier locality
//! structure that reproduces how real programs exercise a cache hierarchy:
//!
//! 1. an **L1-resident set** (stack, hot locals — a few KB) absorbing the
//!    majority of references,
//! 2. a **hot region** (the active fraction of the working set) touched by
//!    streaming walks and scattered reuse — this is the tier whose size
//!    relative to the L2 decides whether a benchmark is memory-bound,
//! 3. **cold references** over the full working set (capacity pressure).
//!
//! References are *word*-granular (8 B), so sequential walks hit the same
//! 64 B line 8 times before crossing — matching how streaming code really
//! filters through an L1. `cpm-sim`'s set-associative cache simulator
//! consumes these streams to calibrate per-benchmark miss rates.

use crate::profile::BenchmarkProfile;
use cpm_rng::Xoshiro256pp;

/// Cache-line size matching the chip configuration (64 B, Table I).
pub const LINE_BYTES: u64 = 64;
/// Word granularity of generated references.
pub const WORD_BYTES: u64 = 8;
/// Size of the L1-resident tier (8 KB of stack/locals).
pub const L1_SET_BYTES: u64 = 8 * 1024;
/// The hot region is `working_set / HOT_DIVISOR`, floored at 16 KB.
pub const HOT_DIVISOR: u64 = 32;

/// A deterministic, seeded address generator for one benchmark.
#[derive(Debug, Clone)]
pub struct AddressStream {
    rng: Xoshiro256pp,
    /// Total words in the working set.
    working_words: u64,
    /// Words in the L1-resident tier.
    l1_words: u64,
    /// Words in the hot region.
    hot_words: u64,
    /// Probability of a sequential (streaming) reference.
    p_stream: f64,
    /// Sequential-walk cursor (word index within the hot region).
    cursor: u64,
}

impl AddressStream {
    /// Probability of a hot-region scattered reference.
    const P_HOT: f64 = 0.15;
    /// Probability of a cold full-working-set reference.
    const P_COLD: f64 = 0.05;

    /// Creates a stream for `profile`, deterministically seeded.
    pub fn new(profile: &BenchmarkProfile, seed: u64) -> Self {
        let working_words = (profile.working_set / WORD_BYTES).max(1);
        let l1_words = (L1_SET_BYTES / WORD_BYTES).min(working_words);
        let hot_words = (working_words / HOT_DIVISOR)
            .max(16 * 1024 / WORD_BYTES)
            .min(working_words);
        Self {
            rng: Xoshiro256pp::seed_from_u64(
                seed ^ profile.working_set.wrapping_mul(0x2545F4914F6CDD1D),
            ),
            working_words,
            l1_words,
            hot_words,
            p_stream: 0.30 * profile.stream_fraction,
            cursor: 0,
        }
    }

    /// The next byte address (word-aligned).
    pub fn next_address(&mut self) -> u64 {
        let p: f64 = self.rng.next_f64();
        let word = if p < self.p_stream {
            // Streaming walk through the hot region, word by word.
            self.cursor = (self.cursor + 1) % self.hot_words;
            self.cursor
        } else if p < self.p_stream + Self::P_HOT {
            // Scattered reuse within the hot region.
            self.rng.below(self.hot_words)
        } else if p < self.p_stream + Self::P_HOT + Self::P_COLD {
            // Cold capacity reference anywhere in the working set.
            self.rng.below(self.working_words)
        } else {
            // L1-resident tier (stack/locals).
            self.rng.below(self.l1_words)
        };
        word * WORD_BYTES
    }

    /// Generates `n` addresses.
    pub fn take(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_address()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parsec;
    use crate::profile::InputSet;

    /// Number of distinct cache lines a stream can touch.
    fn working_lines(s: &AddressStream) -> u64 {
        (s.working_words * WORD_BYTES).div_ceil(LINE_BYTES)
    }

    #[test]
    fn addresses_are_word_aligned_and_in_working_set() {
        let p = parsec::bodytrack();
        let mut s = AddressStream::new(&p, 42);
        for a in s.take(10_000) {
            assert_eq!(a % WORD_BYTES, 0);
            assert!(a < p.working_set);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = parsec::canneal();
        let a = AddressStream::new(&p, 7).take(1000);
        let b = AddressStream::new(&p, 7).take(1000);
        assert_eq!(a, b);
        let c = AddressStream::new(&p, 8).take(1000);
        assert_ne!(a, c);
    }

    #[test]
    fn streaming_profile_produces_sequential_word_steps() {
        // streamcluster (stream_fraction 0.8) emits many +1-word steps;
        // canneal (0.05) almost none.
        let step_fraction = |p: &BenchmarkProfile| {
            let mut s = AddressStream::new(p, 3);
            let addrs = s.take(40_000);
            let seq = addrs
                .windows(2)
                .filter(|w| w[1] == w[0] + WORD_BYTES)
                .count();
            seq as f64 / addrs.len() as f64
        };
        let streaming = step_fraction(&parsec::streamcluster());
        let chasing = step_fraction(&parsec::canneal());
        assert!(streaming > 0.04, "streamcluster sequential {streaming}");
        assert!(chasing < 0.01, "canneal sequential {chasing}");
        assert!(streaming > 4.0 * chasing);
    }

    #[test]
    fn l1_tier_dominates_references() {
        // The majority of references must land in the 8 KB resident tier —
        // that is what gives real programs their ~95 % L1 hit rates.
        let p = parsec::freqmine();
        let mut s = AddressStream::new(&p, 11);
        let addrs = s.take(50_000);
        let in_l1_tier = addrs.iter().filter(|&&a| a < L1_SET_BYTES).count();
        assert!(
            in_l1_tier as f64 / addrs.len() as f64 > 0.6,
            "L1 tier fraction {}",
            in_l1_tier as f64 / addrs.len() as f64
        );
    }

    #[test]
    fn temporal_locality_revisits_lines() {
        let p = parsec::freqmine();
        let mut s = AddressStream::new(&p, 11);
        let addrs = s.take(50_000);
        let distinct: std::collections::HashSet<u64> =
            addrs.iter().map(|a| a / LINE_BYTES).collect();
        assert!(
            distinct.len() < addrs.len() / 4,
            "{} distinct",
            distinct.len()
        );
    }

    #[test]
    fn hot_region_scales_with_input_set() {
        let sim = AddressStream::new(&parsec::facesim(), 1);
        let native = AddressStream::new(&parsec::facesim().with_input(InputSet::Native), 1);
        assert!(native.hot_words > 4 * sim.hot_words);
        assert!(working_lines(&native) > 4 * working_lines(&sim));
    }

    #[test]
    fn small_working_set_is_respected() {
        let p = BenchmarkProfile {
            working_set: 64 * LINE_BYTES,
            ..parsec::blackscholes()
        };
        let mut s = AddressStream::new(&p, 1);
        assert_eq!(working_lines(&s), 64);
        for a in s.take(1000) {
            assert!(a < 64 * LINE_BYTES);
        }
    }
}
