//! Structure-of-arrays xoshiro256++ bank for lane-chunked kernels.
//!
//! [`XoshiroBank`] holds the four state words of many independent
//! [`Xoshiro256pp`] streams as parallel `Vec<u64>` columns, so a batch
//! kernel can step a contiguous run of streams in one pass over the
//! columns — the layout LLVM autovectorizes (the xoshiro update is pure
//! add/rotate/xor/shift, all exact integer ops). Bit-identity with the
//! scalar generator is structural, not numerical: each lane applies the
//! token-identical update expression to the same state words, and
//! integer arithmetic has no rounding, so lane `i` of the bank produces
//! *exactly* the sequence `Xoshiro256pp` seeded the same way would.
//!
//! The scalar `*_at` accessors mirror the [`Xoshiro256pp`] draw helpers
//! one-for-one (same derivation expressions) for tail lanes and for
//! draws that are inherently conditional (e.g. a redraw only some lanes
//! take) and therefore cannot be batched.

use crate::Xoshiro256pp;

/// Parallel-column state for a bank of independent xoshiro256++ streams.
///
/// Lane `i` is an independent generator: pushing a [`Xoshiro256pp`]
/// transfers its state verbatim, and every draw on lane `i` advances
/// only lane `i` — so per-lane draw sequences are identical to running
/// the scalar generators side by side, regardless of how draws on
/// different lanes interleave.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct XoshiroBank {
    s0: Vec<u64>,
    s1: Vec<u64>,
    s2: Vec<u64>,
    s3: Vec<u64>,
}

impl XoshiroBank {
    /// An empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of streams in the bank.
    pub fn len(&self) -> usize {
        self.s0.len()
    }

    /// True when the bank holds no streams.
    pub fn is_empty(&self) -> bool {
        self.s0.is_empty()
    }

    /// Appends a stream, transferring the generator's state verbatim.
    pub fn push(&mut self, rng: Xoshiro256pp) {
        self.s0.push(rng.s[0]);
        self.s1.push(rng.s[1]);
        self.s2.push(rng.s[2]);
        self.s3.push(rng.s[3]);
    }

    /// Clones lane `i` back out as a standalone generator (continues the
    /// lane's sequence without advancing the bank).
    pub fn get(&self, i: usize) -> Xoshiro256pp {
        Xoshiro256pp {
            s: [self.s0[i], self.s1[i], self.s2[i], self.s3[i]],
        }
    }

    /// Next 64-bit output of lane `i` — the exact
    /// [`Xoshiro256pp::next_u64`] update applied to lane `i`'s state.
    #[inline]
    pub fn next_u64_at(&mut self, i: usize) -> u64 {
        let result = self.s0[i]
            .wrapping_add(self.s3[i])
            .rotate_left(23)
            .wrapping_add(self.s0[i]);
        let t = self.s1[i] << 17;
        self.s2[i] ^= self.s0[i];
        self.s3[i] ^= self.s1[i];
        self.s1[i] ^= self.s2[i];
        self.s0[i] ^= self.s3[i];
        self.s2[i] ^= t;
        self.s3[i] = self.s3[i].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` from lane `i` (same derivation as
    /// [`Xoshiro256pp::next_f64`]).
    #[inline]
    pub fn next_f64_at(&mut self, i: usize) -> f64 {
        (self.next_u64_at(i) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, n)` from lane `i` (same Lemire map as
    /// [`Xoshiro256pp::below`]).
    #[inline]
    pub fn below_at(&mut self, i: usize, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        ((self.next_u64_at(i) as u128 * n as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[lo, hi)` from lane `i` (same derivation as
    /// [`Xoshiro256pp::f64_in`]).
    #[inline]
    pub fn f64_in_at(&mut self, i: usize, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64_at(i) * (hi - lo)
    }

    /// Batch pass: one `next_f64` draw from each of the `out.len()`
    /// consecutive lanes starting at `start`, written to `out` in lane
    /// order. The per-lane update and f64 derivation are token-identical
    /// to the scalar path; the loop runs column-wise so LLVM can
    /// vectorize it, and because every operation is exact (integer state
    /// update, single int→float conversion, one multiply by a power of
    /// two) the results are bit-identical to `out.len()` scalar calls.
    pub fn fill_next_f64(&mut self, start: usize, out: &mut [f64]) {
        let end = start + out.len();
        let s0 = &mut self.s0[start..end];
        let s1 = &mut self.s1[start..end];
        let s2 = &mut self.s2[start..end];
        let s3 = &mut self.s3[start..end];
        for l in 0..out.len() {
            let result = s0[l]
                .wrapping_add(s3[l])
                .rotate_left(23)
                .wrapping_add(s0[l]);
            let t = s1[l] << 17;
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= t;
            s3[l] = s3[l].rotate_left(45);
            out[l] = (result >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_lanes(n: usize) -> Vec<Xoshiro256pp> {
        (0..n)
            .map(|i| Xoshiro256pp::child(0xBA2C, i as u64))
            .collect()
    }

    fn bank_of(lanes: &[Xoshiro256pp]) -> XoshiroBank {
        let mut bank = XoshiroBank::new();
        for rng in lanes {
            bank.push(rng.clone());
        }
        bank
    }

    #[test]
    fn scalar_accessors_match_standalone_generators_bitwise() {
        let mut lanes = scalar_lanes(13);
        let mut bank = bank_of(&lanes);
        for round in 0..50 {
            for (i, rng) in lanes.iter_mut().enumerate() {
                // Interleave every draw kind; lane state must track the
                // standalone generator exactly.
                match (round + i) % 4 {
                    0 => assert_eq!(bank.next_u64_at(i), rng.next_u64()),
                    1 => assert_eq!(bank.next_f64_at(i).to_bits(), rng.next_f64().to_bits()),
                    2 => assert_eq!(bank.below_at(i, 3), rng.below(3)),
                    _ => assert_eq!(
                        bank.f64_in_at(i, -1.0, 1.0).to_bits(),
                        rng.signed_unit().to_bits()
                    ),
                }
            }
        }
        for (i, rng) in lanes.iter().enumerate() {
            assert_eq!(&bank.get(i), rng);
        }
    }

    #[test]
    fn batch_fill_matches_scalar_draws_bitwise() {
        // Sizes straddle lane-width multiples; offsets exercise interior
        // windows of the columns.
        for n in [1usize, 2, 7, 8, 9, 16, 33] {
            let mut lanes = scalar_lanes(n);
            let mut bank = bank_of(&lanes);
            let mut out = vec![0.0f64; n];
            for _ in 0..20 {
                bank.fill_next_f64(0, &mut out);
                for (i, rng) in lanes.iter_mut().enumerate() {
                    assert_eq!(
                        out[i].to_bits(),
                        rng.next_f64().to_bits(),
                        "lane {i} of {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_fill_with_offset_advances_only_the_window() {
        let lanes = scalar_lanes(10);
        let mut bank = bank_of(&lanes);
        let mut out = [0.0f64; 4];
        bank.fill_next_f64(3, &mut out);
        for (i, rng) in lanes.iter().enumerate() {
            let mut expect = rng.clone();
            if (3..7).contains(&i) {
                assert_eq!(out[i - 3].to_bits(), expect.next_f64().to_bits());
            }
            assert_eq!(&bank.get(i), &expect, "lane {i} state");
        }
    }

    #[test]
    fn empty_fill_is_a_no_op() {
        let lanes = scalar_lanes(3);
        let mut bank = bank_of(&lanes);
        bank.fill_next_f64(1, &mut []);
        for (i, rng) in lanes.iter().enumerate() {
            assert_eq!(&bank.get(i), rng);
        }
    }
}
