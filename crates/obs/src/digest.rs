//! Stable digests over rendered text.
//!
//! Two hashes live here, both tiny, dependency-free and byte-stable
//! across platforms because they hash *rendered* text (fixed field
//! order, `{:.6}` precision), never raw floats or struct layouts.
//! Collision resistance is irrelevant: a digest defends against
//! accidental behavioral drift, not adversaries.
//!
//! * **XXH64** (seed 0, [`xxh64_digest`]) fingerprints the
//!   scenario harness's golden trajectories. It hashes a finished buffer
//!   in 32-byte stripes over four independent lanes, several bytes per
//!   cycle, so fingerprinting a trajectory costs a small fraction of
//!   rendering it.
//! * **FNV-1a 64** ([`Fnv1a64`], [`fnv1a64`], [`digest_str`]) is a
//!   serial multiply per byte. It stays for short digests that other
//!   code folds value by value, such as the benchmark's per-workload
//!   result digests.

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64 hasher (std-only, no `Hasher` trait so the
/// digest can never be confused with the randomized `DefaultHasher`).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64 {
    state: u64,
}

impl Fnv1a64 {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Folds `bytes` into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// The current 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64 of a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

/// Renders an FNV-1a digest value as `fnv1a64:<16 lowercase hex
/// digits>`.
pub fn format_digest(value: u64) -> String {
    format!("fnv1a64:{value:016x}")
}

/// FNV-1a digest of an arbitrary text fragment, in [`format_digest`]'s
/// format.
pub fn digest_str(text: &str) -> String {
    format_digest(fnv1a64(text.as_bytes()))
}

// The five XXH64 primes.
const XXH_P1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_P3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_P4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_P5: u64 = 0x27d4_eb2f_1656_67c5;

/// The little-endian word at the front of `bytes` (at least 8 long).
fn le64(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

/// One XXH64 lane round.
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

/// XXH64 of `bytes` with seed 0, as the reference implementation
/// computes it.
fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut acc = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in stripes {
            for (a, lane) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *a = xxh_round(*a, le64(lane));
            }
        }
        let mut h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        for a in acc {
            h = (h ^ xxh_round(0, a))
                .wrapping_mul(XXH_P1)
                .wrapping_add(XXH_P4);
        }
        h
    } else {
        XXH_P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let words = tail.chunks_exact(8);
    let mut rest = words.remainder();
    for word in words {
        h = (h ^ xxh_round(0, le64(word)))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
    }
    if rest.len() >= 4 {
        let mut half = [0; 4];
        half.copy_from_slice(&rest[..4]);
        h = (h ^ u64::from(u32::from_le_bytes(half)).wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(XXH_P5))
            .rotate_left(11)
            .wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// XXH64 of `bytes` in the committed golden format:
/// `xxh64:<16 lowercase hex digits>`.
pub fn xxh64_digest(bytes: &[u8]) -> String {
    format!("xxh64:{:016x}", xxh64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        // Reference vectors from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn known_xxh64_vectors() {
        // Published XXH64 vectors at seed 0. The 39-byte one takes a full
        // 32-byte stripe and then the 4-byte and single-byte tails.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        let spam = b"Nobody inspects the spammish repetition";
        assert_eq!(spam.len(), 39);
        assert_eq!(xxh64(spam), 0xfbce_a83c_8a37_8bf1);
        assert_eq!(xxh64_digest(b""), "xxh64:ef46db3751d8e999");
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = Fnv1a64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn digest_format_is_prefixed_lowercase_hex() {
        let d = format_digest(0xDEAD_BEEF);
        assert_eq!(d, "fnv1a64:00000000deadbeef");
        assert_eq!(d.len(), "fnv1a64:".len() + 16);
    }
}
