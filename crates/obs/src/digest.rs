//! Stable digests over flight-recorder traces.
//!
//! The scenario harness pins each named fault-injection scenario to a
//! *golden trajectory*: a short committed fingerprint of the full JSONL
//! event stream. The fingerprint is FNV-1a 64 — tiny, dependency-free,
//! and byte-stable across platforms because it hashes the *rendered*
//! JSONL text (fixed field order, `{:.6}` precision), never raw floats
//! or struct layouts. Collision resistance is irrelevant here: the
//! digest defends against accidental behavioral drift, not adversaries,
//! and any divergence is re-verified by an event-level diff before it is
//! reported.
//!
//! Most of a JSONL line is constant key text, and constant text folds in
//! O(1): FNV-1a's `h ^ b` touches only the low 8 bits of `h`, and the low
//! 8 bits of a product mod 2^64 depend only on the low 8 bits of its
//! factors. So for a constant string `K` of length `L`,
//! `fnv(h, K) = h·P^L + C_K[h & 0xff]` (mod 2^64), with the 256-entry
//! table `C_K[l] = fnv(l, K) − l·P^L` built at compile time by
//! `FnvJump::new` and applied by `Fnv1a64::update_literal`. The
//! identity is exact, not approximate: both sides are the same integer
//! mod 2^64 for every `h`. The JSONL writers apply it through
//! [`crate::fold_event_jsonl`].

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

    /// A hasher at an arbitrary state, for checking jumps from every
    /// state.
    #[cfg(test)]
    pub(crate) fn at_state(state: u64) -> Self {
        Self { state }
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

    /// Folds `bytes` into this state and into `twin`'s in one loop. The
    /// two FNV-1a chains are independent, so their multiplies overlap and
    /// both digests cost about what one does.
    pub fn update_pair(&mut self, twin: &mut Fnv1a64, bytes: &[u8]) {
        let (mut a, mut b) = (self.state, twin.state);
        for &x in bytes {
            a = (a ^ x as u64).wrapping_mul(FNV_PRIME);
            b = (b ^ x as u64).wrapping_mul(FNV_PRIME);
        }
        self.state = a;
        twin.state = b;
    }

    /// Folds `lit`'s text into the state in O(1), whatever its length:
    /// the same state as `update(lit.text().as_bytes())`.
    pub(crate) fn update_literal(&mut self, lit: &FnvLiteral) {
        let (h, jump) = (self.state, lit.jump);
        self.state = h
            .wrapping_mul(jump.pow)
            .wrapping_add(jump.table[(h & 0xff) as usize]);
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

/// The FNV-1a jump over a constant string of length `L`: `P^L` and the
/// 256-entry table `C[l] = fnv(l, text) − l·P^L` (module docs), 2,056
/// bytes. It holds no pointer, so a `static` of it is plain read-only
/// data that the loader never relocates or dirties.
#[derive(Debug)]
pub(crate) struct FnvJump {
    pow: u64,
    table: [u64; 256],
}

impl FnvJump {
    /// The jump over `text`, computed at compile time when used in a
    /// `static`.
    pub(crate) const fn new(text: &str) -> Self {
        let bytes = text.as_bytes();
        let mut pow = 1u64;
        let mut k = 0;
        while k < bytes.len() {
            pow = pow.wrapping_mul(FNV_PRIME);
            k += 1;
        }
        let mut table = [0u64; 256];
        let mut low = 0;
        while low < 256 {
            let mut h = low as u64;
            let mut k = 0;
            while k < bytes.len() {
                h = (h ^ bytes[k] as u64).wrapping_mul(FNV_PRIME);
                k += 1;
            }
            table[low] = h.wrapping_sub((low as u64).wrapping_mul(pow));
            low += 1;
        }
        Self { pow, table }
    }
}

/// Constant text with its FNV-1a jump, for writers that render the text
/// and fold it into a digest as they go. Declare it as
/// `static K: FnvLiteral = FnvLiteral::new(T, &FnvJump::new(T));` with
/// the same `T` twice.
#[derive(Debug)]
pub(crate) struct FnvLiteral {
    text: &'static str,
    jump: &'static FnvJump,
}

impl FnvLiteral {
    /// Pairs `text` with its jump, which must be `FnvJump::new(text)`.
    pub(crate) const fn new(text: &'static str, jump: &'static FnvJump) -> Self {
        Self { text, jump }
    }

    /// The constant text.
    pub(crate) fn text(&self) -> &'static str {
        self.text
    }
}

/// FNV-1a 64 of a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

/// Renders a digest value in the committed golden format:
/// `fnv1a64:<16 lowercase hex digits>`.
pub fn format_digest(value: u64) -> String {
    format!("fnv1a64:{value:016x}")
}

/// Digest of an arbitrary text fragment, in golden format.
pub fn digest_str(text: &str) -> String {
    format_digest(fnv1a64(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventPayload};

    #[test]
    fn known_fnv_vectors() {
        // Reference vectors from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = Fnv1a64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn paired_update_matches_two_single_updates() {
        let (mut a, mut b) = (Fnv1a64::new(), Fnv1a64::new());
        b.update(b"head|");
        a.update_pair(&mut b, b"foobar");
        assert_eq!(a.finish(), fnv1a64(b"foobar"));
        assert_eq!(b.finish(), fnv1a64(b"head|foobar"));
    }

    #[test]
    fn digest_format_is_prefixed_lowercase_hex() {
        let d = format_digest(0xDEAD_BEEF);
        assert_eq!(d, "fnv1a64:00000000deadbeef");
        assert_eq!(d.len(), "fnv1a64:".len() + 16);
    }

    #[test]
    fn event_digest_tracks_the_jsonl_rendering() {
        // The folded walk's whole chain is the digest of the JSONL text.
        fn digest(events: &[Event]) -> String {
            let (mut text, mut whole, mut block) = (Vec::new(), Fnv1a64::new(), Fnv1a64::new());
            for e in events {
                crate::export::fold_event_jsonl(&mut text, e, &mut whole, &mut block);
            }
            assert_eq!(whole.finish(), block.finish());
            format_digest(whole.finish())
        }
        let events = vec![Event {
            seq: 0,
            time_s: 0.0005,
            payload: EventPayload::TransducerRezero {
                island: 0,
                residual_w: 0.25,
                offset_w: 0.1,
            },
        }];
        assert_eq!(
            digest(&events),
            digest_str(&crate::export::events_to_jsonl(&events))
        );
        // Any payload change moves the digest.
        let mut other = events.clone();
        other[0].payload = EventPayload::TransducerRezero {
            island: 0,
            residual_w: 0.25,
            offset_w: 0.11,
        };
        assert_ne!(digest(&events), digest(&other));
    }
}
