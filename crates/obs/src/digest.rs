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

use crate::event::Event;
use crate::export::events_to_jsonl;

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

/// Renders a digest value in the committed golden format:
/// `fnv1a64:<16 lowercase hex digits>`.
pub fn format_digest(value: u64) -> String {
    format!("fnv1a64:{value:016x}")
}

/// Digest of an arbitrary text fragment, in golden format.
pub fn digest_str(text: &str) -> String {
    format_digest(fnv1a64(text.as_bytes()))
}

/// Digest of an event slice: FNV-1a 64 over its JSONL rendering
/// (trailing newline included), in golden format. This is *the* scenario
/// trajectory fingerprint — two runs share a digest iff their exported
/// JSONL documents are byte-identical.
pub fn digest_events(events: &[Event]) -> String {
    digest_str(&events_to_jsonl(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventPayload;

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
            digest_events(&events),
            digest_str(&crate::export::events_to_jsonl(&events))
        );
        // Any payload change moves the digest.
        let mut other = events.clone();
        other[0].payload = EventPayload::TransducerRezero {
            island: 0,
            residual_w: 0.25,
            offset_w: 0.11,
        };
        assert_ne!(digest_events(&events), digest_events(&other));
    }
}
