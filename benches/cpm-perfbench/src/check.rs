//! Output checks: per-op range checks, the digest of an op's simulated
//! statistics, and the replay rule that compares every op with the first
//! replay of the same op.

use cpm_obs::{format_digest, Fnv1a64};
use cpm_units::Watts;

/// FNV-1a 64 over the bit patterns of simulated values.
#[derive(Debug, Clone)]
pub struct Digest(Fnv1a64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Self(Fnv1a64::new())
    }

    /// Folds in a float, bit for bit.
    pub fn f64(&mut self, x: f64) {
        self.0.update(&x.to_bits().to_le_bytes());
    }

    /// Folds in an integer.
    pub fn u64(&mut self, x: u64) {
        self.0.update(&x.to_le_bytes());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0.finish()
    }

    /// `fnv1a64:%016x`.
    pub fn render(&self) -> String {
        format_digest(self.value())
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

/// One op's output check: a verdict plus the digest of what it simulated.
#[derive(Debug, Clone, Default)]
pub struct OpCheck {
    /// Set when any value was out of range.
    pub bad: bool,
    /// Digest of the op's chip power, BIPS and DVFS indices.
    pub digest: Digest,
}

impl OpCheck {
    /// A passing check with an empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// A chip power: finite and in `(0, max]` (with one part in 10¹²
    /// of slack for a percent↔watt round trip), folded into the digest.
    pub fn power(&mut self, p: Watts, max: Watts) {
        let w = p.value();
        if !(w.is_finite() && w > 0.0 && w <= max.value() * (1.0 + 1e-12)) {
            self.bad = true;
        }
        self.digest.f64(w);
    }

    /// An operating-point index: inside a table of `levels` points.
    pub fn dvfs(&mut self, idx: usize, levels: usize) {
        if idx >= levels {
            self.bad = true;
        }
        self.digest.u64(idx as u64);
    }

    /// Any other simulated value: finite.
    pub fn finite(&mut self, x: f64) {
        if !x.is_finite() {
            self.bad = true;
        }
        self.digest.f64(x);
    }
}

/// The first replay's digest of each op position; later replays must
/// reproduce it.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    first: Vec<Option<u64>>,
}

impl Replay {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Judges op `index`: passes when its range checks held and its
    /// digest equals the first replay of the same op (the first replay
    /// sets the reference).
    pub fn judge(&mut self, index: usize, check: &OpCheck) -> bool {
        if self.first.len() <= index {
            self.first.resize(index + 1, None);
        }
        let d = check.digest.value();
        let same = *self.first[index].get_or_insert(d) == d;
        same && !check.bad
    }

    /// The reference digests, in op order, folded into one digest.
    pub fn render(&self) -> String {
        let mut d = Digest::new();
        for x in &self.first {
            d.u64(x.unwrap_or(0));
        }
        d.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_fails_an_op_whose_digest_moved() {
        let mut r = Replay::new();
        let mut a = OpCheck::new();
        a.finite(1.0);
        let mut b = OpCheck::new();
        b.finite(1.0 + f64::EPSILON);
        assert!(r.judge(0, &a));
        assert!(r.judge(0, &a));
        assert!(!r.judge(0, &b));
        assert!(r.judge(1, &b), "a new position sets its own reference");
    }

    #[test]
    fn range_checks_reject_bad_power_and_dvfs() {
        let max = Watts::new(100.0);
        for bad in [0.0, -1.0, 100.1, f64::NAN, f64::INFINITY] {
            let mut c = OpCheck::new();
            c.power(Watts::new(bad), max);
            assert!(c.bad, "{bad} W accepted");
        }
        let mut c = OpCheck::new();
        c.power(Watts::new(100.0), max);
        c.dvfs(7, 8);
        assert!(!c.bad);
        c.dvfs(8, 8);
        assert!(c.bad);
    }
}
