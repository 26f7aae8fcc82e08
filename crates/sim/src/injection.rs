//! Fault-injection seams for the control stack.
//!
//! The simulator exposes two narrow interfaces the controllers touch
//! every PIC interval — the utilization/power *sense* path feeding each
//! per-island controller, and the DVFS *actuate* path applying its
//! decision — plus two interval-rate knobs: the chip power budget and
//! per-island controller liveness. [`InjectionSeam`] lets a scenario
//! harness interpose on all four without the control stack knowing it is
//! under test: every method defaults to the identity, so an un-faulted
//! run through a seam is behaviorally (and, because the hot-path methods
//! never allocate, performance-) indistinguishable from no seam at all.
//!
//! The seam lives in `cpm-sim` (below the controllers in the dependency
//! graph) so both the coordinator in `cpm-core` and the scenario
//! catalogue in `cpm-scenario` can see it without a cycle. All times are
//! simulated seconds — wall-clock never enters an injection decision,
//! which is what keeps faulted trajectories byte-identical across runs
//! and worker counts.

use cpm_units::{IslandId, Ratio, Seconds, Watts};

/// An interposer on the control stack's sense/actuate/budget/liveness
/// seams. All methods take `&mut self` so effects can carry state (noise
/// streams, held samples, move counters); all default to the identity.
///
/// Contract: implementations must be deterministic functions of the
/// simulated time and their own state (seeded RNG included), and the
/// per-PIC-interval methods (`filter_sense`, `filter_actuate`,
/// `controller_failed`) must not allocate — they run inside the
/// coordinator's allocation-free measurement loop.
pub trait InjectionSeam {
    /// Filters one island's sensed `(capacity utilization, power)` pair
    /// before the controller sees it. Called once per island per PIC
    /// interval, before the controller invocation.
    fn filter_sense(
        &mut self,
        _time: Seconds,
        _island: IslandId,
        capacity_utilization: Ratio,
        power: Watts,
    ) -> (Ratio, Watts) {
        (capacity_utilization, power)
    }

    /// Filters one island's requested DVFS operating point before it is
    /// applied. `current` is the point the island is at now; returning it
    /// models a knob that refused to move.
    fn filter_actuate(
        &mut self,
        _time: Seconds,
        _island: IslandId,
        requested: usize,
        _current: usize,
    ) -> usize {
        requested
    }

    /// True while the island's local controller is offline: its sensing,
    /// control law, and re-zeroing are all skipped, and the global
    /// manager is told so it can fail over.
    fn controller_failed(&mut self, _time: Seconds, _island: IslandId) -> bool {
        false
    }

    /// Multiplier applied to the chip power budget this control round
    /// (1.0 = no transient). Sampled once per global-manager interval.
    fn budget_scale(&mut self, _time: Seconds) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The identity seam: every hook left at its default.
    struct NoInjection;

    impl InjectionSeam for NoInjection {}

    #[test]
    fn default_seam_is_the_identity() {
        let mut seam = NoInjection;
        let t = Seconds::new(0.01);
        let (u, p) = seam.filter_sense(t, IslandId(0), Ratio::new(0.5), Watts::new(12.0));
        assert_eq!(u.value(), 0.5);
        assert_eq!(p.value(), 12.0);
        assert_eq!(seam.filter_actuate(t, IslandId(1), 5, 3), 5);
        assert!(!seam.controller_failed(t, IslandId(2)));
        assert_eq!(seam.budget_scale(t), 1.0);
    }
}
