//! The Global Power Manager: chip-budget provisioning across islands.
//!
//! The GPM runs every `T_global` (5 ms). It reads per-island feedback from
//! the *previous* GPM interval and produces the next power allocation,
//! delegating the actual split to a pluggable [`ProvisioningPolicy`] —
//! the decoupling the paper highlights as the architecture's key
//! flexibility (§II-C). The GPM then enforces two invariants regardless of
//! policy behaviour:
//!
//! * allocations are clamped to each island's physical range
//!   `[idle floor, island max]`, with the excess re-distributed
//!   (water-filling), and
//! * the total never exceeds the chip budget.

use cpm_obs::{EventPayload, Recorder};
use cpm_sim::Chip;
use cpm_units::{IslandId, Joules, Ratio, Watts};

/// What the GPM observed about one island over the last GPM interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IslandFeedback {
    /// The island.
    pub island: IslandId,
    /// Power allocated to it for the interval just ended.
    pub allocated: Watts,
    /// Average actual power it drew.
    pub actual_power: Watts,
    /// Average throughput (billions of instructions per second).
    pub bips: f64,
    /// Mean CPU utilization.
    pub utilization: Ratio,
    /// Energy per instruction over the interval, when instructions retired.
    pub epi: Option<Joules>,
    /// Hottest core temperature in the island, °C.
    pub peak_temperature: f64,
}

/// Constraint-violation statistics a policy may accumulate (used by the
/// thermal-aware policy and by observe-only trackers; see
/// [`crate::policies::thermal`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViolationStats {
    /// Intervals observed.
    pub intervals: u64,
    /// Intervals in which at least one constraint was violated.
    pub violated_intervals: u64,
}

impl ViolationStats {
    /// Fraction of intervals with a violation (Fig. 18(c)).
    pub fn violation_fraction(&self) -> f64 {
        if self.intervals == 0 {
            0.0
        } else {
            self.violated_intervals as f64 / self.intervals as f64
        }
    }
}

/// A policy that splits the chip budget across islands.
pub trait ProvisioningPolicy {
    /// Human-readable policy name (for reports).
    fn name(&self) -> &'static str;

    /// Computes the next per-island allocation. `feedback` is ordered by
    /// island id; the returned vector must have the same length. The GPM
    /// post-processes the result (range clamping + budget capping), so a
    /// policy may return an idealized split.
    fn provision(&mut self, budget: Watts, feedback: &[IslandFeedback]) -> Vec<Watts>;

    /// Constraint-violation statistics, for policies that track them
    /// (default: none).
    fn violation_stats(&self) -> Option<&ViolationStats> {
        None
    }

    /// Attaches a flight-recorder handle, for policies that emit events
    /// (default: ignore it).
    fn set_recorder(&mut self, _recorder: Recorder) {}
}

/// Physical allocation bounds for one island.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IslandRange {
    /// Power the island draws even at the lowest V/F point (cannot
    /// allocate below this — the PIC could not meet it).
    pub floor: Watts,
    /// Power at the top V/F point, fully active.
    pub ceiling: Watts,
}

/// Physical allocation range per island of `chip`: floor = idle power at
/// the lowest operating point; ceiling = the max-power basis share.
pub fn island_ranges(chip: &Chip) -> Vec<IslandRange> {
    let cfg = chip.config();
    let min_op = cfg.dvfs.min_point();
    (0..cfg.islands())
        .map(|i| {
            let mult = chip.variation().multiplier(IslandId(i));
            let idle_core = cfg.power.total_power(
                min_op,
                Ratio::ZERO,
                cpm_power::LeakageModel::HOT_REFERENCE,
                mult,
            );
            let max_core = cfg.power.max_power(&cfg.dvfs, mult);
            IslandRange {
                floor: idle_core * cfg.cores_per_island as f64,
                ceiling: max_core * cfg.cores_per_island as f64,
            }
        })
        .collect()
}

/// The GPM: budget + policy + allocation post-processing.
pub struct GlobalPowerManager {
    budget: Watts,
    policy: Box<dyn ProvisioningPolicy + Send>,
    ranges: Vec<IslandRange>,
    invocations: u64,
    recorder: Recorder,
    /// Islands whose local controller is known dead (scenario failover):
    /// their "allocation" is pinned to the uncontrolled power they
    /// actually draw, and the healthy islands split what remains.
    failed: Vec<bool>,
}

impl GlobalPowerManager {
    /// Creates a GPM with the given chip budget, policy, and per-island
    /// physical ranges.
    pub fn new(
        budget: Watts,
        policy: Box<dyn ProvisioningPolicy + Send>,
        ranges: Vec<IslandRange>,
    ) -> Self {
        assert!(!ranges.is_empty(), "need at least one island");
        assert!(budget.value() > 0.0, "budget must be positive");
        for r in &ranges {
            assert!(r.floor.value() >= 0.0 && r.ceiling > r.floor);
        }
        let floor_sum: Watts = ranges.iter().map(|r| r.floor).sum();
        assert!(
            budget >= floor_sum,
            "budget {budget} below the chip's idle floor {floor_sum}"
        );
        let islands = ranges.len();
        Self {
            budget,
            policy,
            ranges,
            invocations: 0,
            recorder: Recorder::disabled(),
            failed: vec![false; islands],
        }
    }

    /// Attaches a flight-recorder handle; every `provision` then emits one
    /// [`EventPayload::GpmAllocation`] per island. The handle is also
    /// forwarded to the policy so constraint trackers and explorers share
    /// the same trace.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.policy.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The chip-wide budget.
    pub fn budget(&self) -> Watts {
        self.budget
    }

    /// Updates the chip-wide budget (e.g. a rack-level manager changed it).
    pub fn set_budget(&mut self, budget: Watts) {
        let floor_sum: Watts = self.ranges.iter().map(|r| r.floor).sum();
        assert!(budget >= floor_sum, "budget below idle floor");
        self.budget = budget;
    }

    /// The chip's idle floor: the least budget any allocation can meet
    /// (every island at the bottom operating point).
    pub fn floor(&self) -> Watts {
        self.ranges.iter().map(|r| r.floor).sum()
    }

    /// Marks one island's local controller dead or alive. While dead, the
    /// GPM *fails over*: the island's allocation is replaced by the
    /// uncontrolled power it actually drew last interval (range-clamped),
    /// that draw is charged against the budget, and only the healthy
    /// islands participate in the over-budget shave. Clearing the flag
    /// restores normal provisioning at the next invocation.
    pub fn set_island_failed(&mut self, island: IslandId, failed: bool) {
        self.failed[island.index()] = failed;
    }

    /// True when the island is currently marked failed.
    pub fn island_failed(&self, island: IslandId) -> bool {
        self.failed[island.index()]
    }

    /// Constraint-violation statistics from the active policy, if it
    /// tracks any (the thermal-aware policy does).
    pub fn policy_violation_stats(&self) -> Option<&ViolationStats> {
        self.policy.violation_stats()
    }

    /// GPM invocations so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Initial allocation before any feedback exists: the equal split of
    /// the paper ("power is initially provisioned equally to each island",
    /// §II-C), range-clamped.
    pub fn initial_allocation(&self) -> Vec<Watts> {
        let mut alloc = Vec::new();
        self.initial_allocation_into(&mut alloc);
        alloc
    }

    /// [`GlobalPowerManager::initial_allocation`] written into `alloc`,
    /// reusing its buffer.
    pub(crate) fn initial_allocation_into(&self, alloc: &mut Vec<Watts>) {
        let n = self.ranges.len();
        alloc.clear();
        alloc.resize(n, self.budget / n as f64);
        self.normalize_pinned(alloc, |_| false);
    }

    /// One GPM invocation: run the policy, then enforce the invariants.
    /// Its `GpmAllocation` events carry the invocation ordinal as their
    /// round.
    pub fn provision(&mut self, feedback: &[IslandFeedback]) -> Vec<Watts> {
        self.provision_round(feedback, self.invocations + 1)
    }

    /// [`GlobalPowerManager::provision`] for a caller that numbers the
    /// rounds itself: the coordinator, whose feedback-free rounds run no
    /// invocation but still take a round ordinal.
    pub(crate) fn provision_round(
        &mut self,
        feedback: &[IslandFeedback],
        round: u64,
    ) -> Vec<Watts> {
        assert_eq!(
            feedback.len(),
            self.ranges.len(),
            "feedback must cover every island"
        );
        self.invocations += 1;
        let mut raw = self.policy.provision(self.budget, feedback);
        assert_eq!(
            raw.len(),
            self.ranges.len(),
            "policy must allocate every island"
        );
        // Failover: a dead controller cannot enforce any allocation, so
        // pin the island at its observed uncontrolled draw and let the
        // shave below rebalance the healthy islands around it.
        for (i, a) in raw.iter_mut().enumerate() {
            if self.failed[i] {
                *a = feedback[i].actual_power;
            }
        }
        self.normalize_pinned(&mut raw, |i| self.failed[i]);
        if self.recorder.is_enabled() {
            for (island, (a, fb)) in raw.iter().zip(feedback).enumerate() {
                self.recorder.record(EventPayload::GpmAllocation {
                    round,
                    island: island as u32,
                    allocated_w: a.value(),
                    actual_w: fb.actual_power.value(),
                    budget_w: self.budget.value(),
                });
            }
        }
        raw
    }

    /// Clamps each allocation into its island's physical range and, when
    /// the total exceeds the budget, shaves the excess proportionally
    /// above the floors. The GPM never *adds* power a policy did not ask
    /// for: an under-budget allocation is a legitimate policy decision
    /// (the thermal-aware policy deliberately strands power to keep
    /// adjacent islands cool, and the demand-ceiling logic strands power
    /// no island can convert into work).
    ///
    /// Islands for which `pinned` holds are still range-clamped (physics
    /// does not care why a controller died) but contribute no slack to
    /// the over-budget shave — their draw is a fact the healthy islands
    /// must provision around.
    fn normalize_pinned(&self, alloc: &mut [Watts], pinned: impl Fn(usize) -> bool) {
        let n = alloc.len();
        // Non-finite or negative policy outputs become the floor.
        for (a, r) in alloc.iter_mut().zip(&self.ranges) {
            if !a.is_finite() || *a < r.floor {
                *a = r.floor;
            }
            if *a > r.ceiling {
                *a = r.ceiling;
            }
        }
        // An island's slack: what the shave may take from it.
        let slack = |i: usize, a: Watts| {
            if pinned(i) {
                0.0
            } else {
                (a - self.ranges[i].floor).value()
            }
        };
        // Over budget: shave proportionally above floors (a few passes
        // converge for n ≤ 32; floors bound the shave per pass).
        for _ in 0..n + 2 {
            let total: Watts = alloc.iter().copied().sum();
            let over = total - self.budget;
            if over.value() <= 1e-9 {
                break;
            }
            let total_slack: f64 = alloc.iter().enumerate().map(|(i, &a)| slack(i, a)).sum();
            if total_slack <= 1e-12 {
                break;
            }
            let scale = (over.value() / total_slack).min(1.0);
            for (i, a) in alloc.iter_mut().enumerate() {
                *a -= Watts::new(slack(i, *a) * scale);
            }
        }
    }
}

impl std::fmt::Debug for GlobalPowerManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalPowerManager")
            .field("budget", &self.budget)
            .field("policy", &self.policy.name())
            .field("islands", &self.ranges.len())
            .field("invocations", &self.invocations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Policy double: returns whatever allocations it was primed with.
    struct Fixed(Vec<f64>);
    impl ProvisioningPolicy for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn provision(&mut self, _b: Watts, _f: &[IslandFeedback]) -> Vec<Watts> {
            self.0.iter().map(|&w| Watts::new(w)).collect()
        }
    }

    fn ranges4() -> Vec<IslandRange> {
        vec![
            IslandRange {
                floor: Watts::new(4.0),
                ceiling: Watts::new(25.0),
            };
            4
        ]
    }

    fn feedback4() -> Vec<IslandFeedback> {
        (0..4)
            .map(|i| IslandFeedback {
                island: IslandId(i),
                allocated: Watts::new(20.0),
                actual_power: Watts::new(18.0),
                bips: 2.0,
                utilization: Ratio::new(0.7),
                epi: None,
                peak_temperature: 60.0,
            })
            .collect()
    }

    #[test]
    fn initial_allocation_is_equal_split() {
        let gpm = GlobalPowerManager::new(Watts::new(80.0), Box::new(Fixed(vec![])), ranges4());
        let a = gpm.initial_allocation();
        for w in &a {
            assert!((w.value() - 20.0).abs() < 1e-9);
        }
    }

    #[test]
    fn over_budget_requests_are_shaved_never_padded() {
        let mut gpm = GlobalPowerManager::new(
            Watts::new(60.0),
            Box::new(Fixed(vec![25.0, 25.0, 25.0, 25.0])),
            ranges4(),
        );
        let a = gpm.provision(&feedback4());
        let total: f64 = a.iter().map(|w| w.value()).sum();
        assert!((total - 60.0).abs() < 1e-6, "shaved to the budget: {total}");
        // Under-budget requests are honored verbatim (no upward fill).
        let mut gpm2 = GlobalPowerManager::new(
            Watts::new(80.0),
            Box::new(Fixed(vec![10.0, 10.0, 10.0, 10.0])),
            ranges4(),
        );
        let b = gpm2.provision(&feedback4());
        for w in &b {
            assert!((w.value() - 10.0).abs() < 1e-9, "no padding: {w}");
        }
    }

    #[test]
    fn floors_are_respected() {
        let mut gpm = GlobalPowerManager::new(
            Watts::new(30.0),
            Box::new(Fixed(vec![0.0, 0.0, 0.0, 30.0])),
            ranges4(),
        );
        let a = gpm.provision(&feedback4());
        for (i, w) in a.iter().enumerate() {
            assert!(w.value() >= 4.0 - 1e-9, "island {i} below floor: {w}");
        }
        let total: f64 = a.iter().map(|w| w.value()).sum();
        assert!(total <= 30.0 + 1e-6);
    }

    #[test]
    fn nan_policy_output_degrades_to_floor() {
        let mut gpm = GlobalPowerManager::new(
            Watts::new(80.0),
            Box::new(Fixed(vec![f64::NAN, 20.0, 20.0, 20.0])),
            ranges4(),
        );
        let a = gpm.provision(&feedback4());
        assert!(a[0].is_finite());
        assert!(a[0].value() >= 4.0);
    }

    #[test]
    fn requests_above_ceiling_are_clamped() {
        let mut gpm = GlobalPowerManager::new(
            Watts::new(200.0),
            Box::new(Fixed(vec![60.0, 60.0, 60.0, 60.0])),
            ranges4(),
        );
        let a = gpm.provision(&feedback4());
        for w in &a {
            assert!((w.value() - 25.0).abs() < 1e-6, "ceiling expected, got {w}");
        }
    }

    #[test]
    #[should_panic(expected = "idle floor")]
    fn infeasible_budget_rejected() {
        GlobalPowerManager::new(Watts::new(10.0), Box::new(Fixed(vec![])), ranges4());
    }

    #[test]
    #[should_panic(expected = "cover every island")]
    fn wrong_feedback_length_panics() {
        let mut gpm =
            GlobalPowerManager::new(Watts::new(80.0), Box::new(Fixed(vec![20.0; 4])), ranges4());
        gpm.provision(&feedback4()[..2]);
    }

    #[test]
    fn failed_island_is_pinned_to_its_actual_draw() {
        let mut gpm = GlobalPowerManager::new(
            Watts::new(60.0),
            Box::new(Fixed(vec![25.0, 25.0, 25.0, 25.0])),
            ranges4(),
        );
        let mut fb = feedback4();
        fb[1].actual_power = Watts::new(22.0); // uncontrolled draw
        gpm.set_island_failed(IslandId(1), true);
        assert!(gpm.island_failed(IslandId(1)));
        let a = gpm.provision(&fb);
        assert!(
            (a[1].value() - 22.0).abs() < 1e-9,
            "failed island pinned at its draw, got {}",
            a[1]
        );
        let total: f64 = a.iter().map(|w| w.value()).sum();
        assert!(total <= 60.0 + 1e-6, "budget respected: {total}");
        // The shave lands only on the healthy islands.
        for (i, w) in a.iter().enumerate() {
            if i != 1 {
                assert!(w.value() < 25.0 - 1e-9, "island {i} not shaved: {w}");
            }
        }
        // Recovery restores normal provisioning.
        gpm.set_island_failed(IslandId(1), false);
        let b = gpm.provision(&fb);
        let total: f64 = b.iter().map(|w| w.value()).sum();
        assert!((total - 60.0).abs() < 1e-6, "post-recovery total {total}");
    }

    #[test]
    fn floor_is_the_range_floor_sum() {
        let gpm = GlobalPowerManager::new(Watts::new(80.0), Box::new(Fixed(vec![])), ranges4());
        assert!((gpm.floor().value() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn invocations_count() {
        let mut gpm =
            GlobalPowerManager::new(Watts::new(80.0), Box::new(Fixed(vec![20.0; 4])), ranges4());
        gpm.provision(&feedback4());
        gpm.provision(&feedback4());
        assert_eq!(gpm.invocations(), 2);
    }
}
