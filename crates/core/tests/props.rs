//! Property-based tests for the management layer's invariants, on the
//! in-tree `cpm_rng::check` harness.

use cpm_core::gpm::{GlobalPowerManager, IslandFeedback, IslandRange, ProvisioningPolicy};
use cpm_core::maxbips::{MaxBips, MaxBipsObservation};
use cpm_core::metrics::{mean_settling, segment_metrics};
use cpm_power::dvfs::DvfsTable;
use cpm_rng::{check, Xoshiro256pp};
use cpm_units::{IslandId, Ratio, Watts};

/// A policy double emitting arbitrary (possibly hostile) allocations.
struct Arbitrary(Vec<f64>);
impl ProvisioningPolicy for Arbitrary {
    fn name(&self) -> &'static str {
        "arbitrary"
    }
    fn provision(&mut self, _b: Watts, _f: &[IslandFeedback]) -> Vec<Watts> {
        self.0.iter().map(|&w| Watts::new(w)).collect()
    }
}

fn feedback(n: usize) -> Vec<IslandFeedback> {
    (0..n)
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

/// Hostile policy outputs: negative, NaN, infinite, huge.
fn hostile_alloc(rng: &mut Xoshiro256pp) -> f64 {
    match rng.below(5) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 1e30,
        _ => rng.f64_in(-100.0, 200.0),
    }
}

#[test]
fn gpm_output_is_always_feasible() {
    check::forall_cases("gpm feasible", 128, |rng| {
        let raw: Vec<f64> = (0..4).map(|_| hostile_alloc(rng)).collect();
        let budget = rng.f64_in(30.0, 90.0);
        let ranges = vec![
            IslandRange {
                floor: Watts::new(4.0),
                ceiling: Watts::new(25.0)
            };
            4
        ];
        let mut gpm = GlobalPowerManager::new(Watts::new(budget), Box::new(Arbitrary(raw)), ranges);
        let alloc = gpm.provision(&feedback(4));
        let total: f64 = alloc.iter().map(|w| w.value()).sum();
        assert!(total <= budget + 1e-6, "Σ {total} > budget {budget}");
        for w in &alloc {
            assert!(w.is_finite());
            assert!(w.value() >= 4.0 - 1e-9, "below floor: {w}");
            assert!(w.value() <= 25.0 + 1e-9, "above ceiling: {w}");
        }
    });
}

#[test]
fn gpm_honors_feasible_requests_verbatim() {
    check::forall_cases("gpm passthrough", 128, |rng| {
        let raw: Vec<f64> = (0..4).map(|_| rng.f64_in(5.0, 24.0)).collect();
        let budget = rng.f64_in(30.0, 90.0);
        let ranges = vec![
            IslandRange {
                floor: Watts::new(4.0),
                ceiling: Watts::new(25.0)
            };
            4
        ];
        let mut gpm =
            GlobalPowerManager::new(Watts::new(budget), Box::new(Arbitrary(raw.clone())), ranges);
        let alloc = gpm.provision(&feedback(4));
        let requested: f64 = raw.iter().sum();
        if requested <= budget {
            // In-range, under-budget requests pass through unmodified —
            // the GPM never pads an allocation the policy didn't ask for
            // (deliberate stranding is a policy decision).
            for (a, r) in alloc.iter().zip(&raw) {
                assert!((a.value() - r).abs() < 1e-9, "{a} vs {r}");
            }
        } else {
            let total: f64 = alloc.iter().map(|w| w.value()).sum();
            assert!(
                (total - budget).abs() < 1e-6,
                "shaved Σ {total} != {budget}"
            );
        }
    });
}

#[test]
fn maxbips_choice_never_exceeds_budget() {
    check::forall_cases("maxbips under budget", 128, |rng| {
        let powers = check::vec_f64(rng, 5.0, 30.0, 1, 8);
        let bips = check::vec_f64(rng, 0.1, 5.0, 8, 9);
        let budget = rng.f64_in(10.0, 200.0);
        let mut mb = MaxBips::new(DvfsTable::pentium_m()).with_safety_margin(0.0);
        let obs: Vec<MaxBipsObservation> = powers
            .iter()
            .enumerate()
            .map(|(i, &p)| MaxBipsObservation {
                power: Watts::new(p),
                static_power: Watts::new(p * 0.2),
                bips: bips[i % bips.len()],
                dvfs_index: 7,
            })
            .collect();
        let combo = mb.choose(Watts::new(budget), &obs);
        let predicted = mb.predicted_power(&obs, &combo);
        // Either feasible, or the all-lowest fallback.
        let all_lowest = combo.iter().all(|&l| l == 0);
        assert!(
            predicted.value() <= budget + 1e-6 || all_lowest,
            "predicted {predicted} over budget {budget}: {combo:?}"
        );
    });
}

#[test]
fn maxbips_dp_is_at_least_as_good_as_uniform_throttling() {
    check::forall_cases("maxbips dp vs uniform", 128, |rng| {
        let bips = check::vec_f64(rng, 0.5, 4.0, 4, 5);
        let budget_frac = rng.f64_in(0.4, 1.0);
        let mut mb = MaxBips::new(DvfsTable::pentium_m()).with_safety_margin(0.0);
        let obs: Vec<MaxBipsObservation> = bips
            .iter()
            .map(|&b| MaxBipsObservation {
                power: Watts::new(20.0),
                static_power: Watts::new(4.0),
                bips: b,
                dvfs_index: 7,
            })
            .collect();
        let budget = Watts::new(80.0 * budget_frac);
        let combo = mb.choose(budget, &obs);
        let dp_bips = mb.predicted_bips(&obs, &combo);
        // Best *uniform* level fitting the budget the DP actually sees:
        // each island's cost is rounded UP to the 0.1 W bin (so real power
        // can never exceed the budget), which can shave up to n·bin off
        // the effective budget (plus one bin for the floor() on the bin
        // count). Compare against that so the property is exact rather
        // than off by quantization slack.
        let effective = Watts::new(budget.value() - 5.0 * 0.1);
        let mut best_uniform = 0.0f64;
        for lvl in 0..8 {
            let uniform = vec![lvl; 4];
            if mb.predicted_power(&obs, &uniform) <= effective {
                best_uniform = best_uniform.max(mb.predicted_bips(&obs, &uniform));
            }
        }
        assert!(
            dp_bips + 1e-6 >= best_uniform,
            "dp {dp_bips} < uniform {best_uniform}"
        );
    });
}

#[test]
fn segment_overshoot_matches_peak() {
    check::forall_cases("segment overshoot", 128, |rng| {
        let trace = check::vec_f64(rng, 1.0, 40.0, 1, 20);
        let target = rng.f64_in(5.0, 30.0);
        let m = segment_metrics(&trace, target, 0.05);
        let peak = trace.iter().cloned().fold(f64::MIN, f64::max);
        assert!((m.overshoot - ((peak - target) / target).max(0.0)).abs() < 1e-12);
    });
}

#[test]
fn mean_settling_tail_really_averages_into_band() {
    check::forall_cases("mean settling band", 128, |rng| {
        let trace = check::vec_f64(rng, 1.0, 40.0, 1, 30);
        let target = rng.f64_in(5.0, 30.0);
        if let Some(k) = mean_settling(&trace, target, 0.05) {
            let tail = &trace[k..];
            let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
            assert!((mean - target).abs() <= 0.05 * target + 1e-9);
        }
    });
}
