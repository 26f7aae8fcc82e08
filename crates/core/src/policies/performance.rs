//! The performance-aware provisioning policy (paper §II-C, Eqs. 1–6).
//!
//! Goal: maximize total instruction throughput subject to the chip budget.
//! Each GPM interval the policy:
//!
//! 1. estimates the performance each island *should* have achieved given
//!    its last allocation change, from the cubic dynamic-power/frequency
//!    relation (Eqs. 1–4):
//!    `BIPSᵉᵢ(t) = BIPSᵃᵢ(t−1) · (Pᵢ(t−1)/Pᵢ(t−2))^{1/3}`,
//! 2. computes the achievement ratio `φᵢ(t) = BIPSᵃᵢ(t)/BIPSᵉᵢ(t)`
//!    (Eq. 5),
//! 3. provisions the next interval in proportion to the product of φ and
//!    the island's measured **frequency sensitivity**
//!    `sᵢ ≈ Δlog BIPS / Δlog P` (an online EWMA regression):
//!    `Pᵢ(t+1) ∝ φᵢ·(ε + sᵢ)`.
//!
//! The sensitivity term realizes the paper's stated mechanism — the GPM
//! scales each island "in the proportion of expected performance variation
//! for the scaling in frequency over the next interval", and "if the BIPS
//! metric for an application was low with a high power budget … the GPM
//! will … allocate the extra budget from this application to some other
//! application". The bare Eq. 6 ratio φ alone cannot do that: every
//! constant allocation is a fixed point of `Pᵢ ∝ φᵢ` (φ → 1 as soon as
//! allocations stop moving), so power would never migrate from
//! memory-bound islands (whose BIPS barely responds to frequency) to
//! CPU-bound ones. The measured `d log BIPS / d log P` slope is exactly
//! the "expected performance variation for the scaling" and separates the
//! two classes cleanly (≈ 0.4 for CPU-bound, ≈ 0 for memory-bound on
//! this substrate).
//!
//! Two details keep the estimator honest. The regression runs on the
//! *allocated* budgets — the excitation the GPM itself induced — never on
//! measured power, whose phase-driven co-movement with BIPS masquerades
//! as frequency-sensitivity on unthrottled islands. And until an island
//! has seen real excitation, its sensitivity prior is its measured busy
//! fraction: a core stalled on memory X % of the time can gain at most
//! (1−X) from a faster clock, so utilization separates the classes before
//! the regression has any data (and supplies the initial allocation skew
//! that *creates* the excitation).

use crate::gpm::{IslandFeedback, ProvisioningPolicy};
use cpm_units::Watts;

/// EWMA decay for the sensitivity regression.
const SENS_DECAY: f64 = 0.90;
/// Minimum |Δlog P| worth learning from (smaller deltas are noise).
const SENS_MIN_DELTA: f64 = 0.01;
/// Floor added to the sensitivity weight so no island is starved outright.
const WEIGHT_FLOOR: f64 = 0.05;
/// Headroom over the observed demand peak allowed in an allocation.
const DEMAND_HEADROOM: f64 = 1.15;
/// Tighter margin used when reclaiming from sated islands to feed hungry
/// ones; the 2 % slack left on the donor outruns the demand tracker's
/// 1 %-per-interval decay, so donors can still grow back.
const DEMAND_TRIM: f64 = 1.02;
/// Decay of the demand-peak tracker per GPM interval.
const DEMAND_DECAY: f64 = 0.99;

/// State carried between GPM invocations.
#[derive(Debug, Clone)]
struct IslandHistory {
    /// BIPSᵃ(t−1).
    prev_bips: f64,
    /// P(t−1): the allocation that produced the previous feedback.
    prev_alloc: f64,
    /// P(t−2).
    prev_prev_alloc: f64,
    /// EWMA accumulators for the through-origin regression of
    /// Δlog BIPS on Δlog P.
    sens_num: f64,
    sens_den: f64,
    /// Decayed peak of observed island power — the island's demonstrated
    /// *demand*. Allocating far above this is pure waste: the island pins
    /// its top operating point and the excess budget helps nobody ("the
    /// GPM would realize this fact and provision less power budget",
    /// §II-C).
    demand_peak: f64,
}

impl Default for IslandHistory {
    fn default() -> Self {
        Self {
            prev_bips: 0.0,
            prev_alloc: 0.0,
            prev_prev_alloc: 0.0,
            sens_num: 0.0,
            sens_den: 0.0,
            demand_peak: 0.0,
        }
    }
}

impl IslandHistory {
    /// Current sensitivity estimate `s = Δlog BIPS / Δlog P`, clamped to
    /// the physically meaningful band; `prior` until enough excitation has
    /// been seen. Callers pass the island's measured busy fraction as the
    /// prior — a core stalled on memory X % of the time can gain at most
    /// (1−X) from a frequency increase, so utilization is a first-order
    /// estimate of the elasticity that needs no excitation at all.
    fn sensitivity_or(&self, prior: f64) -> f64 {
        if self.sens_den < 1e-6 {
            prior
        } else {
            (self.sens_num / self.sens_den).clamp(0.0, 1.5)
        }
    }

    fn update_demand(&mut self, actual_power: f64) {
        self.demand_peak = (self.demand_peak * DEMAND_DECAY).max(actual_power);
    }

    fn learn(&mut self, bips_now: f64, alloc_now: f64) {
        if self.prev_bips > 1e-12 && self.prev_alloc > 1e-9 && bips_now > 1e-12 {
            // GPM-interval cadence (cold): the sanctioned libm gateway,
            // not the deterministic hot-path kernels.
            let dp = cpm_math::reference::ln(alloc_now / self.prev_alloc);
            if dp.abs() >= SENS_MIN_DELTA {
                let db = cpm_math::reference::ln(bips_now / self.prev_bips);
                self.sens_num = SENS_DECAY * self.sens_num + dp * db;
                self.sens_den = SENS_DECAY * self.sens_den + dp * dp;
            }
        }
    }
}

/// The Eq. 6 proportional-φ provisioning policy with frequency-sensitivity
/// weighting.
#[derive(Debug, Clone, Default)]
pub struct PerformanceAware {
    history: Vec<IslandHistory>,
    /// Per-round working buffers (the Eq. 6 weights and the rebalancing
    /// sums), kept so that `provision` allocates only the `Vec` it returns.
    weights: Vec<f64>,
    need: Vec<f64>,
    surplus: Vec<f64>,
    open: Vec<usize>,
}

impl PerformanceAware {
    /// Creates the policy (history fills in over the first two
    /// invocations, during which the split stays equal).
    pub fn new() -> Self {
        Self::default()
    }

    /// Guard against degenerate ratios when power barely changed or
    /// feedback is incomplete.
    fn phi(history: &IslandHistory, fb: &IslandFeedback) -> f64 {
        let expected = if history.prev_bips > 0.0
            && history.prev_alloc > 1e-9
            && history.prev_prev_alloc > 1e-9
        {
            history.prev_bips * (history.prev_alloc / history.prev_prev_alloc).cbrt()
        } else {
            // No usable history: expectation = what it actually did, φ = 1.
            fb.bips
        };
        if expected <= 1e-12 {
            1.0
        } else {
            // Clamp to keep one pathological interval from starving or
            // flooding an island.
            (fb.bips / expected).clamp(0.25, 4.0)
        }
    }
}

impl ProvisioningPolicy for PerformanceAware {
    fn name(&self) -> &'static str {
        "performance-aware"
    }

    fn provision(&mut self, budget: Watts, feedback: &[IslandFeedback]) -> Vec<Watts> {
        let n = feedback.len();
        if self.history.len() != n {
            self.history = vec![IslandHistory::default(); n];
        }
        // Learn sensitivities from the interval that just ended, regressing
        // on the *allocated* budgets — the excitation the GPM itself
        // induced. Regressing on measured power instead would confound the
        // estimate: an unthrottled memory-bound island's power and BIPS
        // co-move through workload phases (both scale with activity), which
        // reads as high frequency-sensitivity when the true elasticity is
        // near zero.
        for (h, fb) in self.history.iter_mut().zip(feedback) {
            h.learn(fb.bips, fb.allocated.value().max(1e-9));
            h.update_demand(fb.actual_power.value());
        }
        let weights = &mut self.weights;
        weights.clear();
        weights.extend(feedback.iter().zip(&self.history).map(|(fb, h)| {
            let prior = fb.utilization.value().clamp(0.0, 1.0);
            Self::phi(h, fb).sqrt() * (WEIGHT_FLOOR + h.sensitivity_or(prior))
        }));
        let sum: f64 = weights.iter().sum();
        let mut alloc: Vec<Watts> = if sum <= 1e-12 {
            vec![budget / n as f64; n]
        } else {
            weights.iter().map(|&w| budget * (w / sum)).collect()
        };
        // Demand-aware rebalancing: reclaim allocation beyond demand·TRIM
        // from sated islands to feed islands still below their demonstrated
        // demand. Without this, a weight-rich island hoards budget it
        // cannot convert into anything (it already runs at full speed)
        // while a weight-poor island sits throttled below demand even when
        // the budget covers everyone — management would cost throughput at
        // a 100 % budget. Both transfers are sum-preserving.
        let (need, surplus) = (&mut self.need, &mut self.surplus);
        for _ in 0..4 {
            need.clear();
            need.resize(n, 0.0);
            surplus.clear();
            surplus.resize(n, 0.0);
            for (i, (a, h)) in alloc.iter().zip(&self.history).enumerate() {
                if h.demand_peak <= 0.0 {
                    continue;
                }
                need[i] = (h.demand_peak - a.value()).max(0.0);
                surplus[i] = (a.value() - h.demand_peak * DEMAND_TRIM).max(0.0);
            }
            let total_need: f64 = need.iter().sum();
            let total_surplus: f64 = surplus.iter().sum();
            let take = total_need.min(total_surplus);
            if take <= 1e-9 {
                break;
            }
            for (i, a) in alloc.iter_mut().enumerate() {
                *a += Watts::new(take * (need[i] / total_need - surplus[i] / total_surplus));
            }
        }
        // Demand ceilings: cap every island at a small headroom over its
        // demonstrated peak power and hand the freed budget to islands
        // still below their caps (weight-proportionally). A few passes
        // converge; any un-placeable remainder stays unspent (safe).
        for _ in 0..3 {
            let mut freed = 0.0;
            let open = &mut self.open;
            open.clear();
            for (i, (a, h)) in alloc.iter_mut().zip(&self.history).enumerate() {
                if h.demand_peak <= 0.0 {
                    open.push(i);
                    continue;
                }
                let cap = h.demand_peak * DEMAND_HEADROOM;
                if a.value() > cap {
                    freed += a.value() - cap;
                    *a = Watts::new(cap);
                } else {
                    open.push(i);
                }
            }
            if freed <= 1e-9 || open.is_empty() {
                break;
            }
            let open_weight: f64 = open.iter().map(|&i| weights[i]).sum();
            if open_weight <= 1e-12 {
                break;
            }
            for &i in open.iter() {
                alloc[i] += Watts::new(freed * weights[i] / open_weight);
            }
        }
        // Roll history forward; record the *allocated* budget as the basis
        // for both the cube-root expectation (Eq. 5 is stated in power
        // budgets) and the next learning step.
        for (h, fb) in self.history.iter_mut().zip(feedback) {
            h.prev_prev_alloc = h.prev_alloc;
            h.prev_alloc = fb.allocated.value().max(1e-9);
            h.prev_bips = fb.bips;
        }
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_units::{IslandId, Ratio};

    /// Current per-island sensitivity estimates.
    fn sensitivities(p: &PerformanceAware) -> Vec<f64> {
        p.history.iter().map(|h| h.sensitivity_or(0.4)).collect()
    }

    fn fb(i: usize, allocated: f64, actual: f64, bips: f64) -> IslandFeedback {
        IslandFeedback {
            island: IslandId(i),
            allocated: Watts::new(allocated),
            actual_power: Watts::new(actual),
            bips,
            utilization: Ratio::new(0.7),
            epi: None,
            peak_temperature: 60.0,
        }
    }

    #[test]
    fn first_invocation_splits_equally() {
        let mut p = PerformanceAware::new();
        let a = p.provision(
            Watts::new(80.0),
            &[
                fb(0, 20.0, 19.0, 2.0),
                fb(1, 20.0, 19.0, 1.0),
                fb(2, 20.0, 19.0, 3.0),
                fb(3, 20.0, 19.0, 0.5),
            ],
        );
        // No history yet → φ = 1 and uniform sensitivity prior → equal.
        for w in &a {
            assert!((w.value() - 20.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sum_equals_budget() {
        let mut p = PerformanceAware::new();
        let feedback = [
            fb(0, 25.0, 24.0, 2.5),
            fb(1, 15.0, 14.0, 0.8),
            fb(2, 20.0, 19.0, 2.0),
            fb(3, 20.0, 19.0, 1.2),
        ];
        for _ in 0..5 {
            let a = p.provision(Watts::new(80.0), &feedback);
            let total: f64 = a.iter().map(|w| w.value()).sum();
            assert!((total - 80.0).abs() < 1e-9, "Eq. 6 invariant: Σ = budget");
        }
    }

    #[test]
    fn frequency_sensitive_island_wins_the_budget() {
        // Island 0 is CPU-bound: busy 90 % of the time, BIPS tracks its
        // budget as P^0.45, and it can absorb up to 30 W. Island 1 is
        // memory-bound: busy 35 %, BIPS flat in its budget, and it never
        // draws more than 12 W no matter what it is allocated. The
        // utilization prior skews the very first data-driven split, the
        // skew is the excitation the regression learns the real
        // elasticities from, and the demand tracker reclaims what the
        // memory-bound island provably cannot use.
        let mut p = PerformanceAware::new();
        let budget = Watts::new(40.0);
        let mut a0 = 20.0f64;
        let mut a1 = 20.0f64;
        let mut last = Vec::new();
        for _ in 0..30 {
            let p0 = a0.min(30.0);
            let p1 = a1.min(12.0);
            let b0 = 2.0 * (p0 / 20.0).powf(0.45);
            let b1 = 1.5; // flat
            let mut f0 = fb(0, a0, p0, b0);
            f0.utilization = Ratio::new(0.9);
            let mut f1 = fb(1, a1, p1, b1);
            f1.utilization = Ratio::new(0.35);
            last = p.provision(budget, &[f0, f1]);
            a0 = last[0].value();
            a1 = last[1].value();
        }
        assert!(
            last[0].value() > 1.3 * last[1].value(),
            "CPU-bound island should dominate: {last:?} (sens {:?})",
            sensitivities(&p)
        );
    }

    #[test]
    fn sensitivity_estimates_separate_classes() {
        let mut p = PerformanceAware::new();
        let budget = Watts::new(40.0);
        let mut p0 = 20.0;
        let mut p1 = 20.0;
        for k in 0..20 {
            // Externally perturb powers so both islands see excitation.
            let wiggle = if k % 2 == 0 { 1.1 } else { 0.9 };
            p0 *= wiggle;
            p1 *= wiggle;
            let b0 = 2.0 * (p0 / 20.0f64).powf(0.45);
            let b1 = 1.5 * (p1 / 20.0f64).powf(0.05);
            p.provision(budget, &[fb(0, p0, p0, b0), fb(1, p1, p1, b1)]);
        }
        let s = sensitivities(&p);
        assert!((s[0] - 0.45).abs() < 0.1, "cpu-bound sensitivity {s:?}");
        assert!(s[1] < 0.15, "memory-bound sensitivity {s:?}");
    }

    #[test]
    fn phi_clamping_bounds_reallocation() {
        let mut p = PerformanceAware::new();
        let budget = Watts::new(40.0);
        p.provision(budget, &[fb(0, 20.0, 20.0, 2.0), fb(1, 20.0, 20.0, 2.0)]);
        p.provision(budget, &[fb(0, 30.0, 30.0, 2.0), fb(1, 10.0, 10.0, 2.0)]);
        // Island 1's BIPS crashes to ~0: φ clamps at 0.25 and the weight
        // floor keeps it from being starved outright.
        let a = p.provision(budget, &[fb(0, 30.0, 30.0, 100.0), fb(1, 10.0, 10.0, 1e-6)]);
        assert!(a[1].value() > 0.01 * budget.value(), "no starvation: {a:?}");
    }

    #[test]
    fn zero_bips_everywhere_degrades_to_equal_split() {
        let mut p = PerformanceAware::new();
        let budget = Watts::new(40.0);
        p.provision(budget, &[fb(0, 20.0, 20.0, 0.0), fb(1, 20.0, 20.0, 0.0)]);
        let a = p.provision(budget, &[fb(0, 20.0, 20.0, 0.0), fb(1, 20.0, 20.0, 0.0)]);
        assert!((a[0].value() - a[1].value()).abs() < 1e-9);
    }

    #[test]
    fn island_count_change_resets_history() {
        let mut p = PerformanceAware::new();
        p.provision(
            Watts::new(40.0),
            &[fb(0, 20.0, 20.0, 2.0), fb(1, 20.0, 20.0, 2.0)],
        );
        let a = p.provision(Watts::new(40.0), &[fb(0, 20.0, 20.0, 2.0)]);
        assert_eq!(a.len(), 1);
    }
}
