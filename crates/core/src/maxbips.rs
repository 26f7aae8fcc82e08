//! The MaxBIPS comparison baseline (Isci et al., reimplemented per §IV).
//!
//! MaxBIPS is an *open-loop* global manager: each interval it predicts, for
//! every island and every DVFS level, the power and BIPS that level would
//! produce, then picks the combination maximizing total predicted BIPS
//! subject to total predicted power ≤ budget, and sets the knobs directly —
//! no local feedback control. Its prediction table assumes:
//!
//! * dynamic power scales with `V²·f` and static power with `V` from the
//!   currently observed operating point (the affine split comes from a
//!   platform characterization of the static component),
//! * performance scales linearly with `f` (correct for CPU-bound work,
//!   optimistic for memory-bound work — one source of its inaccuracy).
//!
//! Because the table only contains the discrete knob settings, MaxBIPS
//! picks a combination whose predicted power is *below* the budget —
//! "a combination cannot always lead to power consumption that is equal to
//! budgeted power" — so it systematically undershoots (Fig. 11).
//!
//! The combination search is a knapsack-style dynamic program over
//! quantized power, exact to the quantization step and polynomial in
//! islands × levels × bins; the tests cross-check it against an
//! exhaustive scan.

use cpm_power::dvfs::DvfsTable;
use cpm_units::Watts;

/// One island's observed state, from which the prediction table is built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxBipsObservation {
    /// Power at the current operating point.
    pub power: Watts,
    /// Characterized static (leakage) component of `power` — does not
    /// scale with frequency, only (weakly) with voltage.
    pub static_power: Watts,
    /// Throughput at the current operating point.
    pub bips: f64,
    /// Current DVFS index.
    pub dvfs_index: usize,
}

/// Reusable DP working storage, kept across GPM rounds so [`MaxBips::choose`]
/// allocates nothing but its (island-sized) result once warm.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Flat island-major prediction table: `preds[i * levels + l]` is
    /// island `i`'s `(power, bips)` prediction at level `l`, built once per
    /// round.
    preds: Vec<(Watts, f64)>,
    /// `dp[b]` = best total BIPS using ≤ b bins, islands processed so far.
    dp: Vec<f64>,
    /// The island currently being folded in (double buffer for `dp`).
    next: Vec<f64>,
    /// Flat island-major pick table: `choice[i * (bins + 1) + b]`.
    choice: Vec<i32>,
}

/// The open-loop MaxBIPS manager.
#[derive(Debug, Clone)]
pub struct MaxBips {
    table: DvfsTable,
    /// Power quantization step for the DP, watts.
    bin_watts: f64,
    /// Derating applied to the budget before the search. An open-loop
    /// manager has no way to correct a prediction miss inside the interval,
    /// so a characterized deployment derates by its table's error margin;
    /// 5 % matches our workloads' phase variability. Set 0 for the raw
    /// textbook algorithm.
    safety_margin: f64,
    scratch: Scratch,
    /// Memoized `(budget, observations) → result` of the last `choose`
    /// call. The open-loop MaxBIPS manager re-evaluates an identical
    /// static characterization table every GPM round, so after the first
    /// round the search is a repeat; inputs are compared bit-exactly
    /// (`f64 ==`), so a replay returns exactly what recomputation would.
    last: Option<ChooseMemo>,
}

#[derive(Debug, Clone, Default)]
struct ChooseMemo {
    budget: Watts,
    observations: Vec<MaxBipsObservation>,
    result: Vec<usize>,
}

impl MaxBips {
    /// Creates a manager over the chip's DVFS table with the default
    /// 0.1 W DP quantization.
    pub fn new(table: DvfsTable) -> Self {
        Self {
            table,
            bin_watts: 0.1,
            safety_margin: 0.05,
            scratch: Scratch::default(),
            last: None,
        }
    }

    /// Overrides the DP power quantization (coarser = faster, slightly
    /// less optimal).
    #[cfg(test)]
    pub fn with_bin_watts(mut self, bin: f64) -> Self {
        assert!(bin > 0.0);
        self.bin_watts = bin;
        self
    }

    /// Overrides the prediction-error safety margin (0 = none).
    pub fn with_safety_margin(mut self, margin: f64) -> Self {
        assert!((0.0..1.0).contains(&margin));
        self.safety_margin = margin;
        self
    }

    /// The `(power, bips)` prediction for one island at one DVFS level —
    /// the allocation-free scalar form of [`MaxBips::predict`].
    pub fn predict_level(&self, obs: MaxBipsObservation, level: usize) -> (Watts, f64) {
        let cur = self.table.point(obs.dvfs_index);
        let cur_v2f = cur.v2f();
        let cur_f = cur.frequency.value();
        let cur_v = cur.voltage.value();
        let stat = obs.static_power.min(obs.power);
        let dyn_p = obs.power - stat;
        let p = self.table.point(level);
        let power = stat * (p.voltage.value() / cur_v) + dyn_p * (p.v2f() / cur_v2f);
        let bips = obs.bips * (p.frequency.value() / cur_f);
        (power, bips)
    }

    /// Builds the per-level prediction for one island: `(power, bips)` per
    /// DVFS index.
    pub fn predict(&self, obs: MaxBipsObservation) -> Vec<(Watts, f64)> {
        (0..self.table.len())
            .map(|l| self.predict_level(obs, l))
            .collect()
    }

    /// Chooses the DVFS index per island maximizing Σ predicted BIPS with
    /// Σ predicted power ≤ `budget` (knapsack DP over quantized power).
    /// When even the all-lowest combination exceeds the budget, returns
    /// all-lowest (the least-bad feasible action).
    ///
    /// The prediction table and DP tables live in a scratch buffer reused
    /// across rounds (hence `&mut self`); once warm, the only allocation is
    /// the island-sized result vector.
    pub fn choose(&mut self, budget: Watts, observations: &[MaxBipsObservation]) -> Vec<usize> {
        assert!(!observations.is_empty());
        if let Some(m) = &self.last {
            if m.budget == budget && m.observations == observations {
                return m.result.clone();
            }
        }
        let result = self.choose_uncached(budget, observations);
        self.last = Some(ChooseMemo {
            budget,
            observations: observations.to_vec(),
            result: result.clone(),
        });
        result
    }

    /// The memo-free search behind [`Self::choose`] — public so benches
    /// measure the DP itself, not a memo replay.
    pub fn choose_uncached(
        &mut self,
        budget: Watts,
        observations: &[MaxBipsObservation],
    ) -> Vec<usize> {
        let budget = budget * (1.0 - self.safety_margin);
        let n = observations.len();
        let levels = self.table.len();
        let bin_watts = self.bin_watts;
        // Build the prediction table once per round, flat and island-major.
        // (Same arithmetic as `predict_level`, with the per-island current-
        // point terms hoisted out of the level loop.)
        let scratch = &mut self.scratch;
        scratch.preds.clear();
        scratch.preds.reserve(n * levels);
        for &o in observations {
            let cur = self.table.point(o.dvfs_index);
            let cur_v2f = cur.v2f();
            let cur_f = cur.frequency.value();
            let cur_v = cur.voltage.value();
            let stat = o.static_power.min(o.power);
            let dyn_p = o.power - stat;
            for p in self.table.points() {
                let power = stat * (p.voltage.value() / cur_v) + dyn_p * (p.v2f() / cur_v2f);
                let bips = o.bips * (p.frequency.value() / cur_f);
                scratch.preds.push((power, bips));
            }
        }
        let bins = (budget.value() / bin_watts).floor() as usize;
        if bins == 0 {
            return vec![0; n];
        }
        // dp[b] = best total BIPS using ≤ b bins; choice[i·(bins+1)+b] =
        // level picked.
        const NEG: f64 = f64::NEG_INFINITY;
        scratch.dp.clear();
        scratch.dp.resize(bins + 1, 0.0);
        scratch.choice.clear();
        scratch.choice.resize(n * (bins + 1), -1);
        for i in 0..n {
            let pred = &scratch.preds[i * levels..(i + 1) * levels];
            scratch.next.clear();
            scratch.next.resize(bins + 1, NEG);
            let pick = &mut scratch.choice[i * (bins + 1)..(i + 1) * (bins + 1)];
            for (lvl, &(p, bips)) in pred.iter().enumerate() {
                // Round power *up* so the real total cannot exceed budget.
                let cost = (p.value() / bin_watts).ceil() as usize;
                // An iterator chain would obscure the dual indexing of
                // dp[b-cost] against next[b]/pick[b].
                #[allow(clippy::needless_range_loop)] // b indexes 3 tables at 2 offsets
                for b in cost..=bins {
                    if scratch.dp[b - cost] > NEG {
                        let cand = scratch.dp[b - cost] + bips;
                        if cand > scratch.next[b] {
                            scratch.next[b] = cand;
                            pick[b] = lvl as i32;
                        }
                    }
                }
            }
            // Make dp monotone in b (≤ b semantics) while keeping pick
            // consistent: propagate the best smaller-budget solution up.
            for b in 1..=bins {
                if scratch.next[b - 1] > scratch.next[b] {
                    scratch.next[b] = scratch.next[b - 1];
                    pick[b] = pick[b - 1];
                }
            }
            std::mem::swap(&mut scratch.dp, &mut scratch.next);
        }
        if scratch.dp[bins] == NEG {
            // No feasible combination: clamp everything to the floor.
            return vec![0; n];
        }
        // Backtrack. `pick[b]` was stored against the monotone-adjusted
        // table, so rewind per island by subtracting the picked cost.
        let mut out = vec![0usize; n];
        let mut b = bins;
        for i in (0..n).rev() {
            // Find the effective bin (monotone propagation may have come
            // from below).
            let lvl = scratch.choice[i * (bins + 1) + b];
            debug_assert!(lvl >= 0);
            let lvl = lvl.max(0) as usize;
            out[i] = lvl;
            let cost = (scratch.preds[i * levels + lvl].0.value() / bin_watts).ceil() as usize;
            b = b.saturating_sub(cost);
        }
        out
    }

    /// Exhaustive reference search (exponential): the oracle the DP is
    /// tested against on small configurations.
    #[cfg(test)]
    pub fn choose_exhaustive(
        &self,
        budget: Watts,
        observations: &[MaxBipsObservation],
    ) -> Vec<usize> {
        let budget = budget * (1.0 - self.safety_margin);
        let preds: Vec<Vec<(Watts, f64)>> = observations.iter().map(|&o| self.predict(o)).collect();
        let n = observations.len();
        let levels = self.table.len();
        let mut best = vec![0usize; n];
        let mut best_bips = f64::NEG_INFINITY;
        let mut combo = vec![0usize; n];
        loop {
            let power: f64 = combo
                .iter()
                .enumerate()
                .map(|(i, &l)| preds[i][l].0.value())
                .sum();
            if power <= budget.value() {
                let bips: f64 = combo.iter().enumerate().map(|(i, &l)| preds[i][l].1).sum();
                if bips > best_bips {
                    best_bips = bips;
                    best.copy_from_slice(&combo);
                }
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == n {
                    return best;
                }
                combo[i] += 1;
                if combo[i] < levels {
                    break;
                }
                combo[i] = 0;
                i += 1;
            }
        }
    }

    /// Total predicted power of a chosen combination.
    pub fn predicted_power(&self, observations: &[MaxBipsObservation], combo: &[usize]) -> Watts {
        observations
            .iter()
            .zip(combo)
            .map(|(&o, &l)| self.predict_level(o, l).0)
            .sum()
    }

    /// Total predicted BIPS of a chosen combination.
    pub fn predicted_bips(&self, observations: &[MaxBipsObservation], combo: &[usize]) -> f64 {
        observations
            .iter()
            .zip(combo)
            .map(|(&o, &l)| self.predict_level(o, l).1)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_rng::check;

    fn obs(power: f64, bips: f64, idx: usize) -> MaxBipsObservation {
        MaxBipsObservation {
            power: Watts::new(power),
            static_power: Watts::new(power * 0.2),
            bips,
            dvfs_index: idx,
        }
    }

    fn mgr() -> MaxBips {
        MaxBips::new(DvfsTable::pentium_m())
    }

    #[test]
    fn prediction_scales_v2f_and_f() {
        let m = mgr();
        let table = DvfsTable::pentium_m();
        let pred = m.predict(obs(20.0, 2.0, 7));
        // At the current index the prediction is the observation itself.
        assert!((pred[7].0.value() - 20.0).abs() < 1e-9);
        assert!((pred[7].1 - 2.0).abs() < 1e-12);
        // At the bottom: dynamic scales by v2f ratio, static by voltage,
        // bips by frequency ratio.
        let ratio_p = table.point(0).v2f() / table.point(7).v2f();
        let ratio_v = table.point(0).voltage.value() / table.point(7).voltage.value();
        let ratio_f = 600.0 / 2000.0;
        let expect = 4.0 * ratio_v + 16.0 * ratio_p;
        assert!((pred[0].0.value() - expect).abs() < 1e-9);
        assert!((pred[0].1 - 2.0 * ratio_f).abs() < 1e-12);
    }

    #[test]
    fn generous_budget_selects_top_everywhere() {
        let mut m = mgr();
        let o = vec![obs(20.0, 2.0, 7); 4];
        let combo = m.choose(Watts::new(1000.0), &o);
        assert_eq!(combo, vec![7; 4]);
    }

    #[test]
    fn tight_budget_never_exceeded() {
        let mut m = mgr();
        let o = vec![obs(20.0, 2.0, 7); 4];
        for budget in [30.0, 45.0, 60.0, 75.0] {
            let combo = m.choose(Watts::new(budget), &o);
            let p = m.predicted_power(&o, &combo);
            assert!(
                p.value() <= budget + 1e-9,
                "budget {budget}: predicted {p} with {combo:?}"
            );
        }
    }

    #[test]
    fn dp_matches_exhaustive_on_small_cases() {
        let mut m = mgr().with_bin_watts(0.01);
        let o = vec![
            obs(22.0, 2.4, 7),
            obs(18.0, 1.1, 7),
            obs(25.0, 3.0, 7),
            obs(16.0, 0.9, 7),
        ];
        for budget in [40.0, 55.0, 70.0] {
            let dp = m.choose(Watts::new(budget), &o);
            let ex = m.choose_exhaustive(Watts::new(budget), &o);
            let bips_dp = m.predicted_bips(&o, &dp);
            let bips_ex = m.predicted_bips(&o, &ex);
            assert!(
                bips_dp >= bips_ex - 0.02,
                "budget {budget}: DP {bips_dp} vs exhaustive {bips_ex}"
            );
            assert!(m.predicted_power(&o, &dp).value() <= budget + 1e-9);
        }
    }

    #[test]
    fn impossible_budget_clamps_to_floor() {
        let mut m = mgr();
        let o = vec![obs(20.0, 2.0, 7); 4];
        // All-lowest costs 4 · 20·(v2f0/v2f7) ≈ 4 · 3.26 = 13 W; ask for 1 W.
        let combo = m.choose(Watts::new(1.0), &o);
        assert_eq!(combo, vec![0; 4]);
    }

    #[test]
    fn high_bips_islands_win_the_budget() {
        let mut m = mgr();
        // Island 0 converts power into twice the throughput of island 1.
        let o = vec![obs(20.0, 4.0, 7), obs(20.0, 2.0, 7)];
        let combo = m.choose(Watts::new(30.0), &o);
        assert!(
            combo[0] > combo[1],
            "the efficient island should run faster: {combo:?}"
        );
    }

    #[test]
    fn undershoot_is_systematic() {
        // Fig. 11's observation: with discrete knobs the chosen combination
        // predicts strictly below budget for most budgets.
        let mut m = mgr();
        let o = vec![obs(20.0, 2.0, 7); 4];
        let mut undershoots = 0;
        for pct in [50.0, 60.0, 70.0, 80.0, 90.0] {
            let budget = 80.0 * pct / 100.0;
            let combo = m.choose(Watts::new(budget), &o);
            let p = m.predicted_power(&o, &combo).value();
            if p < budget - 0.5 {
                undershoots += 1;
            }
        }
        assert!(undershoots >= 3, "{undershoots} of 5 budgets undershot");
    }

    #[test]
    fn scales_to_32_islands() {
        let mut m = mgr().with_bin_watts(0.25);
        let o: Vec<_> = (0..32)
            .map(|i| obs(18.0 + (i % 5) as f64, 1.0 + (i % 3) as f64, 7))
            .collect();
        let combo = m.choose(Watts::new(400.0), &o);
        assert_eq!(combo.len(), 32);
        assert!(m.predicted_power(&o, &combo).value() <= 400.0 + 1e-9);
    }

    #[test]
    fn maxbips_dp_matches_exhaustive_up_to_quantization() {
        check::forall_cases("maxbips dp vs exhaustive", 128, |rng| {
            // Small island counts keep the 8^n exhaustive scan cheap while
            // still exercising the DP's monotone propagation and backtrack
            // (mixed per-island costs + tight budgets force picks to come
            // from smaller bins).
            let n = 2 + rng.below(2) as usize; // 2 or 3 islands
            let bin = 0.01;
            let mut mb = MaxBips::new(DvfsTable::pentium_m())
                .with_safety_margin(0.0)
                .with_bin_watts(bin);
            let obs: Vec<MaxBipsObservation> = (0..n)
                .map(|_| MaxBipsObservation {
                    power: Watts::new(rng.f64_in(8.0, 30.0)),
                    static_power: Watts::new(rng.f64_in(1.0, 6.0)),
                    bips: rng.f64_in(0.2, 5.0),
                    // Varying the observed operating point varies each
                    // island's cost column, which is what makes backtracking
                    // non-trivial.
                    dvfs_index: rng.below(8) as usize,
                })
                .collect();
            let budget = Watts::new(rng.f64_in(5.0, 40.0 * n as f64));

            let dp = mb.choose(budget, &obs);
            let dp_power = mb.predicted_power(&obs, &dp);
            let all_lowest = dp.iter().all(|&l| l == 0);
            assert!(
                dp_power.value() <= budget.value() + 1e-9 || all_lowest,
                "DP over budget: {dp_power} > {budget} with {dp:?}"
            );

            // The DP rounds each island's cost UP to the bin, which can shave
            // up to n·bin (+ one bin for the floor on the bin count) off the
            // effective budget; exhaustive search on that shaved budget is the
            // exact bound the DP must meet or beat.
            let shaved = Watts::new(budget.value() - (n as f64 + 1.0) * bin);
            if shaved.value() > 0.0 {
                let ex = mb.choose_exhaustive(shaved, &obs);
                let ex_power = mb.predicted_power(&obs, &ex);
                if ex_power.value() <= shaved.value() {
                    let bips_dp = mb.predicted_bips(&obs, &dp);
                    let bips_ex = mb.predicted_bips(&obs, &ex);
                    assert!(
                        bips_dp >= bips_ex - 1e-9,
                        "DP {bips_dp} < exhaustive {bips_ex} (budget {budget}, obs {obs:?})"
                    );
                }
            }

            // The round-to-round memo must replay exactly what the search
            // found: same inputs, bit-identical output.
            let replay = mb.choose(budget, &obs);
            assert_eq!(replay, dp, "memo replay diverged from the DP result");
            let recomputed = mb.choose_uncached(budget, &obs);
            assert_eq!(recomputed, dp, "memo result diverged from recomputation");
        });
    }
}
