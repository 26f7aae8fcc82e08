//! Fig. 18: the thermal-aware provisioning policy.

use crate::report::{f, heading, Table};
use cpm_core::coordinator::{run_with_baseline, PolicyKind};
use cpm_core::policies::thermal::{ConstraintTracker, ThermalConstraints};
use cpm_core::prelude::*;
use cpm_units::{IslandId, Watts};

/// Fig. 18(a–c): run the SPEC roster on 8 single-core islands under the
/// performance-aware and thermal-aware policies; compare degradation and
/// count how often the performance policy violates the thermal constraints.
pub fn fig18() -> String {
    let constraints = ThermalConstraints::paper_eight_island();
    let rounds = 40;

    // (a) layout.
    let mut s = heading("Fig. 18 — thermal-aware power provisioning (SPEC roster)");
    s.push_str("(a) 8-core CMP, one core per island; adjacent pairs (1,2)(3,4)(5,6)(7,8):\n");
    s.push_str("    core1 mesa | core2 bzip | core3 gcc | core4 sixtrack | (row repeated)\n\n");

    // The performance-aware run (the violating baseline) and the
    // thermal-aware run are independent simulations.
    let mut perf_cfg = ExperimentConfig::paper_default();
    perf_cfg.mix = Mix::Thermal;
    perf_cfg.cmp = CmpConfig::with_topology(8, 1);
    let thermal_cfg = perf_cfg
        .clone()
        .with_scheme(ManagementScheme::Cpm(PolicyKind::Thermal(
            constraints.clone(),
        )));
    let (perf, base) = run_with_baseline(perf_cfg, rounds).expect("valid");
    let mut coord = Coordinator::new(thermal_cfg).expect("valid");
    let thermal = coord.run_for_gpm_intervals(rounds);
    let enforced = coord.thermal_stats().expect("thermal stats available");

    // (c): replay the performance policy's recorded GPM allocations through
    // an observe-only tracker.
    let mut tracker = ConstraintTracker::new(constraints, 8);
    let budget = perf.budget;
    let targets: Vec<_> = (0..8)
        .map(|i| perf.island_target_percent_gpm(IslandId(i)))
        .collect();
    for k in 0..targets[0].len() {
        let alloc: Vec<Watts> = targets
            .iter()
            .map(|ts| perf.reference_power * (ts.samples()[k].value / 100.0))
            .collect();
        tracker.observe(budget, &alloc);
    }

    s.push_str("(b) performance degradation vs the unmanaged baseline:\n");
    let mut t = Table::new(&["policy", "degradation %", "peak temp °C"]);
    t.row(&[
        "performance-aware".into(),
        f(perf.degradation_vs(&base), 2),
        f(perf.peak_temperature.max().unwrap_or(0.0), 1),
    ]);
    t.row(&[
        "thermal-aware".into(),
        f(thermal.degradation_vs(&base), 2),
        f(thermal.peak_temperature.max().unwrap_or(0.0), 1),
    ]);
    s.push_str(&t.render());
    s.push_str("\n(c) constraint violations:\n");
    let mut v = Table::new(&["policy", "% of GPM intervals violating"]);
    v.row(&[
        "performance-aware (observed)".into(),
        f(tracker.stats().violation_fraction() * 100.0, 1),
    ]);
    v.row(&[
        "thermal-aware (enforced)".into(),
        f(enforced.violation_fraction() * 100.0, 1),
    ]);
    s.push_str(&v.render());
    s.push_str("\npaper: with the thermal policy the budget is never exceeded and hotspots\nnever occur, at some extra performance cost vs the performance policy\n");
    s
}

#[cfg(test)]
mod tests {
    use cpm_core::policies::thermal::ThermalConstraints;

    #[test]
    fn paper_constraints_cover_eight_islands() {
        let c = ThermalConstraints::paper_eight_island();
        assert_eq!(c.adjacent_pairs.len(), 4);
        assert_eq!(c.single_streak, 4);
        assert_eq!(c.pair_streak, 2);
    }
}
