//! End-to-end integration tests: the paper's headline claims, asserted
//! against full coordinated runs of the public API.

use cpm::core::coordinator::{run_with_baseline, PolicyKind};
use cpm::core::policies::thermal::ThermalConstraints;
use cpm::power::variation::VariationMap;
use cpm::prelude::*;
use cpm_units::Ratio;

#[test]
fn chip_budget_is_tracked_within_the_papers_band() {
    let out = Coordinator::new(ExperimentConfig::paper_default())
        .expect("valid")
        .run_for_gpm_intervals(40);
    let t = out.chip_tracking_error();
    // Paper Fig. 10: overshoot/undershoot mostly within 4 %; we allow a
    // small slack for the synthetic substrate.
    assert!(t.max_overshoot_percent < 6.0, "overshoot {t:?}");
    assert!(
        (out.mean_chip_power_percent() - out.budget_percent()).abs() < 3.0,
        "mean {} vs budget {}",
        out.mean_chip_power_percent(),
        out.budget_percent()
    );
}

#[test]
fn degradation_decreases_monotonically_with_budget() {
    // Fig. 12's shape.
    let mut prev = f64::INFINITY;
    for budget in [60.0, 80.0, 100.0] {
        let cfg = ExperimentConfig::paper_default().with_budget_percent(budget);
        let (m, b) = run_with_baseline(cfg, 20).expect("valid");
        let d = m.degradation_vs(&b);
        assert!(
            d < prev + 0.5,
            "degradation must fall with budget: {d} at {budget} (prev {prev})"
        );
        prev = d;
    }
    // And at a 100 % budget the cost of management is small.
    assert!(prev < 5.0, "near-free at full budget, got {prev}");
}

#[test]
fn maxbips_always_stays_below_budget() {
    // Fig. 11's MaxBIPS half.
    for budget in [60.0, 80.0] {
        let cfg = ExperimentConfig::paper_default()
            .with_budget_percent(budget)
            .with_scheme(ManagementScheme::MaxBips);
        let out = Coordinator::new(cfg)
            .expect("valid")
            .run_for_gpm_intervals(20);
        assert!(
            out.mean_chip_power_percent() < budget,
            "MaxBIPS must undershoot: {} at {budget}",
            out.mean_chip_power_percent()
        );
    }
}

#[test]
fn cpm_beats_maxbips_at_tight_budgets() {
    // The closed loop converts more of a tight budget into throughput.
    let cfg = ExperimentConfig::paper_default().with_budget_percent(70.0);
    let (cpm, base) = run_with_baseline(cfg.clone(), 25).expect("valid");
    let mb = Coordinator::new(cfg.with_scheme(ManagementScheme::MaxBips))
        .expect("valid")
        .run_for_gpm_intervals(25);
    assert!(
        cpm.degradation_vs(&base) < mb.degradation_vs(&base) + 0.5,
        "CPM {} vs MaxBIPS {}",
        cpm.degradation_vs(&base),
        mb.degradation_vs(&base)
    );
}

#[test]
fn island_targets_always_sum_to_the_budget() {
    // Eq. 6's invariant, end to end, at every recorded instant.
    let out = Coordinator::new(ExperimentConfig::paper_default())
        .expect("valid")
        .run_for_gpm_intervals(15);
    for k in 0..out.island_target_percent[0].len() {
        let total: f64 = out
            .island_target_percent
            .iter()
            .map(|ts| ts.samples()[k].value)
            .sum();
        assert!(
            total <= out.budget_percent() + 0.5,
            "t={k}: Σtargets {total} exceeds budget"
        );
    }
}

#[test]
fn thermal_policy_never_completes_a_violation_streak() {
    let mut cfg = ExperimentConfig::paper_default();
    cfg.mix = Mix::Thermal;
    cfg.cmp = CmpConfig::with_topology(8, 1);
    cfg.scheme =
        ManagementScheme::Cpm(PolicyKind::Thermal(ThermalConstraints::paper_eight_island()));
    let mut coord = Coordinator::new(cfg).expect("valid");
    coord.run_for_gpm_intervals(40);
    let stats = coord.thermal_stats().expect("stats");
    assert_eq!(
        stats.violated_intervals, 0,
        "no hotspots under the thermal policy (paper §IV-A)"
    );
}

#[test]
fn variation_policy_improves_efficiency_on_the_leakiest_island() {
    let variation = VariationMap::paper_four_island();
    let mut cfg = ExperimentConfig::paper_default();
    cfg.variation = Some(variation);
    let perf = Coordinator::new(cfg.clone())
        .expect("valid")
        .run_for_gpm_intervals(40);
    let var = Coordinator::new(cfg.with_scheme(ManagementScheme::Cpm(PolicyKind::Variation)))
        .expect("valid")
        .run_for_gpm_intervals(40);
    // Island 3 (index 2) leaks 2×: the greedy EPI search should lower its
    // watts-per-BIPS relative to the performance policy.
    let wpb = |o: &cpm::core::coordinator::Outcome, i: usize| {
        o.island_energy[i].average_power().unwrap().value() / o.island_energy[i].bips().unwrap()
    };
    assert!(
        wpb(&var, 2) < wpb(&perf, 2),
        "leakiest island efficiency: variation {} vs performance {}",
        wpb(&var, 2),
        wpb(&perf, 2)
    );
}

#[test]
fn runtime_budget_changes_are_reacquired() {
    let mut coord = Coordinator::new(ExperimentConfig::paper_default().with_budget_percent(90.0))
        .expect("valid");
    coord.run_for_gpm_intervals(10);
    coord.set_budget_fraction(Ratio::from_percent(65.0));
    let out = coord.run_for_gpm_intervals(15);
    assert!((out.budget_percent() - 65.0).abs() < 1e-9);
    // Skip the transition interval, then the new cap must hold.
    let tail = out.chip_power_percent_gpm();
    let late: Vec<f64> = tail.values().skip(3).collect();
    let mean = late.iter().sum::<f64>() / late.len() as f64;
    assert!((mean - 65.0).abs() < 4.0, "re-acquired mean {mean}");
}

#[test]
fn identical_configs_are_bit_for_bit_reproducible() {
    let a = Coordinator::new(ExperimentConfig::paper_default())
        .expect("valid")
        .run_for_gpm_intervals(8);
    let b = Coordinator::new(ExperimentConfig::paper_default())
        .expect("valid")
        .run_for_gpm_intervals(8);
    assert_eq!(a.total_instructions, b.total_instructions);
    let av: Vec<f64> = a.chip_power_percent.values().collect();
    let bv: Vec<f64> = b.chip_power_percent.values().collect();
    assert_eq!(av, bv);
}

#[test]
fn scaling_to_32_cores_keeps_tracking_quality() {
    let cfg = ExperimentConfig::paper_default().with_mix(Mix::Mix3, 32, 4);
    let out = Coordinator::new(cfg)
        .expect("valid")
        .run_for_gpm_intervals(15);
    let t = out.chip_tracking_error();
    assert!(
        t.max_overshoot_percent < 8.0,
        "32-core overshoot {}",
        t.max_overshoot_percent
    );
    assert_eq!(out.island_actual_percent.len(), 8);
}

#[test]
fn oracle_and_transducer_sensing_agree_in_the_mean() {
    let mut t_cfg = ExperimentConfig::paper_default();
    t_cfg.sensor = SensorMode::Transducer;
    let mut o_cfg = ExperimentConfig::paper_default();
    o_cfg.sensor = SensorMode::Oracle;
    let t_out = Coordinator::new(t_cfg)
        .expect("valid")
        .run_for_gpm_intervals(20);
    let o_out = Coordinator::new(o_cfg)
        .expect("valid")
        .run_for_gpm_intervals(20);
    assert!(
        (t_out.mean_chip_power_percent() - o_out.mean_chip_power_percent()).abs() < 3.0,
        "transducer {} vs oracle {}",
        t_out.mean_chip_power_percent(),
        o_out.mean_chip_power_percent()
    );
}

#[test]
fn adaptive_gain_tracks_at_least_as_well_as_fixed() {
    let mut fixed_cfg = ExperimentConfig::paper_default();
    fixed_cfg.plant_gain = 0.4; // deliberately misidentified
    let mut adaptive_cfg = fixed_cfg.clone();
    adaptive_cfg.adaptive_gain = true;
    let fixed = Coordinator::new(fixed_cfg)
        .expect("valid")
        .run_for_gpm_intervals(30);
    let adaptive = Coordinator::new(adaptive_cfg)
        .expect("valid")
        .run_for_gpm_intervals(30);
    let e_fixed = fixed.chip_tracking_error().mean_abs_error_percent;
    let e_adaptive = adaptive.chip_tracking_error().mean_abs_error_percent;
    assert!(
        e_adaptive <= e_fixed + 0.5,
        "adaptation must not hurt: adaptive {e_adaptive} vs fixed {e_fixed}"
    );
}

#[test]
fn bandwidth_ceiling_shows_up_at_32_cores() {
    // With the 6.4 GB/s controller, the 32-core all-mix chip generates
    // measurable contention that an infinite-bandwidth twin does not see.
    let mut cfg = ExperimentConfig::paper_default().with_mix(Mix::Mix3, 32, 4);
    cfg.budget_fraction = cpm_units::Ratio::from_percent(100.0);
    let real = Coordinator::new(cfg.clone())
        .expect("valid")
        .run_for_gpm_intervals(10);
    cfg.cmp.memory_bandwidth = None;
    let ideal = Coordinator::new(cfg)
        .expect("valid")
        .run_for_gpm_intervals(10);
    assert!(
        real.total_instructions <= ideal.total_instructions,
        "a bandwidth ceiling can only cost instructions"
    );
}
