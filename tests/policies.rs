//! Per-policy integration tests through the full coordinator, on
//! configurations the headline end-to-end suite does not cover.

use cpm::core::coordinator::{run_with_baseline, PolicyKind};
use cpm::prelude::*;
use cpm_units::{IslandId, Seconds};

#[test]
fn mix2_homogeneous_islands_run_end_to_end() {
    let mut cfg = ExperimentConfig::paper_default();
    cfg.mix = Mix::Mix2;
    let out = Coordinator::new(cfg)
        .expect("valid")
        .run_for_gpm_intervals(20);
    // The M,M islands (1 and 3 in zero-based order) should end up at lower
    // operating points than the C,C islands (0 and 2).
    let c_level = (out.mean_island_dvfs(IslandId(0)) + out.mean_island_dvfs(IslandId(2))) / 2.0;
    let m_level = (out.mean_island_dvfs(IslandId(1)) + out.mean_island_dvfs(IslandId(3))) / 2.0;
    assert!(
        c_level > m_level + 0.3,
        "CPU-bound islands should run faster: C {c_level} vs M {m_level}"
    );
}

#[test]
fn sixteen_core_oracle_run_tracks() {
    let mut cfg = ExperimentConfig::paper_default().with_mix(Mix::Mix3, 16, 4);
    cfg.sensor = SensorMode::Oracle;
    let out = Coordinator::new(cfg)
        .expect("valid")
        .run_for_gpm_intervals(15);
    let mean = out.mean_chip_power_percent();
    assert!(
        (mean - out.budget_percent()).abs() < 0.08 * out.budget_percent(),
        "16-core oracle mean {mean} vs budget {}",
        out.budget_percent()
    );
}

#[test]
fn slow_pic_still_converges() {
    // (GPM, PIC) = (5 ms, 5 ms): one PIC invocation per GPM interval.
    let mut cfg = ExperimentConfig::paper_default();
    cfg.cmp.pic_interval = Seconds::from_ms(5.0);
    let out = Coordinator::new(cfg)
        .expect("valid")
        .run_for_gpm_intervals(40);
    assert_eq!(out.pics_per_gpm, 1);
    let mean = out.mean_chip_power_percent();
    assert!(
        (mean - out.budget_percent()).abs() < 0.12 * out.budget_percent(),
        "slow-PIC mean {mean}"
    );
}

#[test]
fn robustness_summary_is_within_paper_scale_bands() {
    let out = Coordinator::new(ExperimentConfig::paper_default())
        .expect("valid")
        .run_for_gpm_intervals(40);
    let r = out.robustness(0.05);
    // §IV quotes island overshoot within a few percent of target and
    // steady state within a handful of invocations; on the synthetic
    // substrate worst-case segment overshoot runs larger (phase spikes)
    // but must stay bounded, and the segment *means* must stay close.
    assert!(r.max_overshoot < 0.6, "worst overshoot {}", r.max_overshoot);
    assert!(
        r.max_steady_state_error < 0.30,
        "worst segment-mean error {}",
        r.max_steady_state_error
    );
}

#[test]
fn all_policy_kinds_construct_and_run() {
    let kinds: Vec<(PolicyKind, Mix, usize, usize)> = vec![
        (PolicyKind::Performance, Mix::Mix1, 8, 2),
        (PolicyKind::Variation, Mix::Mix1, 8, 2),
        (
            PolicyKind::Thermal(ThermalConstraints::linear(4, 0.45, 0.28)),
            Mix::Mix1,
            8,
            2,
        ),
    ];
    for (kind, mix, cores, width) in kinds {
        let cfg = ExperimentConfig::paper_default()
            .with_mix(mix, cores, width)
            .with_scheme(ManagementScheme::Cpm(kind.clone()));
        let out = Coordinator::new(cfg)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"))
            .run_for_gpm_intervals(8);
        assert!(out.total_instructions > 0.0, "{kind:?} retired nothing");
        assert!(
            out.mean_chip_power_percent() <= 102.0,
            "{kind:?} exceeded the physical envelope"
        );
    }
}

#[test]
fn thermal_policy_on_two_core_islands_also_holds() {
    // The thermal wrapper is not tied to single-core islands: run it on
    // the default 4×2 topology with linear adjacency.
    use cpm::core::policies::thermal::ThermalConstraints;
    let constraints = ThermalConstraints::linear(4, 0.45, 0.28);
    let mut coord = Coordinator::new(
        ExperimentConfig::paper_default()
            .with_scheme(ManagementScheme::Cpm(PolicyKind::Thermal(constraints))),
    )
    .expect("valid");
    coord.run_for_gpm_intervals(30);
    let stats = coord.thermal_stats().expect("stats");
    assert_eq!(stats.violated_intervals, 0);
}

#[test]
fn baseline_pairs_share_identical_phase_sequences() {
    // run_with_baseline's claim: same seeds → the baseline twin sees the
    // exact same workload. Check by comparing against a second baseline.
    let (_, b1) = run_with_baseline(ExperimentConfig::paper_default(), 6).expect("valid");
    let (_, b2) = run_with_baseline(ExperimentConfig::paper_default(), 6).expect("valid");
    assert_eq!(b1.total_instructions, b2.total_instructions);
}

#[test]
fn single_island_chip_runs_end_to_end() {
    // Degenerate topology: all 8 cores in one island — the GPM has nothing
    // to arbitrate, the single PIC does all the work.
    use cpm::workloads::WorkloadAssignment;
    let base = WorkloadAssignment::paper_mix(Mix::Mix1, 8);
    let cfg = ExperimentConfig::paper_default()
        .with_assignment(WorkloadAssignment::new(base.profiles().to_vec(), 8));
    let out = Coordinator::new(cfg)
        .expect("valid")
        .run_for_gpm_intervals(20);
    assert_eq!(out.island_actual_percent.len(), 1);
    let mean = out.mean_chip_power_percent();
    assert!(
        (mean - out.budget_percent()).abs() < 0.10 * out.budget_percent(),
        "single-island mean {mean} vs budget {}",
        out.budget_percent()
    );
}

#[test]
fn two_point_dvfs_table_still_caps() {
    // The coarsest possible actuator: only the 600 MHz and 2 GHz endpoints
    // exist, so the loop can merely duty-cycle between ~40 % and ~100 %
    // island power in slow sweeps (the PID + slew limit were designed for
    // the 8-point table). Exact tracking is not achievable — but the *cap*
    // guarantee must survive: the mean stays at or below the budget, and
    // the controller still modulates (it does not just pin an endpoint).
    use cpm::power::dvfs::DvfsTable;
    let mut cfg = ExperimentConfig::paper_default();
    cfg.cmp.dvfs = DvfsTable::pentium_m_envelope(2);
    let out = Coordinator::new(cfg)
        .expect("valid")
        .run_for_gpm_intervals(30);
    let mean = out.mean_chip_power_percent();
    assert!(
        mean <= out.budget_percent() + 2.0,
        "2-point table must still respect the cap: mean {mean} vs {}",
        out.budget_percent()
    );
    // Endpoint powers are ≈ 40 % (bottom) and ≈ 100 % (top): modulation
    // means the mean sits strictly between them.
    assert!(mean > 45.0, "controller pinned the bottom endpoint: {mean}");
}
