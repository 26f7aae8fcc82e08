//! Cross-crate integration: the substrate pieces composed outside the
//! coordinator — system identification against the simulator, PIC against
//! the chip.

use cpm::control::PidGains;
use cpm::core::model;
use cpm::core::pic::{PerIslandController, PicSensor};
use cpm::sim::{Chip, CmpConfig};
use cpm::workloads::{Mix, WorkloadAssignment};
use cpm_units::IslandId;

#[test]
fn identified_gain_keeps_the_paper_controller_stable() {
    // Close the design loop: identify a on the simulator, then verify the
    // paper's PID gains are stable for it AND for the whole guaranteed
    // perturbation band.
    let cmp = CmpConfig::paper_default();
    let a = model::identify_gain_paper(&cmp, 99, 30);
    assert!((0.4..1.2).contains(&a), "gain {a}");
    let margin = cpm::control::analysis::gain_margin(PidGains::paper(), a, 1e-3);
    assert!(margin > 1.5, "healthy robustness margin, got {margin}");
}

#[test]
fn pic_caps_a_real_simulated_island() {
    // A PIC driving the actual chip (not a test double): cap island 0 at
    // 60 % of its share while the rest run free.
    let cmp = CmpConfig::paper_default();
    let assignment = WorkloadAssignment::paper_mix(Mix::Mix1, 8);
    let mut chip = Chip::new(cmp.clone(), &assignment);
    let island_max = chip.max_power() / 4.0;
    let mut pic = PerIslandController::new(
        IslandId(0),
        cmp.dvfs.clone(),
        island_max,
        PidGains::paper(),
        0.79,
        PicSensor::Oracle,
    );
    let target = island_max * 0.55;
    pic.set_target(target);
    let mut tail = Vec::new();
    for k in 0..80 {
        let snap = chip.step_pic();
        let isl = &snap.islands[0];
        let idx = pic.invoke(isl.capacity_utilization, isl.power);
        chip.set_island_dvfs(IslandId(0), idx);
        if k >= 40 {
            tail.push(isl.power.value());
        }
    }
    let mean = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        (mean - target.value()).abs() / target.value() < 0.10,
        "capped island mean {mean} vs target {target}"
    );
}

#[test]
fn transducer_calibrated_on_the_simulator_matches_fig6_quality() {
    let cmp = CmpConfig::paper_default();
    let assignment = WorkloadAssignment::paper_mix(Mix::Mix1, 8);
    let mut chip = Chip::new(cmp.clone(), &assignment);
    let mut tr = cpm::power::UtilizationPowerTransducer::new();
    // Warm, sweep levels, observe island 0.
    for _ in 0..200 {
        chip.step_pic();
    }
    for level in (0..cmp.dvfs.len()).rev() {
        for i in 0..4 {
            chip.set_island_dvfs(IslandId(i), level);
        }
        chip.step_pic();
        for _ in 0..3 {
            let snap = chip.step_pic();
            tr.observe(snap.islands[0].capacity_utilization, snap.islands[0].power);
        }
    }
    let fit = tr.fit().expect("calibrated");
    assert!(fit.r_squared > 0.90, "linear R² {}", fit.r_squared);
    assert!(fit.slope > 0.0, "power rises with capacity utilization");
    // The estimate is usable as a sensor: within ~15 % at mid-range.
    let snap = chip.step_pic();
    let sensed = tr.estimate_power(snap.islands[0].capacity_utilization);
    let actual = snap.islands[0].power;
    assert!(
        (sensed.value() - actual.value()).abs() / actual.value() < 0.20,
        "sensed {sensed} vs actual {actual}"
    );
}

#[test]
fn model_validation_is_accurate_for_the_identified_gain() {
    let cmp = CmpConfig::paper_default();
    let a = model::identify_gain_paper(&cmp, 3, 30);
    let v = model::validate_model(&cmp, a, 11, 60);
    assert!(
        v.mean_relative_error < 0.12,
        "Fig. 5 error {}",
        v.mean_relative_error
    );
}

#[test]
fn thermal_grid_reflects_island_throttling() {
    // Throttle half the chip; its cores must end up measurably cooler.
    let cmp = CmpConfig::paper_default();
    let assignment = WorkloadAssignment::paper_mix(Mix::Mix1, 8);
    let mut chip = Chip::new(cmp, &assignment);
    chip.set_island_dvfs(IslandId(0), 0);
    chip.set_island_dvfs(IslandId(1), 0);
    for _ in 0..600 {
        chip.step_pic();
    }
    let temps = chip.temperatures_deg();
    let cool: f64 = temps[..4].iter().sum::<f64>() / 4.0;
    let hot: f64 = temps[4..8].iter().sum::<f64>() / 4.0;
    assert!(
        hot > cool + 3.0,
        "full-speed half {hot} °C vs throttled half {cool} °C"
    );
}

#[test]
fn energy_accounting_matches_power_times_time() {
    let cmp = CmpConfig::paper_default();
    let assignment = WorkloadAssignment::paper_mix(Mix::Mix1, 8);
    let mut chip = Chip::new(cmp, &assignment);
    let mut acc = cpm::power::EnergyAccount::new();
    let mut direct = 0.0;
    for _ in 0..50 {
        let snap = chip.step_pic();
        acc.record_interval(snap.chip_power, snap.dt, snap.instructions);
        direct += snap.chip_power.value() * snap.dt.value();
    }
    assert!((acc.total_energy().value() - direct).abs() < 1e-9);
    assert!(acc.energy_per_instruction().unwrap() > cpm_units::Joules::ZERO);
}

#[test]
fn dvfs_overhead_is_visible_end_to_end() {
    // Churn one island's knob every interval; the throughput difference
    // against a steady twin must be at least the configured freeze cost.
    let cmp = CmpConfig::paper_default();
    let assignment = WorkloadAssignment::paper_mix(Mix::Mix1, 8);
    let mut steady = Chip::new(cmp.clone(), &assignment);
    let mut churn = Chip::new(cmp, &assignment);
    let mut i_steady = 0.0;
    let mut i_churn = 0.0;
    for k in 0..200 {
        i_steady += steady.step_pic().instructions;
        churn.set_island_dvfs(IslandId(0), 6 + (k % 2));
        i_churn += churn.step_pic().instructions;
    }
    assert!(i_churn < i_steady);
}
