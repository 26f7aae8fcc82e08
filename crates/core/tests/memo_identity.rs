//! The coordinator's transducer-calibration-sweep memo must be
//! *bit-identical* to recomputation: a run whose calibration was replayed
//! from the cache has to produce exactly the trajectory a memo-free run
//! produces, or the workers=1 vs workers=4 byte-determinism gate would
//! depend on cache population order. (The reference-power probe memo is
//! checked against the direct probe in `coordinator`'s unit tests.)

use cpm_core::coordinator::{Coordinator, ExperimentConfig, Outcome};
use cpm_sim::TimeSeries;

fn series_bits(s: &TimeSeries) -> Vec<(u64, u64)> {
    s.samples()
        .iter()
        .map(|x| (x.time.value().to_bits(), x.value.to_bits()))
        .collect()
}

fn outcome_bits(o: &Outcome) -> Vec<Vec<(u64, u64)>> {
    let mut all = vec![
        series_bits(&o.chip_power_percent),
        series_bits(&o.chip_bips),
        series_bits(&o.peak_temperature),
    ];
    for s in o
        .island_actual_percent
        .iter()
        .chain(&o.island_target_percent)
        .chain(&o.island_dvfs_index)
    {
        all.push(series_bits(s));
    }
    all
}

#[test]
fn calibration_sweep_replay_reproduces_the_run_bit_for_bit() {
    let cfg = ExperimentConfig::paper_default().with_budget_percent(80.0);

    // First run populates (or reuses) the calibration-sweep memo.
    let mut first = Coordinator::new(cfg.clone()).unwrap();
    first.calibrate();
    let out_first = first.run_for_gpm_intervals(8);

    // Second run's calibrate() is a guaranteed replay from the cache; the
    // whole measured trajectory must still match bit for bit.
    let mut second = Coordinator::new(cfg).unwrap();
    second.calibrate();
    let out_second = second.run_for_gpm_intervals(8);

    assert_eq!(
        out_first.reference_power.value().to_bits(),
        out_second.reference_power.value().to_bits()
    );
    assert_eq!(
        out_first.total_instructions.to_bits(),
        out_second.total_instructions.to_bits()
    );
    assert_eq!(
        outcome_bits(&out_first),
        outcome_bits(&out_second),
        "replayed calibration diverged from the fresh run"
    );
}
