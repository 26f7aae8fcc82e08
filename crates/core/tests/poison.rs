//! A prober that panics while holding a coordinator memo lock (reference
//! -power probe, calibration sweep) must not wedge every coordinator
//! constructed afterwards: the caches only hold whole finished entries, so
//! later lookups recover the poisoned lock and replay bit-identically.
//! (That a memoized probe equals the direct probe is checked in
//! `coordinator`'s unit tests; the probe itself is private.)

use cpm_core::coordinator::{self, Coordinator, ExperimentConfig};

#[test]
fn poisoned_probe_memo_recovers_without_wedging_construction() {
    let cfg = ExperimentConfig::paper_default().with_budget_percent(80.0);
    let warm = Coordinator::new(cfg.clone()).unwrap();
    let reference_bits = warm.reference_power().value().to_bits();
    drop(warm);

    coordinator::poison_memo_caches_for_tests();

    // Construction performs the memoized probe lookup; it must recover the
    // poisoned lock and return the same bits, not panic or deadlock.
    let coord = Coordinator::new(cfg).unwrap();
    assert_eq!(
        coord.reference_power().value().to_bits(),
        reference_bits,
        "probe memo entry lost or corrupted by poisoning"
    );
}

#[test]
fn poisoned_sweep_memo_recovers_and_replays_bit_identical() {
    let cfg = ExperimentConfig::paper_default().with_budget_percent(80.0);
    let mut first = Coordinator::new(cfg.clone()).unwrap();
    first.calibrate();
    let out_first = first.run_for_gpm_intervals(4);

    coordinator::poison_memo_caches_for_tests();

    // calibrate() replays from the poisoned-then-recovered sweep memo; the
    // measured trajectory must still match the pre-poison run bit for bit.
    let mut second = Coordinator::new(cfg).unwrap();
    second.calibrate();
    let out_second = second.run_for_gpm_intervals(4);
    assert_eq!(
        out_first.reference_power.value().to_bits(),
        out_second.reference_power.value().to_bits()
    );
    assert_eq!(
        out_first.total_instructions.to_bits(),
        out_second.total_instructions.to_bits(),
        "post-poison replay diverged from the pre-poison run"
    );
}
