//! Determinism contract of the parallel experiment engine: for any worker
//! count, the same experiment cells reduce to byte-identical reports in
//! the same order. The full sweep is compared across 1 and 2 workers
//! here, a cheap experiment subset at 4; CI also diffs `experiments all`
//! stdout across `CPM_WORKERS=1` and `CPM_WORKERS=4`.

use cpm_bench::{run_all_on, run_experiment};
use cpm_runtime::Pool;

/// Cheap, pure-computation experiments (control analysis + static
/// tables) — enough to exercise the fan-out/reduce path without paying
/// for full coordinator sweeps in a unit test.
const SMALL_GRID: &[&str] = &[
    "table1", "table2", "table3", "poles", "margin", "bode", "locus",
];

fn sweep_on(pool: &Pool) -> Vec<String> {
    pool.parallel_map(SMALL_GRID.to_vec(), |id| {
        run_experiment(id).expect("known id")
    })
}

#[test]
fn serial_and_parallel_sweeps_are_byte_identical() {
    let serial = sweep_on(&Pool::new(1));
    let parallel = sweep_on(&Pool::new(4));
    assert_eq!(serial.len(), SMALL_GRID.len());
    for ((s, p), id) in serial.iter().zip(&parallel).zip(SMALL_GRID) {
        assert_eq!(s, p, "report for {id} differs between 1 and 4 workers");
    }
}

#[test]
fn repeated_parallel_sweeps_are_stable() {
    // Same pool width, two passes: flushes out any run-to-run
    // nondeterminism (stray global state, time-dependent seeding).
    let a = sweep_on(&Pool::new(4));
    let b = sweep_on(&Pool::new(4));
    assert_eq!(a, b);
}

#[test]
fn full_sweep_is_byte_identical_across_worker_counts() {
    let serial = run_all_on(&Pool::new(1)).reports;
    let parallel = run_all_on(&Pool::new(2)).reports;
    assert_eq!(serial.len(), parallel.len());
    for ((id, s), (_, p)) in serial.iter().zip(&parallel) {
        assert_eq!(s, p, "report for {id} differs between 1 and 2 workers");
    }
}
