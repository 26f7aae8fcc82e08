//! Determinism contract of the parallel experiment engine: for any worker
//! count, the same experiment cells reduce to byte-identical reports in
//! the same order. The full sweep is compared across 1 and 2 workers
//! here, a cheap experiment subset at 4; CI also diffs `experiments all`
//! stdout across `CPM_WORKERS=1` and `CPM_WORKERS=4`.

use cpm_bench::{run_all_on, run_experiment, ALL_EXPERIMENTS};
use cpm_runtime::Pool;

/// Cheap, pure-computation experiments (control analysis + static
/// tables) — enough to exercise the fan-out/reduce path without paying
/// for full coordinator sweeps in a unit test.
const SMALL_GRID: &[&str] = &["table1", "table2", "table3", "poles", "margin"];

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

/// Every one-word lowercase token in backticks on an EXPERIMENTS.md
/// heading names an experiment id, so a retired id cannot linger in the
/// docs. Multi-word tokens (`experiments perf`) and type names are not
/// ids and are skipped.
#[test]
fn experiments_md_headings_name_only_known_ids() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).expect("EXPERIMENTS.md must exist");
    let mut checked = 0;
    for heading in doc
        .lines()
        .filter(|l| l.starts_with("## ") || l.starts_with("### "))
    {
        for token in heading.split('`').skip(1).step_by(2) {
            let is_id_shaped = !token.is_empty()
                && token
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit());
            if is_id_shaped {
                assert!(
                    ALL_EXPERIMENTS.contains(&token),
                    "EXPERIMENTS.md heading names unknown experiment `{token}`: {heading}"
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked > 0,
        "no experiment ids found on EXPERIMENTS.md headings"
    );
}
