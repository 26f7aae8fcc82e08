//! The experiment sweep's byte contract: `experiments all` stdout is the
//! concatenation of [`run_all`]'s reports, and it must equal the committed
//! `goldens/experiments_all.txt` byte for byte. Regenerate that file with
//! `experiments all > goldens/experiments_all.txt` (see CONTRIBUTING.md)
//! only for an intended change to a reported number.

use cpm_bench::{run_all, run_experiment, ALL_EXPERIMENTS};

/// Cheap, pure-computation experiments (control analysis + static
/// tables) — enough to catch run-to-run nondeterminism without paying
/// for full coordinator sweeps.
const SMALL_GRID: &[&str] = &["table1", "table2", "table3", "poles", "margin"];

fn small_sweep() -> Vec<String> {
    SMALL_GRID
        .iter()
        .map(|id| run_experiment(id).expect("known id"))
        .collect()
}

#[test]
fn repeated_parallel_sweeps_are_stable() {
    // Two passes in one process: flushes out any run-to-run
    // nondeterminism (stray global state, time-dependent seeding).
    assert_eq!(small_sweep(), small_sweep());
}

#[test]
fn full_sweep_matches_the_committed_golden() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens/experiments_all.txt");
    let golden = std::fs::read_to_string(&path).expect("goldens/experiments_all.txt must exist");
    let sweep: String = run_all().reports.into_iter().map(|(_, r)| r).collect();
    if sweep != golden {
        let line = sweep
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| sweep.lines().count().min(golden.lines().count()));
        panic!(
            "`experiments all` stdout differs from goldens/experiments_all.txt at line {}:\n  \
             sweep:  {:?}\n  golden: {:?}",
            line + 1,
            sweep.lines().nth(line),
            golden.lines().nth(line)
        );
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
