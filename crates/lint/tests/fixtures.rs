//! Fixture-corpus tests: one must-fire and one must-not-fire case per
//! in-tree rule of the catalogue (the clippy-checked rules are covered by
//! the mutation corpus and the clippy gate).
//!
//! Fixtures live under `tests/fixtures/` (excluded from the workspace
//! scan) and are linted under a synthetic [`FileContext`] so each case
//! lands in the crate/role the rule targets.

use cpm_lint::rules::{classify, RuleId};
use cpm_lint::{lint_source, lint_sources};
use std::path::Path;

/// Reads a fixture file from the corpus.
fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// Lints a fixture as if it lived at `rel_path` in the workspace and
/// returns only the firings of `rule`.
fn firings(name: &str, rel_path: &str, rule: RuleId) -> Vec<usize> {
    let ctx = classify(rel_path);
    lint_source(&ctx, &fixture(name))
        .into_iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

/// Every in-tree rule and the minimum number of firings in its fire
/// fixture. Each case is linted as library code of `cpm-sim`.
const CASES: [(RuleId, usize); 6] = [
    (RuleId::Timing, 2),
    (RuleId::EnvRead, 1),
    (RuleId::UnsafeFile, 1),
    (RuleId::LockUnwrap, 2),
    (RuleId::AllowJustify, 1),
    (RuleId::SimdStable, 4),
];
const PATH: &str = "crates/sim/src/fx.rs";

/// The rule's fire or clean fixture: `timing_fire.rs`, `env_read_clean.rs`, ….
fn twin(rule: RuleId, kind: &str) -> String {
    format!("{}_{kind}.rs", rule.name().replace('-', "_"))
}

#[test]
fn every_rule_fires_on_its_fire_fixture() {
    for (rule, min) in CASES {
        let hits = firings(&twin(rule, "fire"), PATH, rule);
        assert!(
            hits.len() >= min,
            "{}: expected ≥{min} firings, got {hits:?}",
            twin(rule, "fire")
        );
    }
}

#[test]
fn no_rule_fires_on_its_clean_fixture() {
    for (rule, _) in CASES {
        let hits = firings(&twin(rule, "clean"), PATH, rule);
        assert!(
            hits.is_empty(),
            "{}: must not fire, but fired at lines {hits:?}",
            twin(rule, "clean")
        );
    }
}

#[test]
fn clean_fixtures_are_fully_clean() {
    // No *other* rule may fire on a clean fixture either — a clean case
    // that trips a neighbouring rule is a corpus bug.
    for (rule, _) in CASES {
        let all = lint_source(&classify(PATH), &fixture(&twin(rule, "clean")));
        assert!(
            all.is_empty(),
            "{rule:?}: expected no violations, got {all:?}"
        );
    }
}

#[test]
fn exempt_crates_do_not_fire_determinism_rules() {
    // The same timing/env sources are legal inside their home crate:
    // cpm-bench owns wall-clock and env reads.
    assert!(firings("timing_fire.rs", "crates/bench/src/fx.rs", RuleId::Timing).is_empty());
    assert!(firings(
        "env_read_fire.rs",
        "crates/bench/src/fx.rs",
        RuleId::EnvRead
    )
    .is_empty());
    // Test code outside them is not exempt: a clock in a test makes its
    // assertions depend on the host.
    assert!(!firings("timing_fire.rs", "tests/fx.rs", RuleId::Timing).is_empty());
    // unsafe is allowed only in the allow-listed file.
    assert!(firings(
        "unsafe_file_fire.rs",
        "tests/alloc_free.rs",
        RuleId::UnsafeFile
    )
    .is_empty());
}

#[test]
fn test_role_files_skip_library_only_rules() {
    // Integration tests may unwrap locks; the dimension pass reads
    // library code only.
    assert!(firings(
        "lock_unwrap_fire.rs",
        "crates/sim/tests/fx.rs",
        RuleId::LockUnwrap
    )
    .is_empty());
    assert!(workspace_firings(
        &[("dim_consistency_fire.rs", "crates/thermal/tests/fx.rs")],
        RuleId::DimConsistency,
    )
    .is_empty());
}

/// Lints a set of fixtures as one mini-workspace (the dimension pass
/// needs the whole file set) and filters to one rule's firings.
fn workspace_firings(files: &[(&str, &str)], rule: RuleId) -> Vec<(String, usize)> {
    let inputs: Vec<_> = files
        .iter()
        .map(|(fx, rel)| (classify(rel), fixture(fx)))
        .collect();
    lint_sources(&inputs)
        .into_iter()
        .filter(|v| v.rule == rule)
        .map(|v| (v.path, v.line))
        .collect()
}

#[test]
fn dim_consistency_fires_on_mixed_dimensions() {
    let hits = workspace_firings(
        &[("dim_consistency_fire.rs", "crates/thermal/src/fx.rs")],
        RuleId::DimConsistency,
    );
    assert!(
        hits.len() >= 4,
        "expected the 4 seeded dimension errors, got {hits:?}"
    );
}

#[test]
fn dim_consistency_stays_quiet_on_the_consistent_twin() {
    let hits = workspace_firings(
        &[("dim_consistency_clean.rs", "crates/thermal/src/fx.rs")],
        RuleId::DimConsistency,
    );
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn dim_consistency_is_scoped_to_the_physics_crates() {
    // The same mixed-dimension code in a non-physics crate stays quiet.
    let hits = workspace_firings(
        &[("dim_consistency_fire.rs", "crates/obs/src/fx.rs")],
        RuleId::DimConsistency,
    );
    assert!(hits.is_empty(), "{hits:?}");
}
