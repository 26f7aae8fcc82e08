//! Fixture-corpus tests: one must-fire and one must-not-fire case per
//! rule of the catalogue, plus waiver/stale-waiver mechanics.
//!
//! Fixtures live under `tests/fixtures/` (excluded from the workspace
//! scan) and are linted under a synthetic [`FileContext`] so each case
//! lands in the crate/role the rule targets.

use cpm_lint::rules::{classify, RuleId};
use cpm_lint::{lint_source, lint_sources, reconcile, waivers, Waiver};
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

/// Every rule: (rule, fire fixture, clean fixture, virtual path, expected
/// minimum firings in the fire fixture).
const CASES: [(&str, RuleId, &str, &str, usize); 12] = [
    (
        "crates/sim/src/fx.rs",
        RuleId::HashIteration,
        "hash_iteration_fire.rs",
        "hash_iteration_clean.rs",
        3,
    ),
    (
        "crates/sim/src/fx.rs",
        RuleId::Timing,
        "timing_fire.rs",
        "timing_clean.rs",
        2,
    ),
    (
        "crates/sim/src/fx.rs",
        RuleId::EnvRead,
        "env_read_fire.rs",
        "env_read_clean.rs",
        1,
    ),
    (
        "crates/sim/src/fx.rs",
        RuleId::ThreadSpawn,
        "thread_spawn_fire.rs",
        "thread_spawn_clean.rs",
        2,
    ),
    (
        "crates/sim/src/fx.rs",
        RuleId::RngScope,
        "rng_scope_fire.rs",
        "rng_scope_clean.rs",
        3,
    ),
    (
        "crates/sim/src/fx.rs",
        RuleId::Output,
        "output_fire.rs",
        "output_clean.rs",
        2,
    ),
    (
        "crates/sim/src/fx.rs",
        RuleId::UnsafeFile,
        "unsafe_file_fire.rs",
        "unsafe_file_clean.rs",
        1,
    ),
    (
        "crates/sim/src/fx.rs",
        RuleId::PanicBare,
        "panic_bare_fire.rs",
        "panic_bare_clean.rs",
        1,
    ),
    (
        "crates/sim/src/fx.rs",
        RuleId::LockUnwrap,
        "lock_unwrap_fire.rs",
        "lock_unwrap_clean.rs",
        2,
    ),
    (
        "crates/sim/src/fx.rs",
        RuleId::AllowJustify,
        "allow_justify_fire.rs",
        "allow_justify_clean.rs",
        1,
    ),
    (
        "crates/sim/src/fx.rs",
        RuleId::SimdStable,
        "simd_stable_fire.rs",
        "simd_stable_clean.rs",
        4,
    ),
    (
        "crates/sim/src/fx.rs",
        RuleId::MathScope,
        "math_scope_fire.rs",
        "math_scope_clean.rs",
        4,
    ),
];

#[test]
fn every_rule_fires_on_its_fire_fixture() {
    for (path, rule, fire, _clean, min) in CASES {
        let hits = firings(fire, path, rule);
        assert!(
            hits.len() >= min,
            "{}: expected ≥{min} firings of {}, got {:?}",
            fire,
            rule.name(),
            hits
        );
    }
}

#[test]
fn no_rule_fires_on_its_clean_fixture() {
    for (path, rule, _fire, clean, _min) in CASES {
        let hits = firings(clean, path, rule);
        assert!(
            hits.is_empty(),
            "{}: {} must not fire, but fired at lines {:?}",
            clean,
            rule.name(),
            hits
        );
    }
}

#[test]
fn clean_fixtures_are_fully_clean() {
    // No *other* rule may fire on a clean fixture either — a clean case
    // that trips a neighbouring rule is a corpus bug.
    for (path, _rule, _fire, clean, _min) in CASES {
        let ctx = classify(path);
        let all = lint_source(&ctx, &fixture(clean));
        assert!(
            all.is_empty(),
            "{clean}: expected no violations at all, got {all:?}"
        );
    }
}

#[test]
fn exempt_crates_do_not_fire_determinism_rules() {
    // The same timing/env/thread sources are legal inside their home
    // crates: cpm-bench and cpm-runtime own wall-clock and env reads,
    // cpm-runtime owns thread creation.
    assert!(firings("timing_fire.rs", "crates/bench/src/fx.rs", RuleId::Timing).is_empty());
    assert!(firings("timing_fire.rs", "crates/runtime/src/fx.rs", RuleId::Timing).is_empty());
    assert!(firings(
        "env_read_fire.rs",
        "crates/runtime/src/fx.rs",
        RuleId::EnvRead
    )
    .is_empty());
    assert!(firings(
        "thread_spawn_fire.rs",
        "crates/runtime/src/fx.rs",
        RuleId::ThreadSpawn
    )
    .is_empty());
    // RNG construction is legal in the crates that own a seed-derivation
    // contract — including the fault-injection layer's per-effect child
    // streams (cpm-scenario).
    assert!(firings(
        "rng_scope_fire.rs",
        "crates/rng/src/fx.rs",
        RuleId::RngScope
    )
    .is_empty());
    assert!(firings(
        "rng_scope_fire.rs",
        "crates/scenario/src/fx.rs",
        RuleId::RngScope
    )
    .is_empty());
    assert!(firings(
        "rng_scope_fire.rs",
        "crates/workloads/src/fx.rs",
        RuleId::RngScope
    )
    .is_empty());
    assert!(firings(
        "rng_scope_fire.rs",
        "crates/control/src/fx.rs",
        RuleId::RngScope
    )
    .is_empty());
    // cpm-math is the sanctioned libm gateway: its accuracy twins and
    // `reference` module call the host libm by design.
    assert!(firings(
        "math_scope_fire.rs",
        "crates/math/src/fx.rs",
        RuleId::MathScope
    )
    .is_empty());
    // Printing is the bench harness's job, and binaries may print.
    assert!(firings("output_fire.rs", "crates/bench/src/fx.rs", RuleId::Output).is_empty());
    assert!(firings("output_fire.rs", "crates/lint/src/main.rs", RuleId::Output).is_empty());
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
    // Integration tests may print, panic, seed RNGs, and unwrap locks.
    assert!(firings(
        "rng_scope_fire.rs",
        "crates/sim/tests/fx.rs",
        RuleId::RngScope
    )
    .is_empty());
    assert!(firings("output_fire.rs", "crates/sim/tests/fx.rs", RuleId::Output).is_empty());
    assert!(firings(
        "panic_bare_fire.rs",
        "crates/sim/tests/fx.rs",
        RuleId::PanicBare
    )
    .is_empty());
    assert!(firings(
        "lock_unwrap_fire.rs",
        "crates/sim/tests/fx.rs",
        RuleId::LockUnwrap
    )
    .is_empty());
    // Tests compare kernels against libm; direct calls are their job.
    assert!(firings(
        "math_scope_fire.rs",
        "crates/sim/tests/fx.rs",
        RuleId::MathScope
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

#[test]
fn waiver_suppresses_a_matching_violation() {
    let ctx = classify("crates/sim/src/fx.rs");
    let violations = lint_source(&ctx, &fixture("panic_bare_fire.rs"));
    assert!(!violations.is_empty());
    let waiver = Waiver {
        rule: RuleId::PanicBare,
        path: "crates/sim/src/fx.rs".to_string(),
        reason: "fixture exercises the waiver path".to_string(),
    };
    let report = reconcile(violations, std::slice::from_ref(&waiver));
    assert!(report.active.is_empty(), "waiver must suppress the firing");
    assert_eq!(report.waived.len(), 1);
    assert!(report.stale.is_empty());
    assert!(!report.is_failure());
}

#[test]
fn stale_waiver_fails_after_the_violation_is_fixed() {
    // Lint the *clean* twin with the waiver that used to cover the fire
    // case: removing a violation without removing its waiver must fail.
    let ctx = classify("crates/sim/src/fx.rs");
    let violations = lint_source(&ctx, &fixture("panic_bare_clean.rs"));
    assert!(violations.is_empty());
    let waiver = Waiver {
        rule: RuleId::PanicBare,
        path: "crates/sim/src/fx.rs".to_string(),
        reason: "covered a panic that no longer exists".to_string(),
    };
    let report = reconcile(violations, std::slice::from_ref(&waiver));
    assert_eq!(report.stale.len(), 1);
    assert!(report.is_failure(), "a stale waiver must fail the run");
    assert!(report.render().contains("stale-waiver"));
}

#[test]
fn waiver_file_round_trips_through_the_parser() {
    let text = r#"
[[waiver]]
rule = "lock-unwrap"
path = "crates/sim/src/fx.rs"
reason = "fixture"
"#;
    let set = waivers::parse(text).unwrap();
    let ctx = classify("crates/sim/src/fx.rs");
    let report = reconcile(lint_source(&ctx, &fixture("lock_unwrap_fire.rs")), &set);
    assert!(report.active.is_empty());
    assert_eq!(report.waived.len(), 2);
}
