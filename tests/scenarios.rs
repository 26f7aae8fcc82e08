//! Tier-1 golden-trajectory gate for the fault-injection scenario suite.
//!
//! Every catalogue entry must (a) replay bit-identically, (b) reproduce
//! its committed golden under `goldens/`, and (c) pass its behavioral
//! checks — under a plain root-package `cargo test`, no CI required.
//! The committed goldens are generated with
//! `experiments scenarios --update-goldens` and must be refreshed (and
//! the behavioral change explained) whenever the control stack's
//! trajectory intentionally moves.

use std::path::Path;

use cpm_scenario::{differential_report, run_scenario, GoldenDoc, CATALOGUE};

/// `goldens/<stem>.golden` for a scenario name.
fn golden_path(name: &str) -> std::path::PathBuf {
    let stem: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(format!("{stem}.golden"))
}

#[test]
fn every_scenario_reproduces_its_committed_golden() {
    for scenario in CATALOGUE {
        let path = golden_path(scenario.name);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "scenario {} has no committed golden at {} ({e}); generate it with \
                 `cargo run --release -p cpm-bench --bin experiments -- scenarios \
                 --update-goldens`",
                scenario.name,
                path.display()
            )
        });
        let golden = GoldenDoc::parse(&text)
            .unwrap_or_else(|e| panic!("corrupt golden {}: {e}", path.display()));
        let run = run_scenario(scenario).expect("scenario must run");
        if !golden.matches(&run.golden) {
            // Differential replay: distinguish nondeterminism from a
            // behavioral change before failing.
            let replay = run_scenario(scenario).expect("replay must run");
            panic!(
                "scenario {} diverged from its committed golden:\n{}",
                scenario.name,
                differential_report(&golden, &run.jsonl, &replay.jsonl)
            );
        }
        // The whole digest and event count match; the block digests and
        // anchors must match too, byte for byte.
        assert!(
            text == run.golden.render(),
            "golden {} matches the run's digest but not its blocks or anchors; \
             regenerate it with `cargo run --release -p cpm-bench --bin experiments -- \
             scenarios --update-goldens`",
            path.display()
        );
    }
}

#[test]
fn every_scenario_passes_its_behavioral_checks() {
    for scenario in CATALOGUE {
        let run = run_scenario(scenario).expect("scenario must run");
        for check in &run.checks {
            assert!(
                check.passed,
                "scenario {} check {} failed: {}",
                scenario.name, check.name, check.detail
            );
        }
        assert!(
            run.events > 0,
            "scenario {} produced an empty trajectory",
            scenario.name
        );
    }
}

#[test]
fn replaying_every_scenario_is_byte_identical() {
    for scenario in CATALOGUE {
        let a = run_scenario(scenario).expect("first run");
        let b = run_scenario(scenario).expect("second run");
        assert_eq!(
            a.jsonl, b.jsonl,
            "scenario {} replay is not byte-identical",
            scenario.name
        );
        assert_eq!(a.digest, b.digest);
    }
}

#[test]
fn a_perturbed_run_produces_a_divergence_report_naming_the_first_event() {
    // Golden from the committed catalogue entry…
    let scenario = cpm_scenario::find("stuck-knob@pid").expect("catalogue entry");
    let reference = run_scenario(scenario).expect("reference run");
    // …checked against a deliberately perturbed trajectory (one event
    // label rewritten — the smallest possible behavioral change).
    let perturbed =
        reference
            .jsonl
            .replacen("\"kind\": \"PicDecision\"", "\"kind\": \"PicDecisionX\"", 1);
    assert_ne!(
        reference.jsonl, perturbed,
        "perturbation must change the stream"
    );
    let report = differential_report(&reference.golden, &perturbed, &perturbed);
    assert!(
        report.contains("BEHAVIORAL-CHANGE"),
        "deterministic perturbation must be classified as behavioral change:\n{report}"
    );
    assert!(
        report.contains("First diverging event"),
        "report must name the first diverging event:\n{report}"
    );
    // The perturbed event is in block 0, so the anchor lines must show
    // the actual first event of the diverging block.
    assert!(
        report.contains("expected: {"),
        "missing expected anchor:\n{report}"
    );
    assert!(
        report.contains("actual:   {"),
        "missing actual anchor:\n{report}"
    );
}
