//! Tier-1 gate for the artifact schema tables: every `BENCH_*.json`
//! renderer must satisfy the same required-key check that CI applies
//! via `experiments check-schema`. Renderer and checker live in
//! different modules; this test keeps them from drifting apart — a key
//! added to a renderer without updating the table (or vice versa) fails
//! here, not in a post-merge CI surprise.

use std::collections::BTreeMap;

use cpm_bench::microbench::Measurement;
use cpm_bench::perf::{perf_json, PerfEntry, PerfReport};
use cpm_bench::scaling::{scaling_json, ScalingPoint, ScalingReport};
use cpm_bench::scenario::{run_scenario_suite, scenarios_json};
use cpm_bench::schema::{check_schema, ArtifactKind};
use cpm_bench::{publish_memo_stats, sweep_json, ExperimentTiming, SweepOutcome};

fn assert_clean(kind: ArtifactKind, json: &str) {
    let problems = check_schema(kind, json);
    assert!(
        problems.is_empty(),
        "{} renderer violates its schema table:\n{}\nartifact:\n{json}",
        kind.name(),
        problems.join("\n")
    );
}

fn m(ns: f64) -> Measurement {
    Measurement {
        median_ns: ns,
        min_ns: ns,
        batch: 1,
    }
}

#[test]
fn scenarios_artifact_passes_its_schema_gate() {
    // A real (golden-free, update-mode) suite run through the real
    // renderer — the exact document `experiments scenarios` writes.
    let suite = run_scenario_suite(BTreeMap::new(), true).expect("suite runs");
    assert_clean(ArtifactKind::Scenarios, &scenarios_json(&suite));
    // Every per-scenario health report must satisfy the HEALTH_*.json
    // gate too — these are the exact documents the binary writes.
    for report in &suite.reports {
        assert_clean(ArtifactKind::Health, &report.health_json);
    }
}

#[test]
fn health_artifact_passes_its_schema_gate() {
    let policy = cpm_obs::SloPolicy::default();
    let report = cpm_obs::HealthReport::new("pid@80", &[], &[], &policy);
    assert_clean(ArtifactKind::Health, &report.to_json());
}

#[test]
fn experiments_artifact_passes_its_schema_gate() {
    // The memo counters come from the sweep's own publisher, so a cache
    // that stops reporting fails the gate here.
    let registry = cpm_obs::Registry::new();
    publish_memo_stats(&registry);
    let sweep = SweepOutcome {
        reports: vec![("table1", "report\n".into())],
        timings: vec![ExperimentTiming {
            id: "table1",
            seconds: 0.25,
        }],
        total_seconds: 0.3,
        registry,
    };
    assert_clean(ArtifactKind::Experiments, &sweep_json(&sweep));
}

#[test]
fn perf_artifact_passes_its_schema_gate() {
    // Entry names mirror the real suite's target list (the schema table
    // requires each by name).
    let names = [
        "chip_step_8",
        "chip_step_8x1",
        "chip_step_32",
        "chip_step_1024",
        "math_sin_lane",
        "math_exp_lane",
        "pid_step",
        "maxbips_choose",
        "coordinator_round_8",
        "thermal_step_32",
        "thermal_step_64",
        "thermal_step_128",
        "cache_access",
        "calibration",
        "scenario_render_thermal",
        "scenario_fingerprint_thermal",
    ];
    let report = PerfReport {
        entries: names
            .iter()
            .map(|n| PerfEntry {
                name: n,
                m: m(10.0),
            })
            .collect(),
        sweep_seconds: 0.2,
        quick: true,
    };
    assert_clean(ArtifactKind::Perf, &perf_json(&report));
}

#[test]
fn scaling_artifact_passes_its_schema_gate() {
    // The schema table pins the kilocore point (`"cores": 1024`).
    let points = [8usize, 1024]
        .iter()
        .map(|&cores| ScalingPoint {
            cores,
            islands_requested: 4,
            islands: 4,
            width: cores / 4,
            step: m(100.0),
            step_fraction: 0.5,
            pic_fraction: 0.3,
            gpm_fraction: 0.2,
            two_tier_decision: m(50.0),
            maxbips_decision: m(500.0),
        })
        .collect();
    let report = ScalingReport {
        points,
        quick: true,
        registry: cpm_obs::Registry::new(),
    };
    assert_clean(ArtifactKind::Scaling, &scaling_json(&report));
}

#[test]
fn schema_tables_reject_truncated_artifacts() {
    for kind in [
        ArtifactKind::Experiments,
        ArtifactKind::Perf,
        ArtifactKind::Scaling,
        ArtifactKind::Scenarios,
        ArtifactKind::Health,
    ] {
        assert!(
            !check_schema(kind, "{}").is_empty(),
            "{} gate passed an empty object",
            kind.name()
        );
    }
}
