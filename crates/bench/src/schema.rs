//! Artifact schema gates: one checker for every BENCH_*.json shape.
//!
//! CI used to carry one copy-pasted `grep -q` loop per artifact; the
//! required-key tables now live here, behind `experiments check-schema
//! <artifact>`, so the workflow, the tier-1 tests, and any local run all
//! apply the identical gate. Checks are deliberately `grep`-equivalent —
//! substring presence of each required key (quotes included) — because
//! the artifacts are hand-rolled JSON and the gate guards the *shape
//! consumers parse*, not values. A balanced-brace count approximates
//! well-formedness without pulling in a JSON parser (the workspace
//! builds with zero external crates).

/// Which artifact shape a file must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// `BENCH_experiments.json` — sweep telemetry from `experiments all`.
    Experiments,
    /// `BENCH_perf.json` — the regression-gated perf suite.
    Perf,
    /// `BENCH_scaling.json` — the kilocore scaling study.
    Scaling,
    /// `BENCH_scenarios.json` — the fault-injection scenario suite.
    Scenarios,
    /// `HEALTH_*.json` — the SLO watchdog's health report.
    Health,
}

impl ArtifactKind {
    /// Stable name used in messages.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Experiments => "experiments",
            ArtifactKind::Perf => "perf",
            ArtifactKind::Scaling => "scaling",
            ArtifactKind::Scenarios => "scenarios",
            ArtifactKind::Health => "health",
        }
    }

    /// Infers the expected shape from an artifact path's basename.
    /// `None` when the name matches no known artifact family.
    pub fn infer(path: &str) -> Option<Self> {
        let base = path
            .rsplit(['/', '\\'])
            .next()
            .unwrap_or(path)
            .to_ascii_lowercase();
        // Order matters: "scenarios" and "scaling" both contain "s",
        // but only specific substrings decide. Health is checked first:
        // `HEALTH_<scenario stem>.json` basenames may embed a scenario
        // name, and the HEALTH_ prefix wins.
        if base.contains("health") {
            Some(ArtifactKind::Health)
        } else if base.contains("scenario") {
            Some(ArtifactKind::Scenarios)
        } else if base.contains("perf") {
            Some(ArtifactKind::Perf)
        } else if base.contains("scaling") {
            Some(ArtifactKind::Scaling)
        } else if base.contains("experiments") || base.contains("bench") {
            Some(ArtifactKind::Experiments)
        } else {
            None
        }
    }

    /// The keys consumers parse out of this artifact. Substring
    /// semantics, quotes included — exactly what the former CI `grep -q`
    /// loops matched.
    pub fn required_keys(self) -> &'static [&'static str] {
        match self {
            ArtifactKind::Experiments => &[
                "\"workers\"",
                "\"total_seconds\"",
                "\"experiments\"",
                "\"pool\"",
                "\"contexts\"",
                "\"utilization\"",
                "\"metrics\"",
                "\"memo.probe.hits\"",
                "\"memo.probe.misses\"",
                "\"memo.calib_sweep.hits\"",
                "\"memo.calib_sweep.misses\"",
            ],
            ArtifactKind::Perf => &[
                "\"targets\"",
                "\"chip_step_8\"",
                "\"chip_step_8x1\"",
                "\"chip_step_32\"",
                "\"chip_step_1024\"",
                "\"chip_step_1024_sharded\"",
                "\"math_sin_lane\"",
                "\"math_exp_lane\"",
                "\"pid_step\"",
                "\"maxbips_choose\"",
                "\"coordinator_round_8\"",
                "\"thermal_step_32\"",
                "\"thermal_step_64\"",
                "\"thermal_step_128\"",
                "\"cache_access\"",
                "\"calibration\"",
                "\"scenario_render_thermal\"",
                "\"sweep\"",
                "\"baseline_seconds\"",
                "\"speedup\"",
            ],
            ArtifactKind::Scaling => &[
                "\"schema\": \"cpm-scaling-v1\"",
                "\"points\"",
                "\"cores\": 1024",
                "\"islands_requested\"",
                "\"step_ns_per_core\"",
                "\"step_fraction\"",
                "\"pic_fraction\"",
                "\"gpm_fraction\"",
                "\"two_tier_decision_ns\"",
                "\"maxbips_decision_ns\"",
                "\"maxbips_vs_two_tier\"",
                "\"metrics\"",
            ],
            ArtifactKind::Scenarios => &[
                "\"schema\": \"cpm-scenarios-v1\"",
                "\"scenarios\"",
                "\"name\"",
                "\"digest\"",
                "\"golden_digest\"",
                "\"status\"",
                "\"checks\"",
                "\"diverged\"",
                "\"alarms_total\"",
            ],
            ArtifactKind::Health => &[
                "\"schema\": \"cpm-health-v1\"",
                "\"subject\"",
                "\"events\"",
                "\"rounds\"",
                "\"alarms_total\"",
                "\"verdict\"",
                "\"monitors\"",
                "\"monitor\": \"tracking-error\"",
                "\"monitor\": \"budget-overshoot\"",
                "\"monitor\": \"actuator-churn\"",
                "\"monitor\": \"stale-sensor\"",
                "\"worst_value\"",
                "\"threshold\"",
            ],
        }
    }
}

/// Validates `content` against the artifact's required-key table and the
/// balanced-brace well-formedness check. Returns the list of problems
/// (empty = pass).
pub fn check_schema(kind: ArtifactKind, content: &str) -> Vec<String> {
    let mut problems = Vec::new();
    for key in kind.required_keys() {
        if !content.contains(key) {
            problems.push(format!("missing required key {key}"));
        }
    }
    for (open, close) in [('{', '}'), ('[', ']')] {
        let opens = content.matches(open).count();
        let closes = content.matches(close).count();
        if opens != closes {
            problems.push(format!(
                "unbalanced {open}{close}: {opens} opening vs {closes} closing"
            ));
        }
    }
    if content.trim().is_empty() {
        problems.push("artifact is empty".to_string());
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_is_inferred_from_basenames() {
        assert_eq!(
            ArtifactKind::infer("BENCH_experiments.json"),
            Some(ArtifactKind::Experiments)
        );
        assert_eq!(
            ArtifactKind::infer("/tmp/out/BENCH_perf.json"),
            Some(ArtifactKind::Perf)
        );
        assert_eq!(
            ArtifactKind::infer("BENCH_scaling.json"),
            Some(ArtifactKind::Scaling)
        );
        assert_eq!(
            ArtifactKind::infer("BENCH_scenarios.json"),
            Some(ArtifactKind::Scenarios)
        );
        assert_eq!(
            ArtifactKind::infer("bench_w1.json"),
            Some(ArtifactKind::Experiments)
        );
        assert_eq!(
            ArtifactKind::infer("HEALTH_baseline_pid.json"),
            Some(ArtifactKind::Health)
        );
        assert_eq!(
            ArtifactKind::infer("/tmp/HEALTH_perf_80.json"),
            Some(ArtifactKind::Health)
        );
        assert_eq!(ArtifactKind::infer("random.json"), None);
    }

    #[test]
    fn missing_keys_are_reported_individually() {
        let problems = check_schema(ArtifactKind::Experiments, "{\"workers\": 1}");
        assert!(problems.iter().any(|p| p.contains("\"pool\"")));
        assert!(problems.iter().any(|p| p.contains("\"metrics\"")));
        assert!(!problems.iter().any(|p| p.contains("\"workers\"")));
    }

    #[test]
    fn unbalanced_braces_fail() {
        let mut doc = String::from("{");
        for key in ArtifactKind::Experiments.required_keys() {
            doc.push_str(&format!("{key}: 1,"));
        }
        let problems = check_schema(ArtifactKind::Experiments, &doc);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("unbalanced"));
    }
}
