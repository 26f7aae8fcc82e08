//! The scenario suite runner behind `experiments scenarios`.
//!
//! Runs the [`cpm_scenario::CATALOGUE`] in order on the calling thread,
//! compares each trajectory against its committed golden, and — on
//! divergence — performs the differential replay: the scenario is re-run
//! from scratch and the two trajectories are compared with each other
//! first, so the report can say whether the gate tripped on
//! *nondeterminism* (replays disagree) or a *behavioral change* (replays
//! agree but the golden doesn't).
//!
//! The module is IO-free: the binary reads golden files into the input
//! map and writes the returned artifacts (`SCENARIO_<stem>.jsonl`,
//! `DIVERGENCE_<stem>.txt`, refreshed goldens, `BENCH_scenarios.json`).

use std::collections::BTreeMap;

use cpm_scenario::{differential_report, run_scenario, GoldenDoc, ScenarioCheck, CATALOGUE};

/// How a scenario fared against its committed golden.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioStatus {
    /// Trajectory reproduces the committed golden exactly.
    Match,
    /// Trajectory differs from the committed golden (gate failure).
    Diverged,
    /// No golden is committed for this scenario (gate failure).
    Missing,
    /// `--update-goldens` refreshed (or created) the golden.
    Updated,
}

impl ScenarioStatus {
    /// Stable identifier used in artifacts and stdout.
    pub fn as_str(self) -> &'static str {
        match self {
            ScenarioStatus::Match => "match",
            ScenarioStatus::Diverged => "diverged",
            ScenarioStatus::Missing => "missing",
            ScenarioStatus::Updated => "updated",
        }
    }

    /// True when this status must fail the gate.
    pub fn is_failure(self) -> bool {
        matches!(self, ScenarioStatus::Diverged | ScenarioStatus::Missing)
    }
}

/// One scenario's suite result.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (`<effect>@<scheme>`).
    pub name: &'static str,
    /// Filesystem-safe stem for artifact names.
    pub stem: String,
    /// Digest of this run's trajectory.
    pub digest: String,
    /// Digest recorded in the committed golden (`None` when missing).
    pub golden_digest: Option<String>,
    /// Gate outcome.
    pub status: ScenarioStatus,
    /// Behavioral assertions evaluated on the run.
    pub checks: Vec<ScenarioCheck>,
    /// Event count of the trajectory.
    pub events: usize,
    /// SLO alarms the watchdog raised (alarm events ride the trajectory).
    pub alarms: usize,
    /// The rendered trajectory (written as `SCENARIO_<stem>.jsonl`).
    pub jsonl: String,
    /// Watchdog health report (written as `HEALTH_<stem>.json`).
    pub health_json: String,
    /// Chrome `trace_event` document (written as `SCENARIO_<stem>_chrome.json`).
    pub chrome_json: String,
    /// Golden text to write when the status is [`ScenarioStatus::Updated`].
    pub refreshed_golden: Option<String>,
    /// Differential-replay report for diverged scenarios.
    pub divergence: Option<String>,
}

impl ScenarioReport {
    /// True when every behavioral check passed.
    pub fn checks_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// The whole suite's outcome.
#[derive(Debug, Clone)]
pub struct ScenarioSuite {
    /// Per-scenario results in catalogue order.
    pub reports: Vec<ScenarioReport>,
    /// Wall-clock of the whole suite, seconds.
    pub total_seconds: f64,
}

/// Filesystem-safe artifact stem for a scenario name:
/// `budget-step@thermal` → `budget-step_thermal`.
pub fn scenario_stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Runs the full catalogue against the committed goldens.
///
/// `goldens` maps scenario name → committed golden text (the binary
/// loads `goldens/<stem>.golden`); names absent from the map count as
/// [`ScenarioStatus::Missing`]. With `update_goldens`, every golden that
/// is missing or not byte-equal to a fresh render is refreshed instead
/// of failing, and the new text is returned in
/// [`ScenarioReport::refreshed_golden`].
pub fn run_scenario_suite(
    goldens: BTreeMap<String, String>,
    update_goldens: bool,
) -> Result<ScenarioSuite, String> {
    let t0 = std::time::Instant::now();
    let reports = CATALOGUE
        .iter()
        .map(|scenario| {
            run_cell(
                scenario,
                goldens.get(scenario.name).map(String::as_str),
                update_goldens,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ScenarioSuite {
        reports,
        total_seconds: t0.elapsed().as_secs_f64(),
    })
}

/// Runs one catalogue entry and gates it against its golden.
fn run_cell(
    scenario: &cpm_scenario::Scenario,
    golden_text: Option<&str>,
    update_goldens: bool,
) -> Result<ScenarioReport, String> {
    let run = run_scenario(scenario)?;
    let mut report = ScenarioReport {
        name: run.name,
        stem: scenario_stem(run.name),
        digest: run.digest,
        golden_digest: None,
        status: ScenarioStatus::Missing,
        checks: run.checks,
        events: run.events,
        alarms: run.alarms,
        jsonl: run.jsonl,
        health_json: run.health_json,
        chrome_json: run.chrome_json,
        refreshed_golden: None,
        divergence: None,
    };
    let fresh = run.golden.render();
    let golden = match golden_text.map(GoldenDoc::parse) {
        None => {
            if update_goldens {
                report.status = ScenarioStatus::Updated;
                report.refreshed_golden = Some(fresh);
            }
            return Ok(report);
        }
        Some(Err(e)) => {
            if update_goldens {
                report.status = ScenarioStatus::Updated;
                report.refreshed_golden = Some(fresh);
            } else {
                report.status = ScenarioStatus::Diverged;
                report.divergence = Some(format!(
                    "scenario: {}\nverdict: CORRUPT-GOLDEN\ncommitted golden failed to \
                     parse: {e}\nRegenerate it with `experiments scenarios \
                     --update-goldens`.\n",
                    run.name
                ));
            }
            return Ok(report);
        }
        Some(Ok(doc)) => doc,
    };
    report.golden_digest = Some(golden.digest.clone());
    // The gate is byte equality with a fresh render, as in tier-1: a
    // golden whose whole digest matches but whose block digests or
    // anchors are stale still fails.
    if golden_text == Some(fresh.as_str()) {
        report.status = ScenarioStatus::Match;
        return Ok(report);
    }
    if update_goldens {
        report.status = ScenarioStatus::Updated;
        report.refreshed_golden = Some(fresh);
        return Ok(report);
    }
    report.status = ScenarioStatus::Diverged;
    if golden.matches(&run.golden) {
        report.divergence = Some(format!(
            "scenario: {}\nverdict: STALE-GOLDEN\nthe trajectory matches the committed \
             digest and event count, but the golden is not byte-equal to a fresh \
             render (stale block digests or anchors).\nRegenerate it with \
             `experiments scenarios --update-goldens`.\n",
            run.name
        ));
        return Ok(report);
    }
    // Differential replay: re-run the scenario and let the report tell
    // nondeterminism apart from behavioral change.
    let replay = run_scenario(scenario)?;
    report.divergence = Some(differential_report(&golden, &report.jsonl, &replay.jsonl));
    Ok(report)
}

/// Minimal JSON string escaping for the hand-rolled writer (check
/// details embed quoted labels).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the suite as the `BENCH_scenarios.json` artifact.
///
/// Hand-rolled writer — the workspace builds with zero external crates.
/// The artifact is schema-checked (see [`crate::schema`]), not
/// byte-diffed: `total_seconds` varies by machine. The
/// trajectories themselves (`SCENARIO_<stem>.jsonl`) carry the
/// byte-determinism gate.
pub fn scenarios_json(suite: &ScenarioSuite) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"cpm-scenarios-v1\",\n");
    s.push_str(&format!(
        "  \"total_seconds\": {:.6},\n",
        if suite.total_seconds.is_finite() {
            suite.total_seconds
        } else {
            0.0
        }
    ));
    let diverged = suite
        .reports
        .iter()
        .filter(|r| r.status.is_failure())
        .count();
    let checks_failed = suite
        .reports
        .iter()
        .map(|r| r.checks.iter().filter(|c| !c.passed).count())
        .sum::<usize>();
    let alarms_total = suite.reports.iter().map(|r| r.alarms).sum::<usize>();
    s.push_str(&format!("  \"diverged\": {diverged},\n"));
    s.push_str(&format!("  \"checks_failed\": {checks_failed},\n"));
    s.push_str(&format!("  \"alarms_total\": {alarms_total},\n"));
    s.push_str("  \"scenarios\": [\n");
    for (k, r) in suite.reports.iter().enumerate() {
        let sep = if k + 1 < suite.reports.len() { "," } else { "" };
        let golden = r
            .golden_digest
            .as_ref()
            .map_or("null".to_string(), |d| format!("\"{}\"", esc(d)));
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"stem\": \"{}\", \"events\": {}, \"alarms\": {}, \
             \"digest\": \"{}\", \"golden_digest\": {golden}, \"status\": \"{}\", \"checks\": [",
            esc(r.name),
            esc(&r.stem),
            r.events,
            r.alarms,
            esc(&r.digest),
            r.status.as_str()
        ));
        for (j, c) in r.checks.iter().enumerate() {
            let csep = if j + 1 < r.checks.len() { ", " } else { "" };
            s.push_str(&format!(
                "{{\"name\": \"{}\", \"passed\": {}, \"detail\": \"{}\"}}{csep}",
                esc(c.name),
                c.passed,
                esc(&c.detail)
            ));
        }
        s.push_str(&format!("]}}{sep}\n"));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report(name: &'static str, status: ScenarioStatus) -> ScenarioReport {
        ScenarioReport {
            name,
            stem: scenario_stem(name),
            digest: "xxh64:00000000000000aa".to_string(),
            golden_digest: Some("xxh64:00000000000000bb".to_string()),
            status,
            checks: vec![ScenarioCheck {
                name: "tracks-at-end",
                passed: true,
                detail: "said \"ok\"".to_string(),
            }],
            events: 42,
            alarms: 3,
            jsonl: String::new(),
            health_json: String::new(),
            chrome_json: String::new(),
            refreshed_golden: None,
            divergence: None,
        }
    }

    #[test]
    fn update_refreshes_a_golden_with_a_stale_block_digest() {
        let s = &CATALOGUE[0];
        let fresh = run_scenario(s).expect("catalogue entries run").golden;
        let mut stale = fresh.clone();
        stale.blocks[0].digest = "xxh64:0000000000000000".to_string();
        assert!(stale.matches(&fresh), "the whole digest still matches");
        let goldens = BTreeMap::from([(s.name.to_string(), stale.render())]);
        let suite = run_scenario_suite(goldens, true).expect("suite runs");
        let report = &suite.reports[0];
        assert_eq!(report.name, s.name);
        assert_eq!(report.status, ScenarioStatus::Updated);
        assert_eq!(report.refreshed_golden, Some(fresh.render()));
    }

    #[test]
    fn check_reports_a_golden_with_a_stale_block_digest_as_diverged() {
        let s = &CATALOGUE[0];
        let fresh = run_scenario(s).expect("catalogue entries run").golden;
        let mut stale = fresh.clone();
        stale.blocks[0].digest = "xxh64:0000000000000000".to_string();
        assert!(stale.matches(&fresh), "the whole digest still matches");
        let goldens = BTreeMap::from([(s.name.to_string(), stale.render())]);
        let suite = run_scenario_suite(goldens, false).expect("suite runs");
        let report = &suite.reports[0];
        assert_eq!(report.name, s.name);
        assert_eq!(report.status, ScenarioStatus::Diverged);
        assert_eq!(report.refreshed_golden, None);
        let divergence = report.divergence.as_deref().expect("a divergence report");
        assert!(
            divergence.contains("STALE-GOLDEN") && divergence.contains("--update-goldens"),
            "{divergence}"
        );
    }

    #[test]
    fn stems_are_filesystem_safe() {
        assert_eq!(scenario_stem("budget-step@thermal"), "budget-step_thermal");
        assert_eq!(scenario_stem("a/b c"), "a_b_c");
    }

    #[test]
    fn json_has_the_artifact_shape() {
        let suite = ScenarioSuite {
            reports: vec![
                fake_report("baseline@pid", ScenarioStatus::Match),
                fake_report("stuck-knob@maxbips", ScenarioStatus::Diverged),
            ],
            total_seconds: 1.5,
        };
        let json = scenarios_json(&suite);
        for needle in [
            "\"schema\": \"cpm-scenarios-v1\"",
            "\"scenarios\": [",
            "\"name\": \"baseline@pid\"",
            "\"digest\": \"xxh64:00000000000000aa\"",
            "\"golden_digest\": \"xxh64:00000000000000bb\"",
            "\"status\": \"diverged\"",
            "\"checks\": [",
            "\"alarms\": 3",
            "\"alarms_total\": 6",
            "\"diverged\": 1",
            "\"detail\": \"said \\\"ok\\\"\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn statuses_classify_failures() {
        assert!(ScenarioStatus::Diverged.is_failure());
        assert!(ScenarioStatus::Missing.is_failure());
        assert!(!ScenarioStatus::Match.is_failure());
        assert!(!ScenarioStatus::Updated.is_failure());
    }
}
