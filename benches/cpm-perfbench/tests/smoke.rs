//! Short runs of every workload, untraced and traced: zero failed ops, and
//! every metric `BENCHMARK.json` lists printed with its unit.
//!
//! The runs are real benchmark runs cut to a fraction of a second; run the
//! suite with `--release` to keep it quick.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// `(name, unit)` of every metric in `BENCHMARK.json` section `section`
/// (the file keeps one metric object per line).
fn listed(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

/// Runs the harness with `request` on stdin; returns its exit code and
/// stdout.
fn harness(request: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cpm-perfbench"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("benchmark binary starts");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(request.as_bytes())
        .expect("request written");
    let out = child.wait_with_output().expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.code(), stdout)
}

fn run(workload: &str, trace: bool) -> String {
    let request = format!(
        "--workload {workload} --seed 3 --seconds 0.5 --trace {}\n",
        u8::from(trace)
    );
    let (code, stdout) = harness(&request);
    assert_eq!(code, Some(0), "{workload} failed");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: bool, section: &str) {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\""), "{line}");
    let metrics = listed(section);
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let needle = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&needle)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        let rest = &line[at + needle.len()..];
        let value = &rest[..rest.find(',').expect("value ends")];
        assert!(value.parse::<f64>().is_ok(), "{workload}: {name} = {value}");
        assert!(
            rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
            "{workload}: {name} has the wrong unit in {line}"
        );
    }
}

#[test]
fn every_workload_reports_its_end_to_end_metrics_with_zero_failed_ops() {
    for w in ["kilocore", "paper", "scenarios"] {
        check(w, false, "end_to_end");
    }
}

#[test]
fn every_workload_reports_every_layer_metric_when_traced() {
    for w in ["kilocore", "paper", "scenarios"] {
        check(w, true, "per_layer");
    }
}

#[test]
fn a_bad_request_fails_without_a_result() {
    let (code, stdout) = harness("--workload nope\n");
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty());
}
