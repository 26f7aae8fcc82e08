//! The benchmark's output: named metrics with units, the result object
//! the last stdout line carries, and the host fingerprint.

use std::fmt::Write as _;
use std::process::Command;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name (`BENCHMARK.json` keys on it).
    pub name: String,
    /// Unit, e.g. `ms`, `s`, `count`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// What one benchmark run reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// Whole-run checks beyond the per-op ones (set-up outputs, the
    /// shadow steps' bit identity) that failed, with the reason.
    pub problems: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Digests of the simulated statistics, `(label, digest)`.
    pub digests: Vec<(String, String)>,
    /// Context lines (raw samples behind a statistic, sample counts).
    pub notes: Vec<String>,
}

impl RunResult {
    /// True when every op and every whole-run check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }

    /// The result object, on one line:
    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (k, m) in self.metrics.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Human-readable lines printed before the result object.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for (label, digest) in &self.digests {
            let _ = writeln!(s, "digest {label} {digest}");
        }
        for n in &self.notes {
            let _ = writeln!(s, "note {n}");
        }
        for p in &self.problems {
            let _ = writeln!(s, "problem {p}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "metric {:<40} {:>16} {}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s
    }
}

/// A finite number in JSON, with every digit Rust's shortest round-trip
/// rendering gives; a non-finite value (a bug upstream) becomes `null`.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// The host a run measured on: every number records it.
pub fn host_fingerprint(traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // `rustc -vV`: the toolchain that built this binary (the benchmark is
    // built and run by the same `cargo`) and its host triple, which a
    // native build targets.
    let rustc = run_text("rustc", &["-vV"]);
    let version = rustc.lines().next().unwrap_or("unknown").to_string();
    let target = rustc
        .lines()
        .find_map(|l| l.strip_prefix("host: "))
        .unwrap_or("unknown")
        .to_string();
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"target\": \"{}\", \"commit\": \"{}\", \"traced\": {traced}}}",
        escape(&cpu),
        escape(&version),
        escape(&target),
        escape(&commit()),
    )
}

/// Stdout of a command that succeeded, or `unknown`.
fn run_text(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, or `unknown` outside a git checkout. The
/// search stops at the working directory, so an enclosing repository is
/// never reported by mistake.
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(|p| p.to_path_buf()).unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_object_names_every_metric_with_its_unit() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.push("op_ms_min", "ms", 0.25);
        r.push("setup_s", "s", 1.5e-3);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_ms_min\": {\"value\": 0.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.0015, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_op_or_problem_makes_the_run_incorrect() {
        let mut r = RunResult {
            attempted: 3,
            failed: 1,
            ..RunResult::default()
        };
        assert!(!r.correct());
        r.failed = 0;
        r.problems.push("shadow diverged".into());
        assert!(!r.correct());
    }

    #[test]
    fn host_fingerprint_names_its_fields() {
        let h = host_fingerprint(true);
        for key in [
            "nproc",
            "cpu",
            "rustc",
            "target",
            "commit",
            "\"traced\": true",
        ] {
            assert!(h.contains(key), "{key} missing from {h}");
        }
    }
}
