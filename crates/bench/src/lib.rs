//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment is a function returning a formatted text report (so the
//! integration tests can assert on the numbers); the `experiments` binary
//! dispatches on a subcommand and prints it. Run
//!
//! ```text
//! cargo run --release -p cpm-bench --bin experiments -- <id>
//! cargo run --release -p cpm-bench --bin experiments -- all
//! ```
//!
//! with `<id>` one of: `table1 table2 table3 poles margin fig5 fig6 fig7
//! fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19`.
//!
//! See DESIGN.md §4 for the experiment↔module map and EXPERIMENTS.md for
//! recorded paper-vs-measured results.

pub mod experiments;
pub mod explain;
pub mod microbench;
pub mod perf;
pub mod profile;
pub mod report;
pub mod scaling;
pub mod scenario;
pub mod schema;
pub mod trace;

use cpm_obs::json_num;
use experiments as ex;

/// All experiment ids in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "poles",
    "margin",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "granularity",
];

/// Wall-clock cost of one experiment inside a sweep, measured around its
/// `run_experiment` call.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTiming {
    /// Experiment id (one of [`ALL_EXPERIMENTS`]).
    pub id: &'static str,
    /// Wall-clock seconds from dispatch to report.
    pub seconds: f64,
}

/// Everything one `all` sweep produces.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// `(id, report)` in paper order. The concatenation is byte-pinned by
    /// `goldens/experiments_all.txt`.
    pub reports: Vec<(&'static str, String)>,
    /// Per-experiment wall-clock, in the same order.
    pub timings: Vec<ExperimentTiming>,
    /// Wall-clock of the whole sweep.
    pub total_seconds: f64,
    /// Sweep telemetry on the shared metrics registry: per-experiment
    /// wall-clock gauges (`sweep.<id>.seconds`), a `sweep.total_seconds`
    /// gauge, a `sweep.experiment_seconds` histogram and the memo tables'
    /// hit/miss counters.
    pub registry: cpm_obs::Registry,
}

/// Histogram buckets for per-experiment wall-clock, seconds.
const EXPERIMENT_SECONDS_BUCKETS: &[f64] = &[0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0];

/// Runs every experiment on the calling thread, in [`ALL_EXPERIMENTS`]
/// order. Each experiment is an independent simulation, and the whole
/// sweep takes about 0.15 s in release, too little to be worth a pool.
pub fn run_all() -> SweepOutcome {
    let sweep_start = std::time::Instant::now();
    let mut reports = Vec::with_capacity(ALL_EXPERIMENTS.len());
    let mut timings = Vec::with_capacity(ALL_EXPERIMENTS.len());
    for &id in ALL_EXPERIMENTS {
        let t0 = std::time::Instant::now();
        reports.push((id, run_experiment(id).expect("known id")));
        timings.push(ExperimentTiming {
            id,
            seconds: t0.elapsed().as_secs_f64(),
        });
    }
    let total_seconds = sweep_start.elapsed().as_secs_f64();

    // Sweep telemetry lives on a metrics registry (what `experiments all`
    // prints and the JSON artifact embeds), not on hand-rolled fields.
    let registry = cpm_obs::Registry::new();
    let duration = registry.histogram("sweep.experiment_seconds", EXPERIMENT_SECONDS_BUCKETS);
    for t in &timings {
        registry
            .gauge(&format!("sweep.{}.seconds", t.id))
            .set(t.seconds);
        duration.observe(t.seconds);
    }
    registry.gauge("sweep.total_seconds").set(total_seconds);
    registry
        .counter("sweep.experiments")
        .add(timings.len() as u64);
    publish_memo_stats(&registry);

    SweepOutcome {
        reports,
        timings,
        total_seconds,
        registry,
    }
}

/// [`run_all`]; the pool argument is ignored. Kept for the benchmark
/// package, which still names it.
pub fn run_all_on(_pool: &cpm_runtime::Pool) -> SweepOutcome {
    run_all()
}

/// Publishes the cumulative hits and misses of the process-wide memo
/// tables (`memo.probe.*`, `memo.calib_sweep.*`) to `registry`, so the
/// sweep artifact shows the caches carrying load. Absolute values depend
/// on process history — the artifact is schema-checked, not byte-diffed.
pub fn publish_memo_stats(registry: &cpm_obs::Registry) {
    use cpm_core::coordinator::Coordinator;
    for (name, (hits, misses)) in [
        ("memo.probe", Coordinator::probe_cache_stats()),
        ("memo.calib_sweep", Coordinator::calib_sweep_cache_stats()),
    ] {
        registry.counter(&format!("{name}.hits")).add(hits);
        registry.counter(&format!("{name}.misses")).add(misses);
    }
}

/// Renders a sweep's telemetry as a JSON document (the
/// `BENCH_experiments.json` artifact): per-experiment wall-clock plus the
/// registry snapshot.
///
/// Hand-rolled writer — the workspace builds with zero external crates,
/// so no serde. All emitted numbers are finite.
pub fn sweep_json(sweep: &SweepOutcome) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"total_seconds\": {},\n",
        json_num(sweep.total_seconds, 6)
    ));
    s.push_str("  \"experiments\": [\n");
    for (k, t) in sweep.timings.iter().enumerate() {
        let sep = if k + 1 < sweep.timings.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"seconds\": {}}}{sep}\n",
            t.id,
            json_num(t.seconds, 6)
        ));
    }
    s.push_str("  ],\n");
    // The full metrics snapshot, re-indented to nest under the artifact
    // object.
    let snap = sweep.registry.snapshot().to_json();
    let mut nested = String::new();
    for (k, line) in snap.trim_end().lines().enumerate() {
        if k > 0 {
            nested.push_str("  ");
        }
        nested.push_str(line);
        nested.push('\n');
    }
    s.push_str(&format!("  \"metrics\": {}", nested.trim_end()));
    s.push_str("\n}\n");
    s
}

/// Runs one experiment by id; `None` for unknown ids.
pub fn run_experiment(id: &str) -> Option<String> {
    Some(match id {
        "table1" => ex::tables::table1(),
        "table2" => ex::tables::table2(),
        "table3" => ex::tables::table3(),
        "poles" => ex::analysis::poles(),
        "margin" => ex::analysis::margin(),
        "fig5" => ex::model::fig5(),
        "fig6" => ex::model::fig6(),
        "fig7" => ex::tracking::fig7(),
        "fig8" => ex::tracking::fig8(),
        "fig9" => ex::tracking::fig9(),
        "fig10" => ex::tracking::fig10(),
        "fig11" => ex::budget::fig11(),
        "fig12" => ex::budget::fig12(),
        "fig13" => ex::scaling::fig13(),
        "fig14" => ex::budget::fig14(),
        "fig15" => ex::scaling::fig15(),
        "fig16" => ex::sensitivity::fig16(),
        "fig17" => ex::sensitivity::fig17(),
        "fig18" => ex::thermal::fig18(),
        "fig19" => ex::variation::fig19(),
        "granularity" => ex::granularity::granularity(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_json_has_the_artifact_shape() {
        let sweep = SweepOutcome {
            reports: vec![("table1", "report\n".into())],
            timings: vec![ExperimentTiming {
                id: "table1",
                seconds: 0.25,
            }],
            total_seconds: 0.3,
            registry: cpm_obs::Registry::new(),
        };
        sweep.registry.gauge("sweep.total_seconds").set(0.3);
        let json = sweep_json(&sweep);
        for needle in [
            "\"total_seconds\": 0.300000",
            "\"experiments\": [",
            "\"id\": \"table1\"",
            "\"seconds\": 0.250000",
            "\"metrics\": {",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Balanced braces/brackets — cheap well-formedness check without a
        // JSON parser in the dependency set.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn unknown_experiment_id_is_rejected() {
        assert!(run_experiment("fig99").is_none());
    }
}
