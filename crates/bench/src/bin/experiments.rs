//! Experiment driver: regenerates the paper's tables and figures.
//!
//! ```text
//! experiments <id> [<id> …]   run the named experiments (table1 … fig19)
//! experiments all             run everything in paper order, in parallel
//! experiments trace <cell>    replay one cell with the flight recorder on
//! experiments explain <cell> [--round R] [--island I]  walk the cause chain
//! experiments perf [--quick]  time the hot paths, write BENCH_perf.json
//! experiments scaling [--quick]  kilocore sweep, write BENCH_scaling.json
//! experiments scenarios [--update-goldens]  fault-injection suite vs goldens
//! experiments check-schema <artifact> [..]  gate a BENCH/HEALTH json shape
//! experiments list            list experiment ids
//! ```
//!
//! `all` fans the experiments out on the shared worker pool (`CPM_WORKERS`
//! sets the width; default: available parallelism) and reduces results in
//! paper order, so **stdout is byte-identical for any worker count** — the
//! CI determinism gate diffs it across `CPM_WORKERS=1` and `=4`. Progress
//! and timing go to stderr, straight off the sweep's metrics registry; the
//! engine telemetry (per-experiment wall-clock, per-worker utilization,
//! the registry snapshot) lands in `BENCH_experiments.json` (override the
//! path with `CPM_BENCH_JSON`).
//!
//! `trace <cell>` replays one sweep cell — `<policy>@<budget>`, e.g.
//! `perf@80` (alias `pid@80`), `thermal@80`, `variation@90` — with the
//! flight recorder and metrics registry enabled, and writes the artifacts
//! next to the working directory (override the directory with
//! `CPM_TRACE_DIR`): `TRACE_<cell>.jsonl` (the event log, SLO alarms
//! appended), `TRACE_<cell>.csv` (PIC-interval time series),
//! `TRACE_<cell>_metrics.json` (the registry snapshot),
//! `TRACE_<cell>_chrome.json` (Chrome `trace_event` document — load it in
//! Perfetto / `chrome://tracing`), and `HEALTH_<cell>.json` (the SLO
//! watchdog's verdict). Timestamps are simulated time, so the artifacts
//! are byte-identical across runs and worker counts; the control loop's
//! wall-clock self-profile (sense/decide/actuate) goes to stderr only.
//! Flags: `--rounds N` (default 30) and `--hotspot-c T` (die-temperature
//! watchdog threshold, default 80).
//!
//! `explain <cell>` replays the cell like `trace` and then walks the
//! recorded decision-provenance chain: the GPM round's budget and sensed
//! draw, the per-island allocation it granted, every PIC decision with
//! the inputs it saw (sensed power, utilization, target, PID terms) and
//! the DVFS actuation it caused, with recorded span parentage verified
//! edge by edge. `--round R` picks a GPM round (default: last), and
//! `--island I` restricts the tree. The chain prints to stdout and lands
//! in `EXPLAIN_<cell>.txt` plus `HEALTH_<cell>.json` (same directory
//! rules as `trace`).
//!
//! `perf` runs the regression-gated performance suite: ns/op for each hot
//! path (chip step, PID step, MaxBIPS choose, thermal step, cache access,
//! calibration) plus one single-worker `all` sweep, written to
//! `BENCH_perf.json` (override with `CPM_PERF_JSON`). `--quick` cuts the
//! time budget ~10× for the CI smoke lane.
//!
//! `scaling` runs the kilocore scaling study: cores ∈ {8…1024} × islands
//! ∈ {2…16} under the performance-aware two-tier loop, recording ns/op
//! per core, the GPM/PIC overhead split, and MaxBIPS-vs-two-tier decision
//! latency, written to `BENCH_scaling.json` (override with
//! `CPM_SCALING_JSON`). `--quick` shrinks the per-point time budget for
//! the CI smoke lane.
//!
//! `scenarios` runs the deterministic fault-injection suite: every
//! catalogue entry (see `cpm-scenario`) replays against its committed
//! golden under the workspace's `goldens/`, whatever the working
//! directory (override with `CPM_GOLDEN_DIR`); trajectories
//! land as `SCENARIO_<stem>.jsonl` (SLO alarms appended as first-class
//! events), Chrome traces as `SCENARIO_<stem>_chrome.json`, watchdog
//! verdicts as `HEALTH_<stem>.json`, and divergence reports as
//! `DIVERGENCE_<stem>.txt` in `CPM_SCENARIO_DIR` (default `.`), with the
//! suite summary in `BENCH_scenarios.json` (`CPM_SCENARIOS_JSON`). The
//! command exits nonzero on any golden divergence, missing golden, or
//! failed behavioral check; `--update-goldens` refreshes the committed
//! fingerprints instead (use only for intended behavioral changes).
//!
//! `check-schema` applies the required-key artifact gates (the former CI
//! `grep` loops) to one or more `BENCH_*.json` / `HEALTH_*.json` files,
//! inferring the expected shape from each basename, and exits nonzero on
//! any missing key.
//!
//! Reports go to stdout through one writer: when the reader closes the
//! pipe early (`experiments all | head`), the command ends at once with
//! status 0 and nothing on stderr.

use cpm_bench::explain::{explain_events, ExplainOptions};
use cpm_bench::perf::{perf_json, run_perf};
use cpm_bench::scaling::{run_scaling, scaling_json};
use cpm_bench::scenario::{run_scenario_suite, scenario_stem, scenarios_json};
use cpm_bench::schema::{check_schema, ArtifactKind};
use cpm_bench::trace::{run_trace, TraceOptions};
use cpm_bench::{run_all, run_experiment, sweep_json, ALL_EXPERIMENTS};
use cpm_units::Celsius;
use std::io::{ErrorKind, Write};

/// Writes report text to stdout. A reader that closes the pipe early
/// (`experiments all | head`) ends the command at once, with status 0 and
/// nothing on stderr; any other write failure exits 1.
fn write_stdout(text: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().write_fmt(text) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("[experiments] failed to write stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn run_one(id: &str) {
    match run_experiment(id) {
        Some(report) => out!("{report}"),
        None => {
            eprintln!("unknown experiment `{id}`; try `experiments list`");
            std::process::exit(2);
        }
    }
}

fn run_all_cmd() {
    let workers = cpm_runtime::Pool::global().workers().max(1);
    eprintln!(
        "[experiments] running {} experiments on {workers} worker(s) …",
        ALL_EXPERIMENTS.len()
    );
    let sweep = run_all();
    for (_, report) in &sweep.reports {
        out!("{report}");
    }
    // Phase timing comes off the metrics registry the sweep published to,
    // in paper order (the registry holds one gauge per experiment).
    let snap = sweep.registry.snapshot();
    for id in ALL_EXPERIMENTS {
        if let Some(seconds) = snap.gauges.get(&format!("sweep.{id}.seconds")) {
            eprintln!("[experiments] {id:<12} {seconds:8.2}s");
        }
    }
    let total = snap
        .gauges
        .get("sweep.total_seconds")
        .copied()
        .unwrap_or(0.0);
    let jobs = snap.gauges.get("pool.jobs_total").copied().unwrap_or(0.0);
    eprintln!(
        "[experiments] sweep total {total:.2}s ({jobs:.0} jobs across {} contexts)",
        sweep.stats.per_context.len()
    );
    let path =
        std::env::var("CPM_BENCH_JSON").unwrap_or_else(|_| "BENCH_experiments.json".to_string());
    match std::fs::write(&path, sweep_json(&sweep)) {
        Ok(()) => eprintln!("[experiments] telemetry written to {path}"),
        Err(e) => {
            eprintln!("[experiments] failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn trace_cmd(args: &[String]) {
    let Some(cell) = args.first() else {
        eprintln!("usage: experiments trace <policy>@<budget> [--rounds N] [--hotspot-c T]");
        std::process::exit(2);
    };
    let mut opts = TraceOptions::default();
    let mut k = 1;
    while k < args.len() {
        match args[k].as_str() {
            "--rounds" => {
                opts.rounds = args
                    .get(k + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--rounds needs a positive integer");
                        std::process::exit(2);
                    });
                k += 2;
            }
            "--hotspot-c" => {
                let t: f64 = args
                    .get(k + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--hotspot-c needs a temperature in °C");
                        std::process::exit(2);
                    });
                opts.hotspot_threshold = Celsius::new(t);
                k += 2;
            }
            other => {
                eprintln!("unknown trace flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    let artifacts = run_trace(cell, &opts).unwrap_or_else(|e| {
        eprintln!("[trace] {e}");
        std::process::exit(2);
    });
    let dir = std::env::var("CPM_TRACE_DIR").unwrap_or_else(|_| ".".to_string());
    let stem = format!("{dir}/TRACE_{}", artifacts.stem);
    let outputs = [
        (format!("{stem}.jsonl"), &artifacts.jsonl),
        (format!("{stem}.csv"), &artifacts.csv),
        (format!("{stem}_metrics.json"), &artifacts.metrics_json),
        (format!("{stem}_chrome.json"), &artifacts.chrome_json),
        (
            format!("{dir}/HEALTH_{}.json", artifacts.stem),
            &artifacts.health_json,
        ),
    ];
    for (path, content) in &outputs {
        if let Err(e) = std::fs::write(path, content) {
            eprintln!("[trace] failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[trace] wrote {path}");
    }
    if artifacts.dropped > 0 {
        eprintln!(
            "[trace] ring buffer wrapped: {} oldest events dropped",
            artifacts.dropped
        );
    }
    eprintln!(
        "[trace] {} events captured, {} SLO alarms",
        artifacts.events.len(),
        artifacts.alarms
    );
    eprint!("{}", artifacts.profile_text);
    out!("{}", artifacts.metrics_text);
    out!("{}", artifacts.health_text);
}

fn explain_cmd(args: &[String]) {
    let Some(cell) = args.first() else {
        eprintln!(
            "usage: experiments explain <policy>@<budget> [--round R] [--island I] [--rounds N]"
        );
        std::process::exit(2);
    };
    let mut trace_opts = TraceOptions::default();
    let mut opts = ExplainOptions::default();
    let mut k = 1;
    while k < args.len() {
        let parse_u64 = |flag: &str, v: Option<&String>| -> u64 {
            v.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{flag} needs a non-negative integer");
                std::process::exit(2);
            })
        };
        match args[k].as_str() {
            "--round" => {
                opts.round = Some(parse_u64("--round", args.get(k + 1)));
                k += 2;
            }
            "--island" => {
                opts.island = Some(parse_u64("--island", args.get(k + 1)) as u32);
                k += 2;
            }
            "--rounds" => {
                trace_opts.rounds = parse_u64("--rounds", args.get(k + 1)) as usize;
                k += 2;
            }
            other => {
                eprintln!("unknown explain flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    let artifacts = run_trace(cell, &trace_opts).unwrap_or_else(|e| {
        eprintln!("[explain] {e}");
        std::process::exit(2);
    });
    let text = explain_events(cell, &artifacts.events, opts).unwrap_or_else(|e| {
        eprintln!("[explain] {e}");
        std::process::exit(2);
    });
    let dir = std::env::var("CPM_TRACE_DIR").unwrap_or_else(|_| ".".to_string());
    let outputs = [
        (format!("{dir}/EXPLAIN_{}.txt", artifacts.stem), &text),
        (
            format!("{dir}/HEALTH_{}.json", artifacts.stem),
            &artifacts.health_json,
        ),
    ];
    for (path, content) in &outputs {
        if let Err(e) = std::fs::write(path, content) {
            eprintln!("[explain] failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[explain] wrote {path}");
    }
    out!("{text}");
    out!("{}", artifacts.health_text);
}

fn perf_cmd(args: &[String]) {
    let mut quick = false;
    for a in args {
        match a.as_str() {
            "--quick" => quick = true,
            other => {
                eprintln!("unknown perf flag `{other}` (expected --quick)");
                std::process::exit(2);
            }
        }
    }
    let report = run_perf(quick);
    let path = std::env::var("CPM_PERF_JSON").unwrap_or_else(|_| "BENCH_perf.json".to_string());
    match std::fs::write(&path, perf_json(&report)) {
        Ok(()) => eprintln!("[perf] written to {path}"),
        Err(e) => {
            eprintln!("[perf] failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn scaling_cmd(args: &[String]) {
    let mut quick = false;
    for a in args {
        match a.as_str() {
            "--quick" => quick = true,
            other => {
                eprintln!("unknown scaling flag `{other}` (expected --quick)");
                std::process::exit(2);
            }
        }
    }
    let report = run_scaling(quick);
    let path =
        std::env::var("CPM_SCALING_JSON").unwrap_or_else(|_| "BENCH_scaling.json".to_string());
    match std::fs::write(&path, scaling_json(&report)) {
        Ok(()) => eprintln!("[scaling] written to {path}"),
        Err(e) => {
            eprintln!("[scaling] failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn scenarios_cmd(args: &[String]) {
    let mut update_goldens = false;
    for a in args {
        match a.as_str() {
            "--update-goldens" => update_goldens = true,
            other => {
                eprintln!("unknown scenarios flag `{other}` (expected --update-goldens)");
                std::process::exit(2);
            }
        }
    }
    let golden_dir = std::env::var("CPM_GOLDEN_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../goldens").to_string());
    let out_dir = std::env::var("CPM_SCENARIO_DIR").unwrap_or_else(|_| ".".to_string());

    // Load whatever goldens are committed; missing files are reported
    // per-scenario by the suite rather than failing the whole run.
    let mut goldens = std::collections::BTreeMap::new();
    for scenario in cpm_scenario::CATALOGUE {
        let path = format!("{golden_dir}/{}.golden", scenario_stem(scenario.name));
        if let Ok(text) = std::fs::read_to_string(&path) {
            goldens.insert(scenario.name.to_string(), text);
        }
    }

    let suite = run_scenario_suite(goldens, update_goldens).unwrap_or_else(|e| {
        eprintln!("[scenarios] {e}");
        std::process::exit(1);
    });

    let mut failed = false;
    for r in &suite.reports {
        // Deterministic per-scenario summary on stdout (byte-identical
        // across worker counts); timing stays on stderr.
        let checks_ok = r.checks.iter().filter(|c| c.passed).count();
        outln!(
            "scenario {} {} {} checks={}/{} alarms={}",
            r.name,
            r.digest,
            r.status.as_str(),
            checks_ok,
            r.checks.len(),
            r.alarms
        );
        for c in r.checks.iter().filter(|c| !c.passed) {
            outln!("  check FAILED {}: {}", c.name, c.detail);
            failed = true;
        }
        let per_scenario = [
            (format!("{out_dir}/SCENARIO_{}.jsonl", r.stem), &r.jsonl),
            (
                format!("{out_dir}/SCENARIO_{}_chrome.json", r.stem),
                &r.chrome_json,
            ),
            (format!("{out_dir}/HEALTH_{}.json", r.stem), &r.health_json),
        ];
        for (path, content) in &per_scenario {
            if let Err(e) = std::fs::write(path, content) {
                eprintln!("[scenarios] failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
        if let Some(golden) = &r.refreshed_golden {
            let path = format!("{golden_dir}/{}.golden", r.stem);
            if let Err(e) = std::fs::write(&path, golden) {
                eprintln!("[scenarios] failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("[scenarios] golden refreshed: {path}");
        }
        if let Some(divergence) = &r.divergence {
            let path = format!("{out_dir}/DIVERGENCE_{}.txt", r.stem);
            if let Err(e) = std::fs::write(&path, divergence) {
                eprintln!("[scenarios] failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("[scenarios] divergence report written to {path}");
        }
        if r.status.is_failure() {
            failed = true;
        }
    }
    let json_path =
        std::env::var("CPM_SCENARIOS_JSON").unwrap_or_else(|_| "BENCH_scenarios.json".to_string());
    if let Err(e) = std::fs::write(&json_path, scenarios_json(&suite)) {
        eprintln!("[scenarios] failed to write {json_path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "[scenarios] {} scenarios on {} worker(s) in {:.2}s; artifact {json_path}",
        suite.reports.len(),
        suite.workers,
        suite.total_seconds
    );
    if failed {
        eprintln!("[scenarios] FAILED: golden divergence or behavioral check failure (see above)");
        std::process::exit(1);
    }
}

fn check_schema_cmd(args: &[String]) {
    if args.is_empty() {
        eprintln!("usage: experiments check-schema <artifact.json> [<artifact.json> …]");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in args {
        let Some(kind) = ArtifactKind::infer(path) else {
            eprintln!("[check-schema] {path}: unrecognized artifact family");
            failed = true;
            continue;
        };
        let content = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("[check-schema] {path}: {e}");
                failed = true;
                continue;
            }
        };
        let problems = check_schema(kind, &content);
        if problems.is_empty() {
            outln!("check-schema {path} ({}) ok", kind.name());
        } else {
            failed = true;
            outln!("check-schema {path} ({}) FAILED", kind.name());
            for p in &problems {
                outln!("  {p}");
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("list") => {
            outln!("available experiments:");
            for id in ALL_EXPERIMENTS {
                outln!("  {id}");
            }
            outln!("  all");
            outln!("  trace <policy>@<budget>");
            outln!("  explain <policy>@<budget> [--round R] [--island I]");
            outln!("  perf [--quick]");
            outln!("  scaling [--quick]");
            outln!("  scenarios [--update-goldens]");
            outln!("  check-schema <artifact.json> …");
        }
        Some("all") => run_all_cmd(),
        Some("trace") => trace_cmd(&args[1..]),
        Some("explain") => explain_cmd(&args[1..]),
        Some("perf") => perf_cmd(&args[1..]),
        Some("scaling") => scaling_cmd(&args[1..]),
        Some("scenarios") => scenarios_cmd(&args[1..]),
        Some("check-schema") => check_schema_cmd(&args[1..]),
        Some(_) => {
            for id in &args {
                run_one(id);
            }
        }
    }
}
