//! Integration tests for `experiments trace`: event coverage, byte
//! determinism, and the GPM/PIC interleaving contract.

use cpm_bench::trace::{run_trace, TraceOptions};
use cpm_core::coordinator::{Coordinator, ExperimentConfig};
use cpm_obs::{EventKind, Recorder};
use cpm_units::Celsius;
use cpm_workloads::{spec, WorkloadAssignment};

/// The acceptance bar for the observability stack: one recorded cell
/// produces every event type in the taxonomy plus a metrics snapshot.
/// The variation policy supplies `PolicyHoldReversal`; a deliberately low
/// hotspot threshold makes the die watchdog fire `ThermalViolation`.
/// `Injection` is the one kind a fault-free trace cannot emit — it is
/// covered by the scenario suite (`tests/scenarios.rs`) instead — and
/// `Alarm` only appears when the SLO watchdog actually trips (also pinned
/// by the scenario suite).
#[test]
fn traced_cell_emits_every_fault_free_event_kind_and_metrics() {
    let opts = TraceOptions {
        rounds: 30,
        hotspot_threshold: Celsius::new(55.0),
        ..TraceOptions::default()
    };
    let artifacts = run_trace("variation@90", &opts).expect("cell runs");
    assert_eq!(artifacts.dropped, 0, "capacity must hold the whole trace");
    for kind in EventKind::ALL {
        if matches!(kind, EventKind::Injection | EventKind::Alarm) {
            continue;
        }
        assert!(
            artifacts.events.iter().any(|e| e.kind() == kind),
            "no {} event in the trace",
            kind.as_str()
        );
        assert!(
            artifacts
                .jsonl
                .contains(&format!("\"kind\": \"{}\"", kind.as_str())),
            "{} missing from the JSONL rendering",
            kind.as_str()
        );
    }
    // The metrics snapshot rides along with the expected instruments.
    for needle in [
        "\"coordinator.gpm_rounds\": 30",
        "\"pic.invocations\": 1200",
        "thermal.hotspot_events",
        "chip.budget_percent",
    ] {
        assert!(
            artifacts.metrics_json.contains(needle),
            "metrics snapshot missing {needle}:\n{}",
            artifacts.metrics_json
        );
    }
    assert!(artifacts.metrics_text.contains("== metrics =="));
    // CSV carries one row per PIC interval with the full column set.
    let mut lines = artifacts.csv.lines();
    let header = lines.next().expect("csv header");
    assert!(header.starts_with("t_s,chip_power_pct,"));
    assert_eq!(lines.count(), 30 * 10, "one row per PIC interval");
}

/// Timestamps are simulated, so replaying the same cell twice must yield
/// byte-identical artifacts — the contract CI's determinism gate diffs.
#[test]
fn trace_replay_is_byte_deterministic() {
    let opts = TraceOptions {
        rounds: 8,
        ..TraceOptions::default()
    };
    let a = run_trace("perf@80", &opts).expect("first run");
    let b = run_trace("perf@80", &opts).expect("second run");
    assert_eq!(a.jsonl, b.jsonl, "event logs diverged");
    assert_eq!(a.csv, b.csv, "time series diverged");
    assert_eq!(a.metrics_json, b.metrics_json, "metrics diverged");
    assert_eq!(a.chrome_json, b.chrome_json, "chrome traces diverged");
    assert_eq!(a.health_json, b.health_json, "health reports diverged");
    // `pid@80` is an alias for the same cell: identical trajectory.
    let c = run_trace("pid@80", &opts).expect("alias run");
    assert_eq!(a.jsonl, c.jsonl, "pid alias changed the trajectory");
    cpm_obs::validate_chrome_trace(&a.chrome_json).expect("chrome trace validates");
}

/// The Fig. 4 timeline, read back off the event log: on a 2-island chip
/// the measured trace interleaves one GPM provision (2 `GpmAllocation`
/// events, one per island) with 10 PIC intervals (2 `PicDecision` events
/// each), except the first round, which runs on the initial equal-share
/// allocation without consulting the policy.
#[test]
fn two_island_trace_interleaves_gpm_every_ten_pic_steps() {
    let rounds = 5;
    let assignment = WorkloadAssignment::new(
        vec![spec::mesa(), spec::bzip2(), spec::gcc(), spec::sixtrack()],
        2,
    );
    let cfg = ExperimentConfig::paper_default().with_assignment(assignment);
    assert_eq!(cfg.cmp.islands(), 2);
    let mut coord = Coordinator::new(cfg).expect("valid config");
    let recorder = Recorder::enabled(1 << 14);
    coord.set_recorder(recorder.clone());
    coord.run_for_gpm_intervals(rounds);
    let events = recorder.drain();

    // Project the log down to the two timeline kinds, G / P per event.
    let timeline: String = events
        .iter()
        .filter_map(|e| match e.kind() {
            EventKind::GpmAllocation => Some('G'),
            EventKind::PicDecision => Some('P'),
            _ => None,
        })
        .collect();
    let mut expected = "P".repeat(10 * 2);
    for _ in 1..rounds {
        expected.push_str(&"G".repeat(2));
        expected.push_str(&"P".repeat(10 * 2));
    }
    assert_eq!(timeline, expected, "GPM/PIC interleaving broke");

    // Cadence: PIC steps tick at 0.5 ms, GPM provisions 5 ms apart.
    let times = |kind: EventKind| -> Vec<f64> {
        events
            .iter()
            .filter(|e| e.kind() == kind)
            .map(|e| e.time_s)
            .collect()
    };
    let pic = times(EventKind::PicDecision);
    // Two PicDecision events share each tick (one per island).
    assert!((pic[2] - pic[0] - 0.0005).abs() < 1e-12, "PIC cadence");
    let gpm = times(EventKind::GpmAllocation);
    assert!((gpm[2] - gpm[0] - 0.005).abs() < 1e-12, "GPM cadence");
}

/// The trace CSV is the outcome's own series, rendered: every PIC-interval
/// cell is the matching `Outcome` sample at `{:.6}`, and each block of
/// `pics_per_gpm` rows averages to the GPM-resolution chip power (Fig. 7's
/// scale) to within that rounding.
#[test]
fn trace_csv_is_the_outcomes_series() {
    let opts = TraceOptions {
        rounds: 6,
        ..TraceOptions::default()
    };
    let artifacts = run_trace("perf@80", &opts).expect("cell runs");
    let out = &artifacts.outcome;
    let mut lines = artifacts.csv.lines();
    let header: Vec<&str> = lines.next().expect("csv header").split(',').collect();
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    let column = |name: &str| -> Vec<&str> {
        let c = header.iter().position(|&h| h == name).expect(name);
        rows.iter().map(|r| r[c]).collect()
    };
    let assert_series = |name: &str, series: &cpm_sim::TimeSeries| {
        let rendered: Vec<String> = series
            .samples()
            .iter()
            .map(|s| format!("{:.6}", s.value))
            .collect();
        assert_eq!(column(name), rendered, "column {name}");
    };
    assert_eq!(rows.len(), 6 * 10, "one row per PIC interval");
    assert_series("chip_power_pct", &out.chip_power_percent);
    assert_series("peak_temp_c", &out.peak_temperature);
    for i in 0..out.island_actual_percent.len() {
        assert_series(
            &format!("island{i}_actual_pct"),
            &out.island_actual_percent[i],
        );
        assert_series(
            &format!("island{i}_target_pct"),
            &out.island_target_percent[i],
        );
    }

    let chip: Vec<f64> = column("chip_power_pct")
        .iter()
        .map(|c| c.parse().expect("numeric cell"))
        .collect();
    let gpm = out.chip_power_percent_gpm();
    assert_eq!(gpm.samples().len(), 6, "one GPM sample per round");
    for (block, s) in chip.chunks(10).zip(gpm.samples()) {
        let mean = block.iter().sum::<f64>() / block.len() as f64;
        assert!(
            (mean - s.value).abs() <= 5e-7 + 1e-9,
            "block mean {mean} vs GPM sample {}",
            s.value
        );
    }
}
