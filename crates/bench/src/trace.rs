//! `experiments trace <cell>`: replay one experiment cell with the flight
//! recorder and metrics registry enabled and render the artifacts.
//!
//! A *cell* is one point of the sweep grid, written `<policy>@<budget>`
//! (e.g. `perf@80`, `thermal@80`, `variation@90`): the provisioning policy
//! and the chip budget as a percent of the required-power reference. The
//! replay runs the same simulation the sweep experiments run, but with a
//! [`cpm_obs::Recorder`] threaded through the whole control stack, so every
//! GPM allocation, PIC control step, transducer re-zero, thermal violation,
//! and policy reversal lands in the event log with its simulated-time
//! timestamp.
//!
//! All timestamps are **simulated** time, so two replays of the same cell
//! produce byte-identical JSONL/CSV no matter the host or worker count —
//! the CI determinism gate diffs exactly that.

use cpm_core::coordinator::{Coordinator, ExperimentConfig, ManagementScheme, Outcome, PolicyKind};
use cpm_core::policies::thermal::ThermalConstraints;
use cpm_obs::{
    append_alarm_events, events_to_chrome, events_to_jsonl, CsvSeries, Event, HealthReport,
    Recorder, Registry, SloPolicy,
};
use cpm_units::Celsius;
use cpm_workloads::Mix;

/// Which provisioning policy a traced cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePolicy {
    /// Performance-aware CPM (the paper's default).
    Performance,
    /// Thermal-aware CPM with the paper's 8-island constraint set.
    Thermal,
    /// Variation-aware greedy EPI search.
    Variation,
}

impl TracePolicy {
    /// The spelling used in cell specs and artifact file names.
    pub fn as_str(&self) -> &'static str {
        match self {
            TracePolicy::Performance => "perf",
            TracePolicy::Thermal => "thermal",
            TracePolicy::Variation => "variation",
        }
    }
}

/// A parsed `<policy>@<budget>` cell spec.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCell {
    /// The provisioning policy under trace.
    pub policy: TracePolicy,
    /// Chip budget, percent of the required-power reference.
    pub budget_percent: f64,
}

impl TraceCell {
    /// Parses `perf@80`-style cell specs.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (policy, budget) = spec
            .split_once('@')
            .ok_or_else(|| format!("cell `{spec}` is not of the form <policy>@<budget>"))?;
        let policy = match policy {
            // `pid` is an alias: the performance cell's PICs run the
            // normalized PID capping loop, and provenance tooling talks
            // about them by controller name.
            "perf" | "pid" => TracePolicy::Performance,
            "thermal" => TracePolicy::Thermal,
            "variation" => TracePolicy::Variation,
            other => {
                return Err(format!(
                    "unknown policy `{other}` (expected perf, pid, thermal, or variation)"
                ))
            }
        };
        let budget_percent: f64 = budget
            .parse()
            .map_err(|_| format!("budget `{budget}` is not a number"))?;
        if !(5.0..=100.0).contains(&budget_percent) {
            return Err(format!(
                "budget {budget_percent}% outside the sensible 5–100% range"
            ));
        }
        Ok(Self {
            policy,
            budget_percent,
        })
    }

    /// The experiment this cell replays. Thermal cells use the Fig. 18
    /// layout (8 single-core islands, SPEC thermal roster); the others run
    /// the paper-default 8-core / 4-island Mix-1 chip.
    pub fn config(&self) -> ExperimentConfig {
        let base = ExperimentConfig::paper_default().with_budget_percent(self.budget_percent);
        match self.policy {
            TracePolicy::Performance => base,
            TracePolicy::Thermal => {
                let mut cfg = base.with_mix(Mix::Thermal, 8, 1);
                cfg.scheme = ManagementScheme::Cpm(PolicyKind::Thermal(
                    ThermalConstraints::paper_eight_island(),
                ));
                cfg
            }
            TracePolicy::Variation => {
                base.with_scheme(ManagementScheme::Cpm(PolicyKind::Variation))
            }
        }
    }

    /// Artifact file stem, e.g. `perf_80`.
    pub fn file_stem(&self) -> String {
        format!("{}_{}", self.policy.as_str(), self.budget_percent.round())
    }
}

/// Knobs of one trace replay.
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Measured GPM intervals.
    pub rounds: usize,
    /// Die-temperature watchdog threshold; hotspot onsets emit
    /// `ThermalViolation` events.
    pub hotspot_threshold: Celsius,
    /// Flight-recorder capacity (events kept; oldest dropped beyond it).
    pub capacity: usize,
}

impl Default for TraceOptions {
    fn default() -> Self {
        Self {
            rounds: 30,
            hotspot_threshold: Celsius::new(80.0),
            capacity: 1 << 16,
        }
    }
}

/// Everything one trace replay produces, rendered and raw.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// Artifact file stem (`<policy>_<budget>`).
    pub stem: String,
    /// The drained event log, in global sequence order.
    pub events: Vec<Event>,
    /// Events lost to ring-buffer wraparound (0 unless capacity was small).
    pub dropped: u64,
    /// The event log as JSONL (one event per line).
    pub jsonl: String,
    /// PIC-interval time series (chip power / BIPS / temperature plus
    /// per-island actual / target / DVFS) as CSV.
    pub csv: String,
    /// Metrics-registry snapshot as JSON.
    pub metrics_json: String,
    /// Metrics-registry snapshot as a one-page text report.
    pub metrics_text: String,
    /// SLO alarms the watchdog raised over the trajectory (the matching
    /// `Alarm` events are appended to `events`/`jsonl`).
    pub alarms: usize,
    /// Watchdog health report as JSON (`cpm-health-v1`).
    pub health_json: String,
    /// Watchdog health report as one-page text.
    pub health_text: String,
    /// Control-phase wall-clock self-profile (sense/decide/actuate) —
    /// stderr material only: wall-clock never enters byte-diffed
    /// artifacts.
    pub profile_text: String,
    /// The event log as a Chrome `trace_event` JSON document
    /// (Perfetto-ready).
    pub chrome_json: String,
    /// The simulation outcome, for callers that want the numbers too.
    pub outcome: Outcome,
}

/// Replays one cell with recording enabled.
pub fn run_trace(spec: &str, opts: &TraceOptions) -> Result<TraceArtifacts, String> {
    let cell = TraceCell::parse(spec)?;
    let mut coord = Coordinator::new(cell.config()).map_err(|e| e.to_string())?;
    let recorder = Recorder::enabled(opts.capacity);
    let registry = Registry::new();
    coord.set_registry(registry.clone());
    coord.set_recorder(recorder.clone());
    coord.attach_hotspot_tracker(opts.hotspot_threshold);
    // Wall-clock self-profiling publishes to its *own* registry: the
    // traced registry's snapshot is a byte-diffed artifact, and wall-clock
    // must never leak into the determinism gate.
    let profile_registry = Registry::new();
    coord.set_profiler(Box::new(crate::profile::WallClockProfiler::new(
        profile_registry.clone(),
    )));
    let outcome = coord.run_for_gpm_intervals(opts.rounds);
    let mut events = recorder.drain();
    // Watchdog pass: scan the recorded stream, then append the alarms as
    // first-class events so every downstream artifact carries them.
    let slo_policy = SloPolicy::default();
    let slo_alarms = cpm_obs::slo::scan(&events, slo_policy);
    append_alarm_events(&mut events, &slo_alarms);
    let health = HealthReport::new(spec, &events, &slo_alarms, &slo_policy);
    let jsonl = events_to_jsonl(&events);
    let csv = outcome_csv(&outcome);
    let snap = registry.snapshot();
    Ok(TraceArtifacts {
        stem: cell.file_stem(),
        dropped: recorder.dropped(),
        jsonl,
        csv,
        metrics_json: snap.to_json(),
        metrics_text: snap.to_text(),
        alarms: slo_alarms.len(),
        health_json: health.to_json(),
        health_text: health.to_text(),
        profile_text: crate::profile::profile_summary(&profile_registry),
        chrome_json: events_to_chrome(&events),
        events,
        outcome,
    })
}

/// Renders the outcome's PIC-interval series as one CSV table.
fn outcome_csv(out: &Outcome) -> String {
    let islands = out.island_actual_percent.len();
    let mut columns = vec![
        "t_s".to_string(),
        "chip_power_pct".to_string(),
        "chip_bips".to_string(),
        "peak_temp_c".to_string(),
    ];
    for i in 0..islands {
        columns.push(format!("island{i}_actual_pct"));
        columns.push(format!("island{i}_target_pct"));
        columns.push(format!("island{i}_dvfs"));
    }
    let mut csv = CsvSeries::new(columns);
    for (k, s) in out.chip_power_percent.samples().iter().enumerate() {
        let mut row = vec![
            s.time.value(),
            s.value,
            out.chip_bips.samples()[k].value,
            out.peak_temperature.samples()[k].value,
        ];
        for i in 0..islands {
            row.push(out.island_actual_percent[i].samples()[k].value);
            row.push(out.island_target_percent[i].samples()[k].value);
            row.push(out.island_dvfs_index[i].samples()[k].value);
        }
        csv.push_row(row);
    }
    csv.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_specs_parse() {
        let c = TraceCell::parse("perf@80").unwrap();
        assert_eq!(c.policy, TracePolicy::Performance);
        assert_eq!(c.budget_percent, 80.0);
        assert_eq!(c.file_stem(), "perf_80");
        let pid = TraceCell::parse("pid@80").unwrap();
        assert_eq!(pid.policy, TracePolicy::Performance);
        assert_eq!(pid.file_stem(), "perf_80");
        assert_eq!(
            TraceCell::parse("thermal@75.5").unwrap().policy,
            TracePolicy::Thermal
        );
        assert_eq!(
            TraceCell::parse("variation@90").unwrap().policy,
            TracePolicy::Variation
        );
    }

    #[test]
    fn bad_cell_specs_are_rejected() {
        for bad in ["perf", "perf@", "perf@x", "qos@80", "perf@200", "@80"] {
            assert!(TraceCell::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn thermal_cell_uses_the_fig18_layout() {
        let cfg = TraceCell::parse("thermal@80").unwrap().config();
        assert_eq!(cfg.cmp.cores, 8);
        assert_eq!(cfg.cmp.cores_per_island, 1);
        assert!(matches!(
            cfg.scheme,
            ManagementScheme::Cpm(PolicyKind::Thermal(_))
        ));
    }
}
