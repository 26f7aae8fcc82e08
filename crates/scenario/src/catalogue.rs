//! The named scenario catalogue and the deterministic runner.
//!
//! Each [`Scenario`] names one fault story — a chip/policy configuration
//! plus an [`InjectionSchedule`] — and carries its own behavioral
//! checks. Names follow `<effect>@<scheme>` (`stuck-knob@maxbips`,
//! `budget-step@thermal`); the scheme suffix makes it obvious which
//! management stack absorbed the fault.
//!
//! [`run_scenario`] executes one scenario with a flight recorder
//! attached, runs the SLO watchdog over the drained trajectory (the
//! resulting `Alarm` events are appended to the stream, so goldens pin
//! them too), and returns the full rendered trajectory, its digest, the
//! block-level [`GoldenDoc`] fingerprint, the evaluated checks, and the
//! health/Chrome artifacts. Running the same scenario twice yields
//! byte-identical JSONL — that property is itself gated by the tier-1
//! tests.

use cpm_core::coordinator::PolicyKind;
use cpm_core::{ExperimentConfig, ManagementScheme, Outcome, ThermalConstraints};
use cpm_obs::{
    append_alarm_events, events_to_chrome, Event, EventKind, HealthReport, Recorder, SloAlarm,
    SloPolicy,
};
use cpm_units::IslandId;
use cpm_workloads::Mix;

use crate::checks::{self, ScenarioCheck};
use crate::effect::{Effect, InjectionSchedule, TimedEffect};
use crate::golden::GoldenDoc;

/// GPM rounds every scenario runs for (120 ms of simulated time at the
/// paper's 5 ms global interval).
pub const SCENARIO_ROUNDS: usize = 24;

/// Flight-recorder capacity for scenario runs: comfortably above the
/// ~2.5k events a 24-round, 8-island story emits, so the ring never
/// wraps and the trajectory is complete.
pub const RECORDER_CAPACITY: usize = 1 << 16;

/// Converts a GPM round ordinal to seconds past measurement start.
fn round_s(round: usize) -> f64 {
    round as f64 * 0.005
}

/// One catalogue entry. `build` and `checks` are plain function
/// pointers so the catalogue is a `'static` table the bench runner can
/// fan out over.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Stable name, `<effect>@<scheme>`.
    pub name: &'static str,
    /// One-line description for reports and docs.
    pub description: &'static str,
    /// Builds the experiment configuration and injection schedule.
    pub build: fn() -> (ExperimentConfig, InjectionSchedule),
    /// Evaluates the scenario's behavioral assertions.
    pub checks: fn(&Outcome, &[Event]) -> Vec<ScenarioCheck>,
}

/// A completed scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Scenario name.
    pub name: &'static str,
    /// Number of events in the trajectory.
    pub events: usize,
    /// The rendered JSONL trajectory (newline-terminated lines).
    pub jsonl: String,
    /// Whole-trajectory digest (`xxh64:%016x`), the golden's.
    pub digest: String,
    /// Block-level fingerprint of the trajectory.
    pub golden: GoldenDoc,
    /// Evaluated behavioral assertions.
    pub checks: Vec<ScenarioCheck>,
    /// Budget as percent of the reference (context for reports).
    pub budget_percent: f64,
    /// Mean chip power over the run, percent of the reference.
    pub mean_power_percent: f64,
    /// SLO watchdog alarms raised over the trajectory.
    pub alarms: usize,
    /// One-page health report (`cpm-health-v1` JSON).
    pub health_json: String,
    /// Chrome `trace_event` rendering of the trajectory (Perfetto-ready).
    pub chrome_json: String,
}

impl ScenarioRun {
    /// True when every behavioral check passed.
    pub fn checks_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// Records one scenario deterministically: its outcome, and its drained
/// event stream with the SLO watchdog's alarms appended (the stream the
/// golden pins), plus those alarms. Fails when the recorder dropped
/// events.
pub fn record_scenario(
    scenario: &Scenario,
) -> Result<(Outcome, Vec<Event>, Vec<SloAlarm>), String> {
    let (cfg, mut schedule) = (scenario.build)();
    let mut coordinator =
        cpm_core::Coordinator::new(cfg).map_err(|e| format!("{}: {e}", scenario.name))?;
    let recorder = Recorder::enabled(RECORDER_CAPACITY);
    coordinator.set_recorder(recorder.clone());
    schedule.set_recorder(recorder.clone());
    coordinator.set_injection(Box::new(schedule));
    let outcome = coordinator.run_for_gpm_intervals(SCENARIO_ROUNDS);
    // The renders that follow hold the scenario's peak memory. The
    // coordinator (chip, controllers, injection schedule) has no further
    // use, so its allocations go back to the allocator before the
    // multi-MB buffers are placed.
    drop(coordinator);
    let mut events = recorder.drain();
    if recorder.dropped() > 0 {
        return Err(format!(
            "{}: recorder dropped {} events — raise RECORDER_CAPACITY",
            scenario.name,
            recorder.dropped()
        ));
    }
    // SLO watchdog pass: the alarms are appended to the stream itself,
    // so goldens pin them and behavioral checks can consume them.
    let slo_alarms = cpm_obs::slo::scan(&events, SloPolicy::default());
    append_alarm_events(&mut events, &slo_alarms);
    Ok((outcome, events, slo_alarms))
}

/// Runs one scenario deterministically: [`record_scenario`], then the
/// JSONL render and its golden fingerprint, the checks and the health
/// and Chrome renders.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioRun, String> {
    let (outcome, events, slo_alarms) = record_scenario(scenario)?;
    let (jsonl, golden) = GoldenDoc::render_events(scenario.name, &events);
    let digest = golden.digest.clone();
    let checks = (scenario.checks)(&outcome, &events);
    let health = HealthReport::new(scenario.name, &events, &slo_alarms, &SloPolicy::default());
    Ok(ScenarioRun {
        name: scenario.name,
        events: events.len(),
        chrome_json: events_to_chrome(&events),
        jsonl,
        digest,
        golden,
        checks,
        budget_percent: outcome.budget_percent(),
        mean_power_percent: outcome.chip_power_percent_gpm().mean().unwrap_or(0.0),
        alarms: slo_alarms.len(),
        health_json: health.to_json(),
    })
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    CATALOGUE.iter().find(|s| s.name == name)
}

// ---------------------------------------------------------------------
// Schedule builders
// ---------------------------------------------------------------------

fn pid_default() -> ExperimentConfig {
    ExperimentConfig::paper_default()
}

fn on(island: Option<usize>, start_round: usize, end_round: usize, effect: Effect) -> TimedEffect {
    TimedEffect {
        island: island.map(IslandId),
        start_s: round_s(start_round),
        end_s: round_s(end_round),
        effect,
    }
}

fn build_baseline() -> (ExperimentConfig, InjectionSchedule) {
    (pid_default(), InjectionSchedule::new(0x5EED_0000))
}

fn build_sensor_noise() -> (ExperimentConfig, InjectionSchedule) {
    let schedule = InjectionSchedule::new(0x5EED_0001).with_effect(on(
        None,
        6,
        18,
        Effect::SensorNoise { sigma: 0.08 },
    ));
    (pid_default(), schedule)
}

fn build_sensor_dropout() -> (ExperimentConfig, InjectionSchedule) {
    let schedule =
        InjectionSchedule::new(0x5EED_0002).with_effect(on(Some(1), 6, 14, Effect::SensorDropout));
    (pid_default(), schedule)
}

fn build_stuck_knob() -> (ExperimentConfig, InjectionSchedule) {
    let schedule =
        InjectionSchedule::new(0x5EED_0003).with_effect(on(Some(2), 6, 16, Effect::StuckActuator));
    (pid_default(), schedule)
}

fn build_stuck_knob_maxbips() -> (ExperimentConfig, InjectionSchedule) {
    let cfg = pid_default().with_scheme(ManagementScheme::MaxBips);
    let schedule =
        InjectionSchedule::new(0x5EED_0004).with_effect(on(Some(2), 6, 16, Effect::StuckActuator));
    (cfg, schedule)
}

fn build_slow_knob() -> (ExperimentConfig, InjectionSchedule) {
    let schedule = InjectionSchedule::new(0x5EED_0005).with_effect(on(
        Some(0),
        4,
        20,
        Effect::SlowActuator { period: 4 },
    ));
    (pid_default(), schedule)
}

fn build_budget_step() -> (ExperimentConfig, InjectionSchedule) {
    let schedule = InjectionSchedule::new(0x5EED_0006).with_effect(on(
        None,
        8,
        16,
        Effect::BudgetStep { scale: 0.75 },
    ));
    (pid_default(), schedule)
}

fn build_budget_step_thermal() -> (ExperimentConfig, InjectionSchedule) {
    let cfg = pid_default()
        .with_mix(Mix::Thermal, 8, 1)
        .with_scheme(ManagementScheme::Cpm(PolicyKind::Thermal(
            ThermalConstraints::paper_eight_island(),
        )));
    let schedule = InjectionSchedule::new(0x5EED_0007).with_effect(on(
        None,
        8,
        16,
        Effect::BudgetStep { scale: 0.85 },
    ));
    (cfg, schedule)
}

fn build_controller_failure() -> (ExperimentConfig, InjectionSchedule) {
    let schedule = InjectionSchedule::new(0x5EED_0008).with_effect(on(
        Some(3),
        6,
        18,
        Effect::ControllerFailure,
    ));
    (pid_default(), schedule)
}

// ---------------------------------------------------------------------
// Check suites
// ---------------------------------------------------------------------

fn checks_baseline(o: &Outcome, e: &[Event]) -> Vec<ScenarioCheck> {
    vec![
        checks::tracks_at_end(o, 4, 3.0),
        checks::overshoot_bounded(o, 0.15),
        checks::has_kind(e, EventKind::PicDecision, "has-pic-decisions"),
        checks::has_kind(e, EventKind::GpmAllocation, "has-gpm-allocations"),
        checks::has_kind(e, EventKind::GpmRound, "has-gpm-rounds"),
        checks::has_kind(e, EventKind::Actuation, "has-actuations"),
        checks::no_alarms(e),
    ]
}

fn checks_sensor_noise(o: &Outcome, e: &[Event]) -> Vec<ScenarioCheck> {
    vec![
        checks::tracks_at_end(o, 4, 4.0),
        checks::overshoot_bounded(o, 0.25),
        checks::injection_edges(e, "sensor-noise", 2),
    ]
}

fn checks_sensor_dropout(o: &Outcome, e: &[Event]) -> Vec<ScenarioCheck> {
    vec![
        checks::tracks_at_end(o, 4, 4.0),
        checks::injection_edges(e, "sensor-dropout", 2),
        // The frozen transducer repeats bit-identical readings: the
        // watchdog's stale-sensor monitor must see it.
        checks::alarms_at_least(e, "stale-sensor", 1),
    ]
}

fn checks_stuck_knob(o: &Outcome, e: &[Event]) -> Vec<ScenarioCheck> {
    vec![
        checks::knob_frozen(o, 2, 6, 16),
        checks::tracks_at_end(o, 4, 4.0),
        checks::injection_edges(e, "stuck-actuator", 2),
    ]
}

fn checks_stuck_knob_maxbips(o: &Outcome, e: &[Event]) -> Vec<ScenarioCheck> {
    vec![
        checks::knob_frozen(o, 2, 6, 16),
        checks::overshoot_bounded(o, 0.25),
        checks::injection_edges(e, "stuck-actuator", 2),
        // Open-loop MaxBIPS cannot compensate the stuck island, so the
        // chip blows through the budget and the watchdog must say so.
        checks::alarms_at_least(e, "budget-overshoot", 1),
    ]
}

fn checks_slow_knob(o: &Outcome, e: &[Event]) -> Vec<ScenarioCheck> {
    vec![
        checks::tracks_at_end(o, 4, 5.0),
        checks::injection_edges(e, "slow-actuator", 2),
        // The lagging knob overcorrects in multi-step swings — exactly
        // the flapping signature actuator-churn exists to catch.
        checks::alarms_at_least(e, "actuator-churn", 1),
    ]
}

fn checks_budget_step(o: &Outcome, e: &[Event]) -> Vec<ScenarioCheck> {
    let stepped = o.budget_percent() * 0.75;
    vec![
        // Rounds 10..16: two rounds into the dip, the loop should sit at
        // the scaled budget.
        checks::window_mean_near(o, 10, 16, stepped, 4.0, "dip-tracks-scaled-budget"),
        checks::tracks_at_end(o, 4, 4.0),
        checks::injection_edges(e, "budget-step", 2),
    ]
}

fn checks_budget_step_thermal(o: &Outcome, e: &[Event]) -> Vec<ScenarioCheck> {
    // The thermal-aware policy keeps chip power *below* the budget by
    // design (island caps shave headroom), so the claims are
    // stays-under and moves-down, not tracks-to-target.
    let stepped = o.budget_percent() * 0.85;
    vec![
        checks::window_mean_below(o, 10, 16, stepped + 2.0, "dip-respects-scaled-budget"),
        checks::window_mean_below(o, 20, 24, o.budget_percent() + 2.0, "end-respects-budget"),
        checks::dip_reduces_power(o, 10, 16, 20, 24, 2.0),
        checks::injection_edges(e, "budget-step", 2),
        // Thermal caps pin hot islands below their shares through the
        // dip — sustained tracking error the watchdog must flag.
        checks::alarms_at_least(e, "tracking-error", 1),
    ]
}

fn checks_controller_failure(o: &Outcome, e: &[Event]) -> Vec<ScenarioCheck> {
    vec![
        // The dead island's knob cannot move while its controller is out.
        checks::knob_frozen(o, 3, 6, 18),
        checks::tracks_at_end(o, 4, 5.0),
        checks::injection_edges(e, "controller-failure", 2),
        // The dead PIC reports nothing for whole rounds: the watchdog's
        // silent-island detection must raise stale-sensor.
        checks::alarms_at_least(e, "stale-sensor", 1),
    ]
}

/// The committed scenario catalogue. Order is the execution and report
/// order; names are stable identifiers referenced by goldens, tests,
/// and CI.
pub const CATALOGUE: &[Scenario] = &[
    Scenario {
        name: "baseline@pid",
        description: "no faults: the paper-default CPM story the others perturb",
        build: build_baseline,
        checks: checks_baseline,
    },
    Scenario {
        name: "sensor-noise@pid",
        description: "sigma=0.08 Gaussian noise on every island's utilization sense, rounds 6-18",
        build: build_sensor_noise,
        checks: checks_sensor_noise,
    },
    Scenario {
        name: "sensor-dropout@pid",
        description: "island 1's transducer freezes at its last sample, rounds 6-14",
        build: build_sensor_dropout,
        checks: checks_sensor_dropout,
    },
    Scenario {
        name: "stuck-knob@pid",
        description: "island 2's DVFS actuator ignores moves, rounds 6-16",
        build: build_stuck_knob,
        checks: checks_stuck_knob,
    },
    Scenario {
        name: "stuck-knob@maxbips",
        description: "same stuck actuator under the open-loop MaxBIPS baseline",
        build: build_stuck_knob_maxbips,
        checks: checks_stuck_knob_maxbips,
    },
    Scenario {
        name: "slow-knob@pid",
        description: "island 0's actuator honors one move in four, rounds 4-20",
        build: build_slow_knob,
        checks: checks_slow_knob,
    },
    Scenario {
        name: "budget-step@pid",
        description: "chip budget dips to 75% for rounds 8-16, then recovers",
        build: build_budget_step,
        checks: checks_budget_step,
    },
    Scenario {
        name: "budget-step@thermal",
        description: "85% budget dip under the thermal-aware policy on the 8-island SPEC roster",
        build: build_budget_step_thermal,
        checks: checks_budget_step_thermal,
    },
    Scenario {
        name: "controller-failure@pid",
        description: "island 3's PIC dies for rounds 6-18; the GPM fails over around its draw",
        build: build_controller_failure,
        checks: checks_controller_failure,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for s in CATALOGUE {
            assert!(seen.insert(s.name), "duplicate scenario name {}", s.name);
            assert!(
                s.name.contains('@'),
                "scenario {} must be <effect>@<scheme>",
                s.name
            );
            assert!(!s.description.is_empty());
        }
        assert!(CATALOGUE.len() >= 8, "catalogue must stay at 8+ scenarios");
    }

    #[test]
    fn find_resolves_names() {
        assert!(find("budget-step@thermal").is_some());
        assert!(find("no-such@scenario").is_none());
    }

    #[test]
    fn every_build_constructs_a_valid_coordinator() {
        for s in CATALOGUE {
            let (cfg, schedule) = (s.build)();
            assert!(
                cpm_core::Coordinator::new(cfg).is_ok(),
                "scenario {} has an invalid config",
                s.name
            );
            // The baseline is the only effect-free story.
            if s.name != "baseline@pid" {
                assert!(
                    !schedule.is_empty(),
                    "scenario {} schedules no effects",
                    s.name
                );
            }
        }
    }
}
