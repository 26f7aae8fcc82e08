//! The one-pass render-and-fingerprint path agrees with rendering first
//! and fingerprinting the text afterwards, on every catalogue entry.

use cpm_core::Coordinator;
use cpm_obs::{append_alarm_events, digest_str, events_to_jsonl, Event, Recorder, SloPolicy};
use cpm_scenario::catalogue::RECORDER_CAPACITY;
use cpm_scenario::{run_scenario, GoldenDoc, Scenario, CATALOGUE, SCENARIO_ROUNDS};

/// The entry's event stream, alarms appended, recorded the way
/// `run_scenario` records it.
fn trajectory(s: &Scenario) -> Vec<Event> {
    let (cfg, mut schedule) = (s.build)();
    let mut c = Coordinator::new(cfg).expect("catalogue configurations are valid");
    let recorder = Recorder::enabled(RECORDER_CAPACITY);
    c.set_recorder(recorder.clone());
    schedule.set_recorder(recorder.clone());
    c.set_injection(Box::new(schedule));
    c.run_for_gpm_intervals(SCENARIO_ROUNDS);
    let mut events = recorder.drain();
    let alarms = cpm_obs::slo::scan(&events, SloPolicy::default());
    append_alarm_events(&mut events, &alarms);
    events
}

#[test]
fn render_events_equals_render_then_from_jsonl_on_every_entry() {
    for s in CATALOGUE {
        let events = trajectory(s);
        let (jsonl, golden) = GoldenDoc::render_events(s.name, &events);
        let text = events_to_jsonl(&events);
        assert!(jsonl == text, "{}: JSONL differs", s.name);
        assert_eq!(golden, GoldenDoc::from_jsonl(s.name, &text), "{}", s.name);

        let run = run_scenario(s).expect("catalogue entries run");
        assert!(run.jsonl == jsonl, "{}: run_scenario JSONL differs", s.name);
        assert_eq!(run.golden, golden, "{}", s.name);
        assert_eq!(run.digest, digest_str(&jsonl), "{}", s.name);
    }
}
