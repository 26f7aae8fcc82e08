//! Streaming SLO watchdog over flight-recorder events.
//!
//! Four control-health monitors run as a single pass over a recorded (or
//! live) event stream:
//!
//! * **tracking-error** — a PIC's normalized error stays above the policy
//!   bound for `tracking_patience` consecutive invocations (the island is
//!   not regulating to its share),
//! * **budget-overshoot** — the sensed chip draw over a GPM interval
//!   exceeds the budget that was in force by more than the allowed
//!   fraction,
//! * **actuator-churn** — a DVFS knob flaps: within a window of recent
//!   *large* moves (at least [`SloPolicy::churn_min_delta`] operating
//!   points — the ±1-step dither a quantized actuator exhibits around a
//!   fixed target is its designed limit cycle, not flapping), the
//!   direction alternates too many times,
//! * **stale-sensor** — a PIC's power transducer returns a bit-identical
//!   reading for too many consecutive invocations (dropped or stuck
//!   sensor), *or* an island that used to report decisions goes silent
//!   for a whole GPM round (dead controller — no readings at all).
//!
//! The watchdog is a pure fold over the stream — no clocks, no RNG — so
//! the alarms it emits are byte-deterministic and can ride golden
//! trajectories as first-class [`EventPayload::Alarm`] events (see
//! [`append_alarm_events`]). Each monitor alarms once at episode onset
//! rather than every step, so alarm counts measure distinct violations,
//! not violation duration.

use crate::event::{Event, EventPayload};
use crate::export::{int, label, real};
use crate::fixed::{into_text, json_num};
use crate::span::SpanId;
use std::fmt::Write as _;
use std::io::Write as _;

/// Ring capacity for the churn window (policy windows are clamped to it).
const CHURN_RING: usize = 16;

/// The monitor taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloMonitor {
    /// Sustained normalized tracking error on one island.
    TrackingError,
    /// Chip draw exceeded the budget in force.
    BudgetOvershoot,
    /// A DVFS knob is flapping.
    ActuatorChurn,
    /// A power transducer reading stopped changing.
    StaleSensor,
}

impl SloMonitor {
    /// All monitors, in taxonomy order.
    pub const ALL: [SloMonitor; 4] = [
        SloMonitor::TrackingError,
        SloMonitor::BudgetOvershoot,
        SloMonitor::ActuatorChurn,
        SloMonitor::StaleSensor,
    ];

    /// Stable identifier used in events, reports, and artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            SloMonitor::TrackingError => "tracking-error",
            SloMonitor::BudgetOvershoot => "budget-overshoot",
            SloMonitor::ActuatorChurn => "actuator-churn",
            SloMonitor::StaleSensor => "stale-sensor",
        }
    }
}

/// Thresholds for the four monitors.
///
/// The defaults are tuned so the fault-free baseline scenario raises no
/// alarms while every fault-injection scenario that plausibly violates a
/// monitor trips it (the scenario suite pins the exact counts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Normalized tracking-error magnitude a PIC may sustain.
    pub tracking_error_frac: f64,
    /// Consecutive over-bound invocations before tracking-error alarms.
    pub tracking_patience: u32,
    /// Allowed chip overshoot as a fraction of the budget in force.
    pub overshoot_frac: f64,
    /// Number of recent large knob moves the churn monitor inspects.
    pub churn_window: u32,
    /// Direction alternations within the window that constitute flapping.
    pub churn_max_flips: u32,
    /// Minimum move magnitude (operating points) that counts as churn
    /// evidence; smaller moves are the quantized knob's normal dither.
    pub churn_min_delta: u32,
    /// Consecutive bit-identical sensor readings before stale alarms.
    pub stale_steps: u32,
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self {
            tracking_error_frac: 0.25,
            tracking_patience: 3,
            overshoot_frac: 0.10,
            churn_window: 8,
            churn_max_flips: 5,
            churn_min_delta: 2,
            stale_steps: 6,
        }
    }
}

/// One watchdog alarm: which monitor tripped, where, and on what value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloAlarm {
    /// The monitor that tripped.
    pub monitor: SloMonitor,
    /// Offending island (`u32::MAX` for chip-wide monitors).
    pub island: u32,
    /// GPM round at which the violation episode began.
    pub round: u64,
    /// Simulated time of the tripping event, seconds.
    pub time_s: f64,
    /// The observed value that tripped the monitor.
    pub value: f64,
    /// The policy threshold it violated.
    pub threshold: f64,
}

/// Per-island streaming state.
#[derive(Debug, Clone, Default)]
struct IslandState {
    /// Consecutive over-bound tracking errors.
    error_run: u32,
    /// Consecutive bit-identical sensor readings (bits of the last one).
    stale_bits: u64,
    stale_run: u32,
    /// Recent large knob-move directions, oldest first.
    dirs: Vec<i8>,
    /// The island has reported at least one decision, ever / this round.
    ever_seen: bool,
    seen_this_round: bool,
    /// Whether the island is currently inside a silent episode.
    silent_episode: bool,
}

/// The streaming watchdog: feed events in record order via
/// [`SloWatchdog::observe`], collect alarms with
/// [`SloWatchdog::into_alarms`] (or scan a whole slice with [`scan`]).
#[derive(Debug, Clone)]
pub struct SloWatchdog {
    policy: SloPolicy,
    islands: Vec<IslandState>,
    /// Budget in force over the interval whose draw the next `GpmRound`
    /// reports (0 until the first round announces one).
    prev_budget_w: f64,
    prev_round: u64,
    overshoot_episode: bool,
    alarms: Vec<SloAlarm>,
}

impl SloWatchdog {
    /// A watchdog with the given policy.
    pub fn new(policy: SloPolicy) -> Self {
        Self {
            policy,
            islands: Vec::new(),
            prev_budget_w: 0.0,
            prev_round: 0,
            overshoot_episode: false,
            alarms: Vec::new(),
        }
    }

    fn island_mut(&mut self, island: u32) -> &mut IslandState {
        let idx = island as usize;
        if self.islands.len() <= idx {
            self.islands.resize_with(idx + 1, IslandState::default);
        }
        &mut self.islands[idx]
    }

    /// Feeds one event (in record order).
    pub fn observe(&mut self, event: &Event) {
        match event.payload {
            EventPayload::GpmRound {
                round,
                budget_w,
                actual_w,
                ..
            } => {
                // Silent-island sweep: any island that has reported
                // decisions before but said nothing over the round that
                // just ended has a dead controller or a severed sensor
                // path. Alarm once at episode onset.
                let ended = self.prev_round;
                let time_s = event.time_s;
                for (i, st) in self.islands.iter_mut().enumerate() {
                    if st.ever_seen && !st.seen_this_round {
                        if !st.silent_episode {
                            st.silent_episode = true;
                            self.alarms.push(SloAlarm {
                                monitor: SloMonitor::StaleSensor,
                                island: i as u32,
                                round: ended,
                                time_s,
                                // value = consecutive silent rounds at
                                // onset; no silent round is tolerated.
                                value: 1.0,
                                threshold: 0.0,
                            });
                        }
                    } else {
                        st.silent_episode = false;
                    }
                    st.seen_this_round = false;
                }
                // `actual_w` is the draw over the interval that just
                // ended, so it is judged against the budget that was in
                // force then, not the one this round announces.
                let prev = self.prev_budget_w;
                if prev > 0.0 && actual_w > prev * (1.0 + self.policy.overshoot_frac) {
                    if !self.overshoot_episode {
                        self.overshoot_episode = true;
                        self.alarms.push(SloAlarm {
                            monitor: SloMonitor::BudgetOvershoot,
                            island: u32::MAX,
                            round: self.prev_round,
                            time_s: event.time_s,
                            value: actual_w / prev - 1.0,
                            threshold: self.policy.overshoot_frac,
                        });
                    }
                } else {
                    self.overshoot_episode = false;
                }
                self.prev_budget_w = budget_w;
                self.prev_round = round;
            }
            EventPayload::PicDecision {
                round,
                island,
                sensed_w,
                error,
                ..
            } => {
                let time_s = event.time_s;
                let bound = self.policy.tracking_error_frac;
                let patience = self.policy.tracking_patience;
                let stale_steps = self.policy.stale_steps;
                let st = self.island_mut(island);
                st.ever_seen = true;
                st.seen_this_round = true;
                st.silent_episode = false;
                // Tracking error: alarm once when the run length first
                // reaches the patience bound.
                if error.abs() > bound {
                    st.error_run += 1;
                    if st.error_run == patience {
                        self.alarms.push(SloAlarm {
                            monitor: SloMonitor::TrackingError,
                            island,
                            round,
                            time_s,
                            value: error.abs(),
                            threshold: bound,
                        });
                    }
                } else {
                    st.error_run = 0;
                }
                // Stale sensor: bit-identical readings, alarm at onset.
                let st = self.island_mut(island);
                let bits = sensed_w.to_bits();
                if st.stale_run > 0 && bits == st.stale_bits {
                    st.stale_run += 1;
                    if st.stale_run == stale_steps {
                        self.alarms.push(SloAlarm {
                            monitor: SloMonitor::StaleSensor,
                            island,
                            round,
                            time_s,
                            value: stale_steps as f64,
                            threshold: stale_steps as f64,
                        });
                    }
                } else {
                    st.stale_bits = bits;
                    st.stale_run = 1;
                }
            }
            EventPayload::Actuation {
                span,
                island,
                from_dvfs,
                to_dvfs,
                ..
            } => {
                let delta = to_dvfs.abs_diff(from_dvfs);
                if delta < self.policy.churn_min_delta {
                    // Zero or single-step moves are the quantized knob's
                    // designed limit cycle — not churn evidence.
                    return;
                }
                let window = (self.policy.churn_window as usize).min(CHURN_RING);
                let max_flips = self.policy.churn_max_flips;
                let round = SpanId::decode(span).map_or(0, |s| s.round());
                let time_s = event.time_s;
                let st = self.island_mut(island);
                st.dirs.push(if to_dvfs > from_dvfs { 1 } else { -1 });
                if st.dirs.len() > window {
                    st.dirs.remove(0);
                }
                let flips = st.dirs.windows(2).filter(|pair| pair[0] != pair[1]).count() as u32;
                if st.dirs.len() == window && flips >= max_flips {
                    // Clear the window so the next alarm needs a fresh
                    // run of flapping evidence (bounds the alarm rate).
                    st.dirs.clear();
                    self.alarms.push(SloAlarm {
                        monitor: SloMonitor::ActuatorChurn,
                        island,
                        round,
                        time_s,
                        value: flips as f64,
                        threshold: max_flips as f64,
                    });
                }
            }
            _ => {}
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Alarms raised so far, in stream order.
    pub fn alarms(&self) -> &[SloAlarm] {
        &self.alarms
    }

    /// Consumes the watchdog, yielding the alarms in stream order.
    pub fn into_alarms(self) -> Vec<SloAlarm> {
        self.alarms
    }
}

/// Runs the watchdog over a drained event slice.
pub fn scan(events: &[Event], policy: SloPolicy) -> Vec<SloAlarm> {
    let mut wd = SloWatchdog::new(policy);
    for e in events {
        wd.observe(e);
    }
    wd.into_alarms()
}

/// Appends one [`EventPayload::Alarm`] event per alarm to `events`,
/// continuing the sequence numbering. Each alarm keeps the simulated time
/// of the event that tripped it, so the appended block is a pure function
/// of the stream and stays byte-deterministic.
pub fn append_alarm_events(events: &mut Vec<Event>, alarms: &[SloAlarm]) {
    let next_seq = events.last().map_or(0, |e| e.seq + 1);
    for (offset, a) in alarms.iter().enumerate() {
        events.push(Event {
            seq: next_seq + offset as u64,
            time_s: a.time_s,
            payload: EventPayload::Alarm {
                monitor: a.monitor.as_str(),
                island: a.island,
                round: a.round,
                value: a.value,
                threshold: a.threshold,
            },
        });
    }
}

/// Per-monitor aggregate for the health report.
#[derive(Debug, Clone, Copy)]
pub struct MonitorHealth {
    /// Which monitor.
    pub monitor: SloMonitor,
    /// Alarms it raised.
    pub alarms: u32,
    /// Largest observed violation value (0 when clean).
    pub worst_value: f64,
    /// The policy threshold in force.
    pub threshold: f64,
}

/// A one-page health verdict over one trajectory.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// What was watched, e.g. `"perf@80"` or a scenario name.
    pub subject: String,
    /// Events scanned.
    pub events: u64,
    /// GPM rounds observed (count of `GpmRound` events).
    pub rounds: u64,
    /// Total alarms.
    pub alarms_total: u32,
    /// Per-monitor aggregates, in taxonomy order.
    pub monitors: [MonitorHealth; 4],
}

impl HealthReport {
    /// Aggregates a scanned trajectory into a report.
    pub fn new(subject: &str, events: &[Event], alarms: &[SloAlarm], policy: &SloPolicy) -> Self {
        let threshold_of = |m: SloMonitor| match m {
            SloMonitor::TrackingError => policy.tracking_error_frac,
            SloMonitor::BudgetOvershoot => policy.overshoot_frac,
            SloMonitor::ActuatorChurn => policy.churn_max_flips as f64,
            SloMonitor::StaleSensor => policy.stale_steps as f64,
        };
        let monitors = SloMonitor::ALL.map(|m| {
            let mut count = 0u32;
            let mut worst = 0.0f64;
            for a in alarms.iter().filter(|a| a.monitor == m) {
                count += 1;
                worst = worst.max(a.value.abs());
            }
            MonitorHealth {
                monitor: m,
                alarms: count,
                worst_value: worst,
                threshold: threshold_of(m),
            }
        });
        Self {
            subject: subject.to_string(),
            events: events.len() as u64,
            rounds: events
                .iter()
                .filter(|e| matches!(e.payload, EventPayload::GpmRound { .. }))
                .count() as u64,
            alarms_total: alarms.len() as u32,
            monitors,
        }
    }

    /// `"healthy"` when no monitor alarmed, `"degraded"` otherwise.
    pub fn verdict(&self) -> &'static str {
        if self.alarms_total == 0 {
            "healthy"
        } else {
            "degraded"
        }
    }

    /// Deterministic JSON rendering (`cpm-health-v1`).
    pub fn to_json(&self) -> String {
        let mut s = Vec::with_capacity(512);
        s.extend_from_slice(b"{\n  \"schema\": \"cpm-health-v1\",\n");
        let _ = writeln!(s, "  \"subject\": \"{}\",", self.subject);
        let _ = writeln!(s, "  \"events\": {},", self.events);
        let _ = writeln!(s, "  \"rounds\": {},", self.rounds);
        let _ = writeln!(s, "  \"alarms_total\": {},", self.alarms_total);
        let _ = writeln!(s, "  \"verdict\": \"{}\",", self.verdict());
        s.extend_from_slice(b"  \"monitors\": [\n");
        for (i, m) in self.monitors.iter().enumerate() {
            label(&mut s, "    {\"monitor\": ", m.monitor.as_str());
            int(&mut s, ", \"alarms\": ", m.alarms);
            real(&mut s, ", \"worst_value\": ", m.worst_value);
            real(&mut s, ", \"threshold\": ", m.threshold);
            s.push(b'}');
            s.extend_from_slice(if i + 1 < self.monitors.len() {
                b",\n"
            } else {
                b"\n"
            });
        }
        s.extend_from_slice(b"  ]\n}\n");
        into_text(s)
    }

    /// Human-readable one-page rendering.
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(512);
        let _ = writeln!(s, "== health: {} ==", self.subject);
        let _ = writeln!(
            s,
            "verdict: {}  ({} alarms over {} events, {} rounds)",
            self.verdict(),
            self.alarms_total,
            self.events,
            self.rounds
        );
        for m in &self.monitors {
            let _ = writeln!(
                s,
                "  {:<17} alarms={:<3} worst={} threshold={}",
                m.monitor.as_str(),
                m.alarms,
                json_num(m.worst_value, 6),
                json_num(m.threshold, 6)
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanId;

    fn ev(seq: u64, time_s: f64, payload: EventPayload) -> Event {
        Event {
            seq,
            time_s,
            payload,
        }
    }

    fn decision(seq: u64, island: u32, sensed_w: f64, error: f64) -> Event {
        let span = SpanId::pic_decision(1, island, seq as u32);
        ev(
            seq,
            seq as f64 * 0.0005,
            EventPayload::PicDecision {
                span: span.raw(),
                parent: span.parent().unwrap().raw(),
                round: 1,
                step: seq as u32,
                island,
                sensed_w,
                utilization: 0.8,
                target_w: 20.0,
                error,
                p_term: 0.0,
                i_term: 0.0,
                d_term: 0.0,
                output: error,
                dvfs_index: 5,
                saturated: false,
            },
        )
    }

    fn round(seq: u64, round: u64, budget_w: f64, actual_w: f64) -> Event {
        ev(
            seq,
            round as f64 * 0.005,
            EventPayload::GpmRound {
                span: SpanId::gpm_round(round).raw(),
                round,
                budget_w,
                actual_w,
                islands: 4,
            },
        )
    }

    fn mv(seq: u64, island: u32, from: u32, to: u32) -> Event {
        let span = SpanId::actuation(1, island, seq as u32);
        ev(
            seq,
            seq as f64 * 0.0005,
            EventPayload::Actuation {
                span: span.raw(),
                parent: span.parent().unwrap().raw(),
                island,
                from_dvfs: from,
                requested_dvfs: to,
                to_dvfs: to,
                granted: true,
            },
        )
    }

    #[test]
    fn sustained_tracking_error_alarms_once_at_patience() {
        let policy = SloPolicy::default();
        let events: Vec<Event> = (0..8)
            .map(|i| decision(i, 0, 18.0 + i as f64, 0.5))
            .collect();
        let alarms = scan(&events, policy);
        assert_eq!(alarms.len(), 1, "{alarms:?}");
        assert_eq!(alarms[0].monitor, SloMonitor::TrackingError);
        assert_eq!(alarms[0].island, 0);
        assert!((alarms[0].value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recovering_error_resets_the_patience_counter() {
        let policy = SloPolicy::default();
        // Two over-bound, one clean, two over-bound — never 3 in a row.
        let errs = [0.5, 0.5, 0.0, 0.5, 0.5, 0.0];
        let events: Vec<Event> = errs
            .iter()
            .enumerate()
            .map(|(i, &e)| decision(i as u64, 0, 18.0 + i as f64, e))
            .collect();
        assert!(scan(&events, policy).is_empty());
    }

    #[test]
    fn budget_overshoot_judges_draw_against_the_prior_budget() {
        let policy = SloPolicy::default();
        // Round 1 announces 100 W; round 2 reports a 115 W draw against
        // it (15 % overshoot) while announcing a lower budget.
        let events = vec![
            round(0, 1, 100.0, 0.0),
            round(1, 2, 80.0, 115.0),
            round(2, 3, 80.0, 115.0), // same episode: no second alarm
            round(3, 4, 80.0, 80.0),  // episode ends
            round(4, 5, 80.0, 90.0),  // new episode (12.5 %)
        ];
        let alarms = scan(&events, policy);
        assert_eq!(alarms.len(), 2, "{alarms:?}");
        assert_eq!(alarms[0].monitor, SloMonitor::BudgetOvershoot);
        assert_eq!(alarms[0].island, u32::MAX);
        assert_eq!(alarms[0].round, 1);
        assert!((alarms[0].value - 0.15).abs() < 1e-9);
        assert_eq!(alarms[1].round, 4);
    }

    #[test]
    fn flapping_knob_alarms_and_steady_knob_does_not() {
        let policy = SloPolicy::default();
        // Island 0 swings two operating points up/down every move;
        // island 1 ramps steadily in equally large moves.
        let mut events = Vec::new();
        for i in 0..12u64 {
            let (from, to) = if i % 2 == 0 { (5, 7) } else { (7, 5) };
            events.push(mv(i * 2, 0, from, to));
            events.push(mv(i * 2 + 1, 1, 2 * i as u32, 2 * i as u32 + 2));
        }
        let alarms = scan(&events, policy);
        assert!(!alarms.is_empty());
        assert!(alarms
            .iter()
            .all(|a| a.monitor == SloMonitor::ActuatorChurn));
        assert!(alarms.iter().all(|a| a.island == 0), "{alarms:?}");
    }

    #[test]
    fn single_step_dither_is_not_churn_evidence() {
        let policy = SloPolicy::default();
        // The quantized knob's normal ±1 limit cycle around a target.
        let events: Vec<Event> = (0..24)
            .map(|i| {
                let (from, to) = if i % 2 == 0 { (5, 6) } else { (6, 5) };
                mv(i, 0, from, to)
            })
            .collect();
        assert!(scan(&events, policy).is_empty());
    }

    #[test]
    fn zero_magnitude_moves_are_not_churn_evidence() {
        let policy = SloPolicy::default();
        let events: Vec<Event> = (0..24).map(|i| mv(i, 0, 5, 5)).collect();
        assert!(scan(&events, policy).is_empty());
    }

    #[test]
    fn stale_sensor_alarms_on_bit_identical_run() {
        let policy = SloPolicy::default();
        let mut events: Vec<Event> = (0..4)
            .map(|i| decision(i, 2, 18.0 + i as f64, 0.0))
            .collect();
        events.extend((4..12).map(|i| decision(i, 2, 18.125, 0.0)));
        let alarms = scan(&events, policy);
        assert_eq!(alarms.len(), 1, "{alarms:?}");
        assert_eq!(alarms[0].monitor, SloMonitor::StaleSensor);
        assert_eq!(alarms[0].island, 2);
    }

    #[test]
    fn silent_island_alarms_once_at_episode_onset() {
        let policy = SloPolicy::default();
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut push_decisions = |events: &mut Vec<Event>, islands: &[u32]| {
            for &i in islands {
                events.push(decision(seq, i, 18.0 + seq as f64, 0.0));
                seq += 1;
            }
        };
        events.push(round(1000, 1, 100.0, 0.0));
        push_decisions(&mut events, &[0, 1]);
        events.push(round(1001, 2, 100.0, 100.0));
        push_decisions(&mut events, &[0]); // island 1 goes silent
        events.push(round(1002, 3, 100.0, 100.0));
        push_decisions(&mut events, &[0]); // still silent: same episode
        events.push(round(1003, 4, 100.0, 100.0));
        push_decisions(&mut events, &[0, 1]); // island 1 recovers
        events.push(round(1004, 5, 100.0, 100.0));
        let alarms = scan(&events, policy);
        assert_eq!(alarms.len(), 1, "{alarms:?}");
        assert_eq!(alarms[0].monitor, SloMonitor::StaleSensor);
        assert_eq!(alarms[0].island, 1);
        assert_eq!(alarms[0].round, 2);
    }

    #[test]
    fn appended_alarm_events_continue_the_sequence() {
        let mut events: Vec<Event> = (0..8).map(|i| decision(i, 0, 18.0, 0.5)).collect();
        let alarms = scan(&events, SloPolicy::default());
        // stale-sensor also fires here (identical readings) — both ride.
        assert_eq!(alarms.len(), 2);
        let before = events.len();
        append_alarm_events(&mut events, &alarms);
        assert_eq!(events.len(), before + alarms.len());
        assert_eq!(events[before].seq, 8);
        assert_eq!(events[before + 1].seq, 9);
        assert_eq!(events[before].kind(), crate::EventKind::Alarm);
    }

    #[test]
    fn health_report_aggregates_and_renders_deterministically() {
        let events: Vec<Event> = vec![round(0, 1, 100.0, 0.0), round(1, 2, 100.0, 120.0)];
        let policy = SloPolicy::default();
        let alarms = scan(&events, policy);
        let report = HealthReport::new("perf@80", &events, &alarms, &policy);
        assert_eq!(report.verdict(), "degraded");
        assert_eq!(report.rounds, 2);
        assert_eq!(report.alarms_total, 1);
        let json = report.to_json();
        for needle in [
            "\"schema\": \"cpm-health-v1\"",
            "\"subject\": \"perf@80\"",
            "\"alarms_total\": 1",
            "\"verdict\": \"degraded\"",
            "\"monitor\": \"budget-overshoot\", \"alarms\": 1",
            "\"worst_value\": 0.200000",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert_eq!(json, report.to_json(), "rendering must be stable");
        let clean = HealthReport::new("x", &[], &[], &policy);
        assert_eq!(clean.verdict(), "healthy");
        assert!(clean.to_text().contains("verdict: healthy"));
    }
}
