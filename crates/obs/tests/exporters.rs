//! Exporter edge cases and the pinned Chrome-trace fixture.
//!
//! The unit tests in `export.rs`/`chrome.rs` pin individual event lines;
//! this suite covers the degenerate inputs the renderers must survive
//! (empty streams, single rows, ring-buffer truncation) and pins two
//! full Chrome `trace_event` documents byte-for-byte, with the JSONL of
//! the variant fixture, so any change to the envelope, metadata ordering,
//! or per-event field order shows up as a fixture diff rather than a
//! silently re-shaped artifact. Between them the two fixtures cover
//! every payload variant. A third fixture sends reals down every path of
//! the fixed-precision formatter through all three event renderers.

use cpm_obs::{
    events_to_chrome, events_to_jsonl, validate_chrome_trace, CsvSeries, Event, EventPayload,
    Recorder, SpanId, ThermalSource,
};
use cpm_scenario::GoldenDoc;

#[test]
fn empty_event_stream_renders_empty_jsonl() {
    assert_eq!(events_to_jsonl(&[]), "");
}

#[test]
fn single_event_jsonl_is_one_terminated_line() {
    let rec = Recorder::enabled(8);
    rec.set_time(0.0025);
    rec.record(EventPayload::TransducerRezero {
        island: 1,
        residual_w: 0.125,
        offset_w: 0.0,
    });
    let jsonl = events_to_jsonl(&rec.drain());
    assert_eq!(jsonl.lines().count(), 1);
    assert!(jsonl.ends_with('\n'), "JSONL lines must be terminated");
    assert!(jsonl.contains("\"seq\": 0"));
    assert!(jsonl.contains("\"kind\": \"TransducerRezero\""));
}

#[test]
fn overflow_truncated_stream_still_renders_and_reports_drops() {
    // Capacity 4, 12 events: the ring keeps the newest 4 and counts the
    // rest as dropped; the JSONL must render the survivors with their
    // original (not renumbered) sequence numbers.
    let rec = Recorder::enabled(4);
    for i in 0..12u32 {
        rec.record(EventPayload::TransducerRezero {
            island: i,
            residual_w: f64::from(i),
            offset_w: 0.0,
        });
    }
    assert_eq!(rec.dropped(), 8);
    let events = rec.drain();
    assert_eq!(events.len(), 4);
    let jsonl = events_to_jsonl(&events);
    assert_eq!(jsonl.lines().count(), 4);
    assert!(jsonl.contains("\"seq\": 8"), "oldest survivor:\n{jsonl}");
    assert!(jsonl.contains("\"seq\": 11"), "newest survivor:\n{jsonl}");
    assert!(
        !jsonl.contains("\"seq\": 7"),
        "dropped event leaked:\n{jsonl}"
    );
    // The truncated stream is still a valid Chrome trace.
    validate_chrome_trace(&events_to_chrome(&events)).expect("truncated trace validates");
}

#[test]
fn empty_csv_is_header_only_and_single_row_has_one_record() {
    let mut csv = CsvSeries::new(["t_s", "power_w"]);
    assert!(csv.is_empty());
    let header_only = csv.to_csv();
    assert_eq!(header_only.lines().count(), 1);
    assert_eq!(header_only.lines().next().unwrap(), "t_s,power_w");
    csv.push_row([0.0005, 97.25]);
    assert_eq!(csv.len(), 1);
    let one = csv.to_csv();
    assert_eq!(one.lines().count(), 2);
    assert!(one.ends_with('\n'));
}

#[test]
fn empty_event_stream_is_a_valid_chrome_trace() {
    let doc = events_to_chrome(&[]);
    validate_chrome_trace(&doc).expect("empty trace validates");
    assert!(doc.contains("\"name\": \"process_name\""));
}

/// The pinned fixture: one event of each family the Chrome exporter
/// renders distinctly (round instant, allocation counter, decision and
/// actuation instants, worker span, chip-wide alarm). Byte-equality pins
/// the envelope, the metadata block, lane assignment, µs timestamps, and
/// per-event field order all at once.
#[test]
fn chrome_trace_matches_the_pinned_fixture() {
    let g = SpanId::gpm_round(1);
    let p = SpanId::pic_decision(1, 0, 0);
    let a = SpanId::actuation(1, 0, 0);
    let events = vec![
        Event {
            seq: 0,
            time_s: 0.005,
            payload: EventPayload::GpmRound {
                span: g.raw(),
                round: 1,
                budget_w: 100.0,
                actual_w: 97.25,
                islands: 2,
            },
        },
        Event {
            seq: 1,
            time_s: 0.005,
            payload: EventPayload::GpmAllocation {
                round: 1,
                island: 0,
                allocated_w: 50.0,
                actual_w: 48.5,
                budget_w: 100.0,
            },
        },
        Event {
            seq: 2,
            time_s: 0.0055,
            payload: EventPayload::PicDecision {
                span: p.raw(),
                parent: g.raw(),
                round: 1,
                step: 0,
                island: 0,
                sensed_w: 48.5,
                utilization: 0.75,
                target_w: 50.0,
                error: 0.03,
                p_term: 0.015,
                i_term: 0.01,
                d_term: 0.005,
                output: 0.03,
                dvfs_index: 5,
                saturated: false,
            },
        },
        Event {
            seq: 3,
            time_s: 0.0055,
            payload: EventPayload::Actuation {
                span: a.raw(),
                parent: p.raw(),
                island: 0,
                from_dvfs: 4,
                requested_dvfs: 5,
                to_dvfs: 5,
                granted: true,
            },
        },
        Event {
            seq: 4,
            time_s: 0.0100,
            payload: EventPayload::WorkerSpan {
                worker: 0,
                label: "scenario",
                start_s: 0.0,
                end_s: 0.01,
            },
        },
        Event {
            seq: 5,
            time_s: 0.0105,
            payload: EventPayload::Alarm {
                monitor: "budget-overshoot",
                island: u32::MAX,
                round: 1,
                value: 0.15,
                threshold: 0.10,
            },
        },
    ];
    let doc = events_to_chrome(&events);
    validate_chrome_trace(&doc).expect("fixture validates");
    let expected = concat!(
        "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n",
        "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": \"cpm-chip\"}},\n",
        "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"thread_name\", \"args\": {\"name\": \"gpm\"}},\n",
        "{\"ph\": \"M\", \"pid\": 0, \"tid\": 1, \"name\": \"thread_name\", \"args\": {\"name\": \"island0\"}},\n",
        "{\"ph\": \"M\", \"pid\": 0, \"tid\": 1000, \"name\": \"thread_name\", \"args\": {\"name\": \"worker0\"}},\n",
        "{\"ph\": \"i\", \"pid\": 0, \"tid\": 0, \"ts\": 5000.000, \"s\": \"p\", \"name\": \"GpmRound\", \"args\": {\"span\": 1152921508901814272, \"round\": 1, \"budget_w\": 100.000000, \"actual_w\": 97.250000, \"islands\": 2}},\n",
        "{\"ph\": \"C\", \"pid\": 0, \"tid\": 0, \"ts\": 5000.000, \"name\": \"island0 power_w\", \"args\": {\"allocated\": 50.000000, \"actual\": 48.500000, \"round\": 1}},\n",
        "{\"ph\": \"i\", \"pid\": 0, \"tid\": 1, \"ts\": 5500.000, \"s\": \"t\", \"name\": \"PicDecision\", \"args\": {\"span\": 2305843013508661248, \"parent\": 1152921508901814272, \"round\": 1, \"step\": 0, \"island\": 0, \"sensed_w\": 48.500000, \"target_w\": 50.000000, \"error\": 0.030000, \"output\": 0.030000, \"dvfs\": 5}},\n",
        "{\"ph\": \"i\", \"pid\": 0, \"tid\": 1, \"ts\": 5500.000, \"s\": \"t\", \"name\": \"Actuation\", \"args\": {\"span\": 3458764518115508224, \"parent\": 2305843013508661248, \"island\": 0, \"from\": 4, \"requested\": 5, \"to\": 5, \"granted\": true}},\n",
        "{\"ph\": \"X\", \"pid\": 0, \"tid\": 1000, \"ts\": 0.000, \"dur\": 10000.000, \"name\": \"scenario\", \"args\": {\"seq\": 4}},\n",
        "{\"ph\": \"i\", \"pid\": 0, \"tid\": 0, \"ts\": 10500.000, \"s\": \"g\", \"name\": \"Alarm budget-overshoot\", \"args\": {\"round\": 1, \"value\": 0.150000, \"threshold\": 0.100000}}\n",
        "]}\n",
    );
    assert_eq!(
        doc, expected,
        "Chrome exporter drifted from the pinned fixture"
    );
}

/// The payload variants the first Chrome fixture lacks: a rezero, a
/// pair and a single-island thermal violation, a hold reversal, a
/// chip-wide and a targeted injection (the latter with a non-finite
/// value), and a targeted alarm.
fn variant_events() -> Vec<Event> {
    let ev = |seq: u64, time_s: f64, payload: EventPayload| Event {
        seq,
        time_s,
        payload,
    };
    vec![
        ev(
            0,
            0.0125,
            EventPayload::TransducerRezero {
                island: 1,
                residual_w: 0.3125,
                offset_w: -0.0421875,
            },
        ),
        ev(
            1,
            0.015,
            EventPayload::ThermalViolation {
                source: ThermalSource::AdjacentPairCap,
                island: 2,
                partner: 3,
                value: 18.0625,
                limit: 17.6,
            },
        ),
        ev(
            2,
            0.015,
            EventPayload::ThermalViolation {
                source: ThermalSource::DieThreshold,
                island: 0,
                partner: u32::MAX,
                value: 85.123456789,
                limit: 85.0,
            },
        ),
        ev(
            3,
            0.02,
            EventPayload::PolicyHoldReversal {
                island: 3,
                level: 0.875,
                epi_now: 1.2345678e-9,
                epi_prev: -1.5e-9,
                hold_intervals: 4,
            },
        ),
        ev(
            4,
            0.0205,
            EventPayload::Injection {
                label: "budget-step",
                island: u32::MAX,
                active: true,
                value: 0.7,
            },
        ),
        ev(
            5,
            0.025,
            EventPayload::Injection {
                label: "sensor-noise",
                island: 2,
                active: false,
                value: f64::NAN,
            },
        ),
        ev(
            6,
            0.0300000005,
            EventPayload::Alarm {
                monitor: "stale-sensor",
                island: 1,
                round: 6,
                value: 8.0,
                threshold: 6.0,
            },
        ),
    ]
}

/// The second pinned fixture: the payload variants the first one lacks,
/// in both renderers. The expected bytes were rendered by the
/// `format!`-based exporters this crate used before the in-place writers.
#[test]
fn every_payload_variant_matches_its_pinned_jsonl_and_chrome() {
    let events = variant_events();
    let expected_jsonl = concat!(
        "{\"seq\": 0, \"t\": 0.012500, \"kind\": \"TransducerRezero\", \"island\": 1, \"residual_w\": 0.312500, \"offset_w\": -0.042188}\n",
        "{\"seq\": 1, \"t\": 0.015000, \"kind\": \"ThermalViolation\", \"source\": \"adjacent_pair_cap\", \"island\": 2, \"partner\": 3, \"value\": 18.062500, \"limit\": 17.600000}\n",
        "{\"seq\": 2, \"t\": 0.015000, \"kind\": \"ThermalViolation\", \"source\": \"die_threshold\", \"island\": 0, \"value\": 85.123457, \"limit\": 85.000000}\n",
        "{\"seq\": 3, \"t\": 0.020000, \"kind\": \"PolicyHoldReversal\", \"island\": 3, \"level\": 0.875000, \"epi_now\": 0.000000, \"epi_prev\": -0.000000, \"hold_intervals\": 4}\n",
        "{\"seq\": 4, \"t\": 0.020500, \"kind\": \"Injection\", \"label\": \"budget-step\", \"active\": true, \"value\": 0.700000}\n",
        "{\"seq\": 5, \"t\": 0.025000, \"kind\": \"Injection\", \"label\": \"sensor-noise\", \"island\": 2, \"active\": false, \"value\": 0.0}\n",
        "{\"seq\": 6, \"t\": 0.030000, \"kind\": \"Alarm\", \"monitor\": \"stale-sensor\", \"island\": 1, \"round\": 6, \"value\": 8.000000, \"threshold\": 6.000000}\n",
    );
    assert_eq!(events_to_jsonl(&events), expected_jsonl);
    let doc = events_to_chrome(&events);
    validate_chrome_trace(&doc).expect("fixture validates");
    let expected_chrome = concat!(
        "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n",
        "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": \"cpm-chip\"}},\n",
        "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"thread_name\", \"args\": {\"name\": \"gpm\"}},\n",
        "{\"ph\": \"M\", \"pid\": 0, \"tid\": 1, \"name\": \"thread_name\", \"args\": {\"name\": \"island0\"}},\n",
        "{\"ph\": \"M\", \"pid\": 0, \"tid\": 2, \"name\": \"thread_name\", \"args\": {\"name\": \"island1\"}},\n",
        "{\"ph\": \"M\", \"pid\": 0, \"tid\": 3, \"name\": \"thread_name\", \"args\": {\"name\": \"island2\"}},\n",
        "{\"ph\": \"M\", \"pid\": 0, \"tid\": 4, \"name\": \"thread_name\", \"args\": {\"name\": \"island3\"}},\n",
        "{\"ph\": \"i\", \"pid\": 0, \"tid\": 2, \"ts\": 12500.000, \"s\": \"t\", \"name\": \"TransducerRezero\", \"args\": {\"island\": 1, \"residual_w\": 0.312500, \"offset_w\": -0.042188}},\n",
        "{\"ph\": \"i\", \"pid\": 0, \"tid\": 3, \"ts\": 15000.000, \"s\": \"t\", \"name\": \"ThermalViolation\", \"args\": {\"source\": \"adjacent_pair_cap\", \"island\": 2, \"partner\": 3, \"value\": 18.062500, \"limit\": 17.600000}},\n",
        "{\"ph\": \"i\", \"pid\": 0, \"tid\": 1, \"ts\": 15000.000, \"s\": \"t\", \"name\": \"ThermalViolation\", \"args\": {\"source\": \"die_threshold\", \"island\": 0, \"value\": 85.123457, \"limit\": 85.000000}},\n",
        "{\"ph\": \"i\", \"pid\": 0, \"tid\": 4, \"ts\": 20000.000, \"s\": \"t\", \"name\": \"PolicyHoldReversal\", \"args\": {\"island\": 3, \"level\": 0.875000, \"epi_now\": 0.000000, \"epi_prev\": -0.000000, \"hold_intervals\": 4}},\n",
        "{\"ph\": \"i\", \"pid\": 0, \"tid\": 0, \"ts\": 20500.000, \"s\": \"g\", \"name\": \"Injection budget-step\", \"args\": {\"active\": true, \"value\": 0.700000}},\n",
        "{\"ph\": \"i\", \"pid\": 0, \"tid\": 3, \"ts\": 25000.000, \"s\": \"g\", \"name\": \"Injection sensor-noise\", \"args\": {\"active\": false, \"value\": 0.0, \"island\": 2}},\n",
        "{\"ph\": \"i\", \"pid\": 0, \"tid\": 2, \"ts\": 30000.000, \"s\": \"g\", \"name\": \"Alarm stale-sensor\", \"args\": {\"round\": 6, \"value\": 8.000000, \"threshold\": 6.000000, \"island\": 1}}\n",
        "]}\n",
    );
    assert_eq!(
        doc, expected_chrome,
        "Chrome exporter drifted from the pinned fixture"
    );
}

/// The value after `"key": ` in a rendered line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat).map(|i| i + pat.len());
    let rest = &line[start.unwrap_or_else(|| panic!("no {key} in {line}"))..];
    &rest[..rest.find([',', '}']).unwrap_or(rest.len())]
}

/// A decision whose eight reals are `reals[k..]` and then `reals[..k]`,
/// so that over `reals.len()` events every value lands in every field.
fn decision(k: usize, reals: &[f64]) -> Event {
    let x = |j: usize| reals[(k + j) % reals.len()];
    Event {
        seq: k as u64,
        time_s: 0.0055,
        payload: EventPayload::PicDecision {
            span: 7,
            parent: 3,
            round: 1,
            step: 0,
            island: 0,
            sensed_w: x(0),
            utilization: x(1),
            target_w: x(2),
            error: x(3),
            p_term: x(4),
            i_term: x(5),
            d_term: x(6),
            output: x(7),
            dvfs_index: 5,
            saturated: false,
        },
    }
}

/// Reals on every path of the formatter, through the JSONL walk, the
/// golden fold and the Chrome writer: the carry out of the sixth decimal,
/// negative zero and a negative value that rounds to it, a subnormal,
/// magnitudes of 2^53 and more (the `std` fallback, written into the same
/// byte buffer), and non-finite values. Each renders as
/// `format!("{x:.6}")` does, and a non-finite value as `0.0`.
#[test]
fn every_formatter_path_renders_like_std_in_every_renderer() {
    let two53 = 9_007_199_254_740_992.0_f64;
    let reals = [
        0.999_999_5,
        9.999_999_5,
        0.999_999_75,
        -0.0,
        -1e-9,
        f64::MIN_POSITIVE / 3.0,
        two53 + 2.0,
        -(two53 * 128.0),
        f64::NAN,
        f64::NEG_INFINITY,
    ];
    let expected = |x: f64| {
        if x.is_finite() {
            format!("{x:.6}")
        } else {
            "0.0".to_string()
        }
    };
    assert_eq!(expected(-0.0), "-0.000000");
    assert_eq!(expected(-1e-9), "-0.000000");
    assert_eq!(expected(0.999_999_75), "1.000000");

    let events: Vec<Event> = (0..reals.len()).map(|k| decision(k, &reals)).collect();
    let jsonl = events_to_jsonl(&events);
    let (folded, golden) = GoldenDoc::render_events("formatter", &events);
    assert!(folded == jsonl, "the golden fold wrote different text");
    assert_eq!(golden, GoldenDoc::from_jsonl("formatter", &jsonl));
    let chrome = events_to_chrome(&events);
    validate_chrome_trace(&chrome).expect("fixture validates");
    let chrome_lines: Vec<&str> = chrome
        .lines()
        .filter(|l| l.contains("PicDecision"))
        .collect();
    assert_eq!(chrome_lines.len(), events.len());

    let jsonl_keys = [
        "sensed_w",
        "utilization",
        "target_w",
        "error",
        "p",
        "i",
        "d",
        "output",
    ];
    for (k, (line, chrome_line)) in jsonl.lines().zip(&chrome_lines).enumerate() {
        for (j, key) in jsonl_keys.iter().enumerate() {
            let x = reals[(k + j) % reals.len()];
            assert_eq!(field(line, key), expected(x), "JSONL {key} = {x:e}");
            // Chrome's decision args carry four of the eight reals.
            if matches!(*key, "sensed_w" | "target_w" | "error" | "output") {
                assert_eq!(field(chrome_line, key), expected(x), "Chrome {key} = {x:e}");
            }
        }
    }
}
