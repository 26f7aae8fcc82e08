//! Exporters: JSONL event traces and CSV time-series.
//!
//! Both formats are rendered with a **stable field order and fixed
//! decimal precision** (six decimals, byte-identical to `{:.6}`, through
//! the crate's `fixed` formatter), because the CI determinism lane diffs
//! exported artifacts byte-for-byte across worker counts. Every renderer
//! appends bytes to one caller-owned `Vec<u8>`: no per-event or
//! per-number `String`, and no per-number UTF-8 check. A document
//! becomes a `String` once, at the end, through one UTF-8 check. All
//! numbers in events are finite by construction; non-finite values
//! render as `0.0` rather than producing invalid JSON.
//!
//! A JSONL line is written by one field walk ([`write_event_jsonl`],
//! which [`events_to_jsonl`] loops over) with its constant text as `&'static str`
//! literals. Nothing hashes a line as it is written: the scenario
//! harness fingerprints the finished document in one bulk pass (see
//! [`crate::digest`]).

use crate::event::{Event, EventPayload};
use crate::fixed::{into_text, push_num, push_u64};
use std::io::{self, Write};

// Field writers with a literal `, "name": ` key, shared by the JSONL,
// Chrome and health renderers.

/// Appends `key` (a literal `, "name": ` fragment) and an integer.
pub(crate) fn int(s: &mut Vec<u8>, key: &str, v: impl Into<u64>) {
    s.extend_from_slice(key.as_bytes());
    push_u64(s, v.into());
}

/// Appends `key` and a fixed-precision number.
pub(crate) fn real(s: &mut Vec<u8>, key: &str, x: f64) {
    s.extend_from_slice(key.as_bytes());
    push_num(s, x, 6);
}

/// Appends `key` and a boolean.
pub(crate) fn boolean(s: &mut Vec<u8>, key: &str, b: bool) {
    s.extend_from_slice(key.as_bytes());
    s.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Appends `key` and a quoted label (labels are static identifiers and
/// need no escaping).
pub(crate) fn label(s: &mut Vec<u8>, key: &str, text: &str) {
    s.extend_from_slice(key.as_bytes());
    s.push(b'"');
    s.extend_from_slice(text.as_bytes());
    s.push(b'"');
}

/// The key `, "<name>": `.
macro_rules! key {
    ($name:literal) => {
        concat!(", \"", $name, "\": ")
    };
}

/// The `kind` label merged with the key that follows it.
macro_rules! kind {
    ($kind:literal, $key:literal) => {
        concat!(", \"kind\": \"", $kind, "\", \"", $key, "\": ")
    };
}

/// Appends one event as a single JSONL line (no trailing newline) to `s`.
///
/// Field order is fixed: `seq`, `t`, `kind`, then payload fields in
/// declaration order.
pub fn write_event_jsonl(s: &mut Vec<u8>, event: &Event) {
    int(s, "{\"seq\": ", event.seq);
    real(s, key!("t"), event.time_s);
    match event.payload {
        EventPayload::GpmRound {
            span,
            round,
            budget_w,
            actual_w,
            islands,
        } => {
            int(s, kind!("GpmRound", "span"), span);
            int(s, key!("round"), round);
            real(s, key!("budget_w"), budget_w);
            real(s, key!("actual_w"), actual_w);
            int(s, key!("islands"), islands);
        }
        EventPayload::GpmAllocation {
            round,
            island,
            allocated_w,
            actual_w,
            budget_w,
        } => {
            int(s, kind!("GpmAllocation", "round"), round);
            int(s, key!("island"), island);
            real(s, key!("allocated_w"), allocated_w);
            real(s, key!("actual_w"), actual_w);
            real(s, key!("budget_w"), budget_w);
        }
        EventPayload::PicDecision {
            span,
            parent,
            round,
            step,
            island,
            sensed_w,
            utilization,
            target_w,
            error,
            p_term,
            i_term,
            d_term,
            output,
            dvfs_index,
            saturated,
        } => {
            int(s, kind!("PicDecision", "span"), span);
            int(s, key!("parent"), parent);
            int(s, key!("round"), round);
            int(s, key!("step"), step);
            int(s, key!("island"), island);
            real(s, key!("sensed_w"), sensed_w);
            real(s, key!("utilization"), utilization);
            real(s, key!("target_w"), target_w);
            real(s, key!("error"), error);
            real(s, key!("p"), p_term);
            real(s, key!("i"), i_term);
            real(s, key!("d"), d_term);
            real(s, key!("output"), output);
            int(s, key!("dvfs"), dvfs_index);
            boolean(s, key!("saturated"), saturated);
        }
        EventPayload::Actuation {
            span,
            parent,
            island,
            from_dvfs,
            requested_dvfs,
            to_dvfs,
            granted,
        } => {
            int(s, kind!("Actuation", "span"), span);
            int(s, key!("parent"), parent);
            int(s, key!("island"), island);
            int(s, key!("from_dvfs"), from_dvfs);
            int(s, key!("requested_dvfs"), requested_dvfs);
            int(s, key!("to_dvfs"), to_dvfs);
            boolean(s, key!("granted"), granted);
        }
        EventPayload::TransducerRezero {
            island,
            residual_w,
            offset_w,
        } => {
            int(s, kind!("TransducerRezero", "island"), island);
            real(s, key!("residual_w"), residual_w);
            real(s, key!("offset_w"), offset_w);
        }
        EventPayload::ThermalViolation {
            source,
            island,
            partner,
            value,
            limit,
        } => {
            label(s, kind!("ThermalViolation", "source"), source.as_str());
            int(s, key!("island"), island);
            if partner != u32::MAX {
                int(s, key!("partner"), partner);
            }
            real(s, key!("value"), value);
            real(s, key!("limit"), limit);
        }
        EventPayload::PolicyHoldReversal {
            island,
            level,
            epi_now,
            epi_prev,
            hold_intervals,
        } => {
            int(s, kind!("PolicyHoldReversal", "island"), island);
            real(s, key!("level"), level);
            real(s, key!("epi_now"), epi_now);
            real(s, key!("epi_prev"), epi_prev);
            int(s, key!("hold_intervals"), hold_intervals);
        }
        EventPayload::WorkerSpan {
            worker,
            label: name,
            start_s,
            end_s,
        } => {
            int(s, kind!("WorkerSpan", "worker"), worker);
            label(s, key!("label"), name);
            real(s, key!("start_s"), start_s);
            real(s, key!("end_s"), end_s);
        }
        EventPayload::Injection {
            label: name,
            island,
            active,
            value,
        } => {
            label(s, kind!("Injection", "label"), name);
            if island != u32::MAX {
                int(s, key!("island"), island);
            }
            boolean(s, key!("active"), active);
            real(s, key!("value"), value);
        }
        EventPayload::Alarm {
            monitor,
            island,
            round,
            value,
            threshold,
        } => {
            label(s, kind!("Alarm", "monitor"), monitor);
            if island != u32::MAX {
                int(s, key!("island"), island);
            }
            int(s, key!("round"), round);
            real(s, key!("value"), value);
            real(s, key!("threshold"), threshold);
        }
    }
    s.push(b'}');
}

/// Renders a slice of events as a JSONL document (one event per line,
/// trailing newline after the last).
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut s = Vec::new();
    for e in events {
        write_event_jsonl(&mut s, e);
        s.push(b'\n');
    }
    into_text(s)
}

/// A CSV time-series writer: a header of column names, then rows of
/// fixed-precision values. Rows shorter than the header are padded with
/// empty cells so the column count is constant.
#[derive(Debug, Clone)]
pub struct CsvSeries {
    columns: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl CsvSeries {
    /// A series with the given column names.
    pub fn new<S: Into<String>>(columns: impl IntoIterator<Item = S>) -> Self {
        Self {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Rows longer than the header are truncated.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = f64>) {
        let mut row: Vec<f64> = row.into_iter().collect();
        row.truncate(self.columns.len());
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the series as a CSV document.
    pub fn to_csv(&self) -> String {
        let mut s = self.columns.join(",").into_bytes();
        s.push(b'\n');
        for row in &self.rows {
            for (i, _) in self.columns.iter().enumerate() {
                if i > 0 {
                    s.push(b',');
                }
                if let Some(v) = row.get(i) {
                    push_num(&mut s, *v, 6);
                }
            }
            s.push(b'\n');
        }
        into_text(s)
    }

    /// Writes the CSV document to `w`.
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(self.to_csv().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ThermalSource;

    fn at(seq: u64, time_s: f64, payload: EventPayload) -> Event {
        Event {
            seq,
            time_s,
            payload,
        }
    }

    fn render(event: &Event) -> String {
        let mut s = Vec::new();
        write_event_jsonl(&mut s, event);
        into_text(s)
    }

    /// SplitMix64: the seeded stream of the synthetic tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Event `i` of a synthetic stream that takes every branch of the
    /// walk within 40 events: the variants in turn, each boolean both
    /// ways every 20 events, the `u32::MAX` sentinels both ways every 40,
    /// and a NaN real every 13th event.
    fn synthetic(i: u64, r: u64) -> Event {
        let x = if i % 13 == 0 {
            f64::NAN
        } else {
            (r >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0
        };
        let flag = (i / 10) % 2 == 0;
        let island = (r >> 32) as u32 % 16;
        let opt = if (i / 20) % 2 == 0 { u32::MAX } else { island };
        let payload = match i % 10 {
            0 => EventPayload::GpmRound {
                span: r,
                round: i,
                budget_w: x,
                actual_w: -x,
                islands: island,
            },
            1 => EventPayload::GpmAllocation {
                round: i,
                island,
                allocated_w: x,
                actual_w: x / 3.0,
                budget_w: 80.0,
            },
            2 => EventPayload::PicDecision {
                span: r,
                parent: r >> 7,
                round: i / 10,
                step: island,
                island,
                sensed_w: x,
                utilization: x / 50.0,
                target_w: 16.0,
                error: -x,
                p_term: x * 1e-3,
                i_term: x * 1e-4,
                d_term: x * 1e-7,
                output: x / 7.0,
                dvfs_index: island,
                saturated: flag,
            },
            3 => EventPayload::Actuation {
                span: r,
                parent: r >> 9,
                island,
                from_dvfs: island,
                requested_dvfs: island + 1,
                to_dvfs: island + u32::from(flag),
                granted: flag,
            },
            4 => EventPayload::TransducerRezero {
                island,
                residual_w: x,
                offset_w: x / 9.0,
            },
            5 => EventPayload::ThermalViolation {
                source: [
                    ThermalSource::SingleIslandCap,
                    ThermalSource::AdjacentPairCap,
                    ThermalSource::DieThreshold,
                ][(r % 3) as usize],
                island,
                partner: opt,
                value: x,
                limit: 17.6,
            },
            6 => EventPayload::PolicyHoldReversal {
                island,
                level: x / 50.0,
                epi_now: x * 1e-9,
                epi_prev: -x * 1e-9,
                hold_intervals: island,
            },
            7 => EventPayload::WorkerSpan {
                worker: island,
                label: "measure",
                start_s: x,
                end_s: x + 1.0,
            },
            8 => EventPayload::Injection {
                label: "sensor-noise",
                island: opt,
                active: flag,
                value: x,
            },
            _ => EventPayload::Alarm {
                monitor: "stale-sensor",
                island: opt,
                round: i,
                value: x,
                threshold: 6.0,
            },
        };
        at(i, i as f64 * 5e-4, payload)
    }

    fn synthetic_stream(n: u64) -> Vec<Event> {
        let mut state = 0x05EE_D0F1_E1D5_u64;
        (0..n).map(|i| synthetic(i, splitmix(&mut state))).collect()
    }

    #[test]
    fn write_event_jsonl_lines_make_the_document() {
        // Each line written alone, newline added, is the document's line,
        // and its kind label names the event's kind.
        let events = synthetic_stream(600);
        let text = events_to_jsonl(&events);
        let mut lines = Vec::new();
        for e in &events {
            let start = lines.len();
            write_event_jsonl(&mut lines, e);
            let kind = format!(", \"kind\": \"{}\", ", e.kind().as_str());
            let line = String::from_utf8_lossy(&lines[start..]);
            assert!(line.contains(&kind), "{line}");
            lines.push(b'\n');
        }
        assert!(
            lines == text.as_bytes(),
            "write_event_jsonl drifted from events_to_jsonl"
        );
    }

    #[test]
    fn write_event_jsonl_appends_to_the_buffer() {
        let e = at(
            1,
            0.0005,
            EventPayload::TransducerRezero {
                island: 0,
                residual_w: 0.2,
                offset_w: 0.08,
            },
        );
        let mut s = b"prefix|".to_vec();
        write_event_jsonl(&mut s, &e);
        assert_eq!(into_text(s), format!("prefix|{}", render(&e)));
    }

    #[test]
    fn pic_decision_line_has_stable_field_order() {
        let span = crate::SpanId::pic_decision(2, 1, 3);
        let line = render(&at(
            3,
            0.0015,
            EventPayload::PicDecision {
                span: span.raw(),
                parent: span.parent().unwrap().raw(),
                round: 2,
                step: 3,
                island: 1,
                sensed_w: 18.5,
                utilization: 0.75,
                target_w: 16.0,
                error: -0.125,
                p_term: -0.05,
                i_term: -0.0625,
                d_term: -0.0125,
                output: -0.125,
                dvfs_index: 7,
                saturated: true,
            },
        ));
        assert_eq!(
            line,
            format!(
                "{{\"seq\": 3, \"t\": 0.001500, \"kind\": \"PicDecision\", \
                 \"span\": {}, \"parent\": {}, \"round\": 2, \"step\": 3, \"island\": 1, \
                 \"sensed_w\": 18.500000, \"utilization\": 0.750000, \"target_w\": 16.000000, \
                 \"error\": -0.125000, \"p\": -0.050000, \"i\": -0.062500, \"d\": -0.012500, \
                 \"output\": -0.125000, \"dvfs\": 7, \"saturated\": true}}",
                span.raw(),
                span.parent().unwrap().raw()
            )
        );
    }

    #[test]
    fn actuation_and_round_lines_carry_span_links() {
        let round = crate::SpanId::gpm_round(14);
        let line = render(&at(
            10,
            0.07,
            EventPayload::GpmRound {
                span: round.raw(),
                round: 14,
                budget_w: 64.0,
                actual_w: 61.5,
                islands: 4,
            },
        ));
        assert_eq!(
            line,
            format!(
                "{{\"seq\": 10, \"t\": 0.070000, \"kind\": \"GpmRound\", \"span\": {}, \
                 \"round\": 14, \"budget_w\": 64.000000, \"actual_w\": 61.500000, \
                 \"islands\": 4}}",
                round.raw()
            )
        );
        let act = crate::SpanId::actuation(14, 2, 7);
        let line = render(&at(
            11,
            0.0735,
            EventPayload::Actuation {
                span: act.raw(),
                parent: act.parent().unwrap().raw(),
                island: 2,
                from_dvfs: 5,
                requested_dvfs: 7,
                to_dvfs: 6,
                granted: false,
            },
        ));
        assert_eq!(
            line,
            format!(
                "{{\"seq\": 11, \"t\": 0.073500, \"kind\": \"Actuation\", \"span\": {}, \
                 \"parent\": {}, \"island\": 2, \"from_dvfs\": 5, \"requested_dvfs\": 7, \
                 \"to_dvfs\": 6, \"granted\": false}}",
                act.raw(),
                act.parent().unwrap().raw()
            )
        );
    }

    #[test]
    fn chip_wide_alarm_omits_island_targeted_alarm_keeps_it() {
        let chip_wide = render(&at(
            5,
            0.05,
            EventPayload::Alarm {
                monitor: "budget-overshoot",
                island: u32::MAX,
                round: 9,
                value: 0.081,
                threshold: 0.05,
            },
        ));
        assert_eq!(
            chip_wide,
            "{\"seq\": 5, \"t\": 0.050000, \"kind\": \"Alarm\", \
             \"monitor\": \"budget-overshoot\", \"round\": 9, \"value\": 0.081000, \
             \"threshold\": 0.050000}"
        );
        let targeted = render(&at(
            6,
            0.05,
            EventPayload::Alarm {
                monitor: "stale-sensor",
                island: 3,
                round: 9,
                value: 8.0,
                threshold: 6.0,
            },
        ));
        assert!(targeted.contains("\"island\": 3"), "{targeted}");
    }

    #[test]
    fn pair_violation_includes_partner_single_omits_it() {
        let pair = render(&at(
            0,
            0.01,
            EventPayload::ThermalViolation {
                source: ThermalSource::AdjacentPairCap,
                island: 2,
                partner: 3,
                value: 18.0,
                limit: 17.6,
            },
        ));
        assert!(pair.contains("\"partner\": 3"), "{pair}");
        let single = render(&at(
            1,
            0.01,
            EventPayload::ThermalViolation {
                source: ThermalSource::SingleIslandCap,
                island: 2,
                partner: u32::MAX,
                value: 11.0,
                limit: 10.4,
            },
        ));
        assert!(!single.contains("partner"), "{single}");
        assert!(single.contains("\"source\": \"single_island_cap\""));
    }

    #[test]
    fn jsonl_document_is_one_line_per_event() {
        let events = vec![
            at(
                0,
                0.0,
                EventPayload::GpmAllocation {
                    round: 0,
                    island: 0,
                    allocated_w: 10.0,
                    actual_w: 0.0,
                    budget_w: 80.0,
                },
            ),
            at(
                1,
                0.0005,
                EventPayload::TransducerRezero {
                    island: 0,
                    residual_w: 0.2,
                    offset_w: 0.08,
                },
            ),
        ];
        let doc = events_to_jsonl(&events);
        assert_eq!(doc.lines().count(), 2);
        assert!(doc.ends_with('\n'));
        for line in doc.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn non_finite_numbers_render_as_zero() {
        let line = render(&at(
            0,
            f64::NAN,
            EventPayload::WorkerSpan {
                worker: 0,
                label: "measure",
                start_s: f64::INFINITY,
                end_s: 1.0,
            },
        ));
        assert!(line.contains("\"t\": 0.0,"), "{line}");
        assert!(line.contains("\"start_s\": 0.0,"), "{line}");
    }

    #[test]
    fn csv_renders_header_and_fixed_precision_rows() {
        let mut series = CsvSeries::new(["time_s", "chip_power_w", "budget_w"]);
        series.push_row([0.0005, 61.25, 64.0]);
        series.push_row([0.001, 62.5, 64.0]);
        assert_eq!(
            series.to_csv(),
            "time_s,chip_power_w,budget_w\n\
             0.000500,61.250000,64.000000\n\
             0.001000,62.500000,64.000000\n"
        );
        assert_eq!(series.len(), 2);
    }

    #[test]
    fn csv_pads_short_rows_and_truncates_long_ones() {
        let mut series = CsvSeries::new(["a", "b", "c"]);
        series.push_row([1.0]);
        series.push_row([1.0, 2.0, 3.0, 4.0]);
        let csv = series.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[1], "1.000000,,");
        assert_eq!(lines[2], "1.000000,2.000000,3.000000");
    }
}
