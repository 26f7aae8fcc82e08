//! Exporters: JSONL event traces and CSV time-series.
//!
//! Both formats are rendered with a **stable field order and fixed
//! decimal precision** (six decimals, byte-identical to `{:.6}`, through
//! the crate's `fixed` formatter), because the CI determinism lane diffs
//! exported artifacts byte-for-byte across worker counts. Every renderer
//! appends to one caller-owned buffer: no per-event or per-number
//! `String`. All numbers in events are finite by construction; non-finite
//! values render as `0.0` rather than producing invalid JSON.

use crate::event::{Event, EventPayload};
use crate::fixed::{push_num, push_u64};
use std::io::{self, Write};

/// Appends `key` (a literal `, "name": ` fragment) and an integer.
pub(crate) fn int(s: &mut String, key: &str, v: impl Into<u64>) {
    s.push_str(key);
    push_u64(s, v.into());
}

/// Appends `key` and a fixed-precision number.
pub(crate) fn real(s: &mut String, key: &str, x: f64) {
    s.push_str(key);
    push_num(s, x, 6);
}

/// Appends `key` and a boolean.
pub(crate) fn boolean(s: &mut String, key: &str, b: bool) {
    s.push_str(key);
    s.push_str(if b { "true" } else { "false" });
}

/// Appends `key` and a quoted label (labels are static identifiers and
/// need no escaping).
pub(crate) fn label(s: &mut String, key: &str, text: &str) {
    s.push_str(key);
    s.push('"');
    s.push_str(text);
    s.push('"');
}

/// Appends one event as a single JSONL line (no trailing newline) to `s`.
///
/// Field order is fixed: `seq`, `t`, `kind`, then payload fields in
/// declaration order.
pub fn write_event_jsonl(s: &mut String, event: &Event) {
    int(s, "{\"seq\": ", event.seq);
    real(s, ", \"t\": ", event.time_s);
    label(s, ", \"kind\": ", event.kind().as_str());
    match event.payload {
        EventPayload::GpmRound {
            span,
            round,
            budget_w,
            actual_w,
            islands,
        } => {
            int(s, ", \"span\": ", span);
            int(s, ", \"round\": ", round);
            real(s, ", \"budget_w\": ", budget_w);
            real(s, ", \"actual_w\": ", actual_w);
            int(s, ", \"islands\": ", islands);
        }
        EventPayload::GpmAllocation {
            round,
            island,
            allocated_w,
            actual_w,
            budget_w,
        } => {
            int(s, ", \"round\": ", round);
            int(s, ", \"island\": ", island);
            real(s, ", \"allocated_w\": ", allocated_w);
            real(s, ", \"actual_w\": ", actual_w);
            real(s, ", \"budget_w\": ", budget_w);
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
            int(s, ", \"span\": ", span);
            int(s, ", \"parent\": ", parent);
            int(s, ", \"round\": ", round);
            int(s, ", \"step\": ", step);
            int(s, ", \"island\": ", island);
            real(s, ", \"sensed_w\": ", sensed_w);
            real(s, ", \"utilization\": ", utilization);
            real(s, ", \"target_w\": ", target_w);
            real(s, ", \"error\": ", error);
            real(s, ", \"p\": ", p_term);
            real(s, ", \"i\": ", i_term);
            real(s, ", \"d\": ", d_term);
            real(s, ", \"output\": ", output);
            int(s, ", \"dvfs\": ", dvfs_index);
            boolean(s, ", \"saturated\": ", saturated);
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
            int(s, ", \"span\": ", span);
            int(s, ", \"parent\": ", parent);
            int(s, ", \"island\": ", island);
            int(s, ", \"from_dvfs\": ", from_dvfs);
            int(s, ", \"requested_dvfs\": ", requested_dvfs);
            int(s, ", \"to_dvfs\": ", to_dvfs);
            boolean(s, ", \"granted\": ", granted);
        }
        EventPayload::TransducerRezero {
            island,
            residual_w,
            offset_w,
        } => {
            int(s, ", \"island\": ", island);
            real(s, ", \"residual_w\": ", residual_w);
            real(s, ", \"offset_w\": ", offset_w);
        }
        EventPayload::ThermalViolation {
            source,
            island,
            partner,
            value,
            limit,
        } => {
            label(s, ", \"source\": ", source.as_str());
            int(s, ", \"island\": ", island);
            if partner != u32::MAX {
                int(s, ", \"partner\": ", partner);
            }
            real(s, ", \"value\": ", value);
            real(s, ", \"limit\": ", limit);
        }
        EventPayload::PolicyHoldReversal {
            island,
            level,
            epi_now,
            epi_prev,
            hold_intervals,
        } => {
            int(s, ", \"island\": ", island);
            real(s, ", \"level\": ", level);
            real(s, ", \"epi_now\": ", epi_now);
            real(s, ", \"epi_prev\": ", epi_prev);
            int(s, ", \"hold_intervals\": ", hold_intervals);
        }
        EventPayload::WorkerSpan {
            worker,
            label: name,
            start_s,
            end_s,
        } => {
            int(s, ", \"worker\": ", worker);
            label(s, ", \"label\": ", name);
            real(s, ", \"start_s\": ", start_s);
            real(s, ", \"end_s\": ", end_s);
        }
        EventPayload::Injection {
            label: name,
            island,
            active,
            value,
        } => {
            label(s, ", \"label\": ", name);
            if island != u32::MAX {
                int(s, ", \"island\": ", island);
            }
            boolean(s, ", \"active\": ", active);
            real(s, ", \"value\": ", value);
        }
        EventPayload::Alarm {
            monitor,
            island,
            round,
            value,
            threshold,
        } => {
            label(s, ", \"monitor\": ", monitor);
            if island != u32::MAX {
                int(s, ", \"island\": ", island);
            }
            int(s, ", \"round\": ", round);
            real(s, ", \"value\": ", value);
            real(s, ", \"threshold\": ", threshold);
        }
    }
    s.push('}');
}

/// Renders a slice of events as a JSONL document (one event per line,
/// trailing newline after the last).
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut s = String::new();
    for e in events {
        write_event_jsonl(&mut s, e);
        s.push('\n');
    }
    s
}

/// Writes a JSONL event trace to `w`.
pub fn write_jsonl<W: Write>(w: &mut W, events: &[Event]) -> io::Result<()> {
    w.write_all(events_to_jsonl(events).as_bytes())
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
        let mut s = self.columns.join(",");
        s.push('\n');
        for row in &self.rows {
            for (i, _) in self.columns.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                if let Some(v) = row.get(i) {
                    push_num(&mut s, *v, 6);
                }
            }
            s.push('\n');
        }
        s
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
        let mut s = String::new();
        write_event_jsonl(&mut s, event);
        s
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
        let mut s = String::from("prefix|");
        write_event_jsonl(&mut s, &e);
        assert_eq!(s, format!("prefix|{}", render(&e)));
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
