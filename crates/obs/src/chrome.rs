//! Chrome `trace_event` JSON export, so any recorded trajectory opens in
//! Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//!
//! The rendering maps the simulated chip onto one trace process
//! (`pid 0`, named `cpm-chip`) with one thread lane per control context:
//! `tid 0` is the GPM, `tid 1 + i` is island `i`'s PIC, and
//! `tid 1000 + w` carries replay-phase `WorkerSpan`s for execution
//! context `w`. Timestamps are the events' **simulated** time converted
//! to microseconds, so the exported bytes are as deterministic as the
//! event stream itself and CI can diff them across worker counts.
//!
//! Event mapping:
//!
//! * `WorkerSpan` → complete span (`"ph": "X"`),
//! * `GpmAllocation` → per-island counter track (`"ph": "C"`) carrying
//!   allocated vs actual watts,
//! * everything else → instant events (`"ph": "i"`) on their island's
//!   lane with the payload as `args`.
//!
//! The writer appends bytes to one `Vec<u8>`, through the same field
//! writers and fixed-precision formatter as the JSONL exporter, and the
//! document is checked as UTF-8 once, when it becomes a `String`.

use crate::event::{Event, EventPayload};
use crate::export::{boolean, int, label, real};
use crate::fixed::{into_text, push_fixed, push_u64};
use std::collections::BTreeSet;

/// Thread-id lane for an island's PIC.
fn island_tid(island: u32) -> u64 {
    1 + island as u64
}

/// Thread-id lane for a worker span.
fn worker_tid(worker: u32) -> u64 {
    1000 + worker as u64
}

/// Appends seconds as microseconds with fixed sub-µs precision
/// (`{:.3}`; non-finite renders as `0.000`).
fn push_us(s: &mut Vec<u8>, seconds: f64) {
    let v = seconds * 1e6;
    push_fixed(s, if v.is_finite() { v } else { 0.0 }, 3);
}

/// The lane an event renders on (`tid 0` for chip-wide events).
fn tid_of(event: &Event) -> u64 {
    match event.payload {
        EventPayload::GpmRound { .. } | EventPayload::GpmAllocation { .. } => 0,
        EventPayload::PicDecision { island, .. }
        | EventPayload::Actuation { island, .. }
        | EventPayload::TransducerRezero { island, .. }
        | EventPayload::PolicyHoldReversal { island, .. } => island_tid(island),
        EventPayload::ThermalViolation { island, .. } => island_tid(island),
        EventPayload::WorkerSpan { worker, .. } => worker_tid(worker),
        EventPayload::Injection { island, .. } | EventPayload::Alarm { island, .. } => {
            if island == u32::MAX {
                0
            } else {
                island_tid(island)
            }
        }
    }
}

/// Appends a trace event's opening: `{"ph": "<ph>", "pid": 0, "tid": <tid>`.
fn open(s: &mut Vec<u8>, ph: &str, tid: u64) {
    s.extend_from_slice(b"{\"ph\": \"");
    s.extend_from_slice(ph.as_bytes());
    s.extend_from_slice(b"\", \"pid\": 0, \"tid\": ");
    push_u64(s, tid);
}

/// Appends an instant event's head up to the opening of its `args`
/// object; its name is `name` followed by `suffix`.
fn instant(s: &mut Vec<u8>, e: &Event, scope: &str, name: &str, suffix: &str) {
    open(s, "i", tid_of(e));
    s.extend_from_slice(b", \"ts\": ");
    push_us(s, e.time_s);
    s.extend_from_slice(b", \"s\": \"");
    s.extend_from_slice(scope.as_bytes());
    s.extend_from_slice(b"\", \"name\": \"");
    s.extend_from_slice(name.as_bytes());
    s.extend_from_slice(suffix.as_bytes());
    s.extend_from_slice(b"\", \"args\": {");
}

/// Appends one event as a single trace-event line (no separator).
fn write_trace_event(s: &mut Vec<u8>, e: &Event) {
    match e.payload {
        EventPayload::WorkerSpan {
            label: name,
            start_s,
            end_s,
            ..
        } => {
            open(s, "X", tid_of(e));
            s.extend_from_slice(b", \"ts\": ");
            push_us(s, start_s);
            let dur = ((end_s - start_s) * 1e6).max(0.0);
            s.extend_from_slice(b", \"dur\": ");
            push_fixed(s, if dur.is_finite() { dur } else { 0.0 }, 3);
            label(s, ", \"name\": ", name);
            int(s, ", \"args\": {\"seq\": ", e.seq);
        }
        EventPayload::GpmAllocation {
            round,
            island,
            allocated_w,
            actual_w,
            ..
        } => {
            open(s, "C", tid_of(e));
            s.extend_from_slice(b", \"ts\": ");
            push_us(s, e.time_s);
            int(s, ", \"name\": \"island", island);
            real(s, " power_w\", \"args\": {\"allocated\": ", allocated_w);
            real(s, ", \"actual\": ", actual_w);
            int(s, ", \"round\": ", round);
        }
        EventPayload::GpmRound {
            span,
            round,
            budget_w,
            actual_w,
            islands,
        } => {
            instant(s, e, "p", "GpmRound", "");
            int(s, "\"span\": ", span);
            int(s, ", \"round\": ", round);
            real(s, ", \"budget_w\": ", budget_w);
            real(s, ", \"actual_w\": ", actual_w);
            int(s, ", \"islands\": ", islands);
        }
        EventPayload::PicDecision {
            span,
            parent,
            round,
            step,
            island,
            sensed_w,
            target_w,
            error,
            output,
            dvfs_index,
            ..
        } => {
            instant(s, e, "t", "PicDecision", "");
            int(s, "\"span\": ", span);
            int(s, ", \"parent\": ", parent);
            int(s, ", \"round\": ", round);
            int(s, ", \"step\": ", step);
            int(s, ", \"island\": ", island);
            real(s, ", \"sensed_w\": ", sensed_w);
            real(s, ", \"target_w\": ", target_w);
            real(s, ", \"error\": ", error);
            real(s, ", \"output\": ", output);
            int(s, ", \"dvfs\": ", dvfs_index);
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
            instant(s, e, "t", "Actuation", "");
            int(s, "\"span\": ", span);
            int(s, ", \"parent\": ", parent);
            int(s, ", \"island\": ", island);
            int(s, ", \"from\": ", from_dvfs);
            int(s, ", \"requested\": ", requested_dvfs);
            int(s, ", \"to\": ", to_dvfs);
            boolean(s, ", \"granted\": ", granted);
        }
        EventPayload::TransducerRezero {
            island,
            residual_w,
            offset_w,
        } => {
            instant(s, e, "t", "TransducerRezero", "");
            int(s, "\"island\": ", island);
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
            instant(s, e, "t", "ThermalViolation", "");
            label(s, "\"source\": ", source.as_str());
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
            instant(s, e, "t", "PolicyHoldReversal", "");
            int(s, "\"island\": ", island);
            real(s, ", \"level\": ", level);
            real(s, ", \"epi_now\": ", epi_now);
            real(s, ", \"epi_prev\": ", epi_prev);
            int(s, ", \"hold_intervals\": ", hold_intervals);
        }
        EventPayload::Injection {
            label: name,
            island,
            active,
            value,
        } => {
            instant(s, e, "g", "Injection ", name);
            boolean(s, "\"active\": ", active);
            real(s, ", \"value\": ", value);
            if island != u32::MAX {
                int(s, ", \"island\": ", island);
            }
        }
        EventPayload::Alarm {
            monitor,
            island,
            round,
            value,
            threshold,
        } => {
            instant(s, e, "g", "Alarm ", monitor);
            int(s, "\"round\": ", round);
            real(s, ", \"value\": ", value);
            real(s, ", \"threshold\": ", threshold);
            if island != u32::MAX {
                int(s, ", \"island\": ", island);
            }
        }
    }
    s.extend_from_slice(b"}}");
}

/// Renders a drained event slice as a Chrome `trace_event` JSON
/// document (object form, one trace-event per line).
pub fn events_to_chrome(events: &[Event]) -> String {
    // A scenario's trace runs about 243 B per event, so this buffer
    // grows once. Reserving 256 B per event made the scenario op no
    // faster and raised its peak RSS 7–9 % at each of five checkout
    // paths (DESIGN.md §3c), so the smaller reservation stays.
    let mut s = Vec::with_capacity(events.len() * 160 + 256);
    s.extend_from_slice(b"{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    // Metadata first: name the process and every lane in use.
    s.extend_from_slice(
        b"{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"process_name\", \
         \"args\": {\"name\": \"cpm-chip\"}}",
    );
    let tids: BTreeSet<u64> = events.iter().map(tid_of).collect();
    for tid in tids {
        s.extend_from_slice(b",\n");
        open(&mut s, "M", tid);
        s.extend_from_slice(b", \"name\": \"thread_name\", \"args\": {\"name\": \"");
        if tid == 0 {
            s.extend_from_slice(b"gpm");
        } else if tid >= 1000 {
            s.extend_from_slice(b"worker");
            push_u64(&mut s, tid - 1000);
        } else {
            s.extend_from_slice(b"island");
            push_u64(&mut s, tid - 1);
        }
        s.extend_from_slice(b"\"}}");
    }
    for e in events {
        s.extend_from_slice(b",\n");
        write_trace_event(&mut s, e);
    }
    s.extend_from_slice(b"\n]}\n");
    into_text(s)
}

/// Structural validation of a rendered Chrome trace: the envelope keys,
/// one balanced JSON object per trace-event line, and a `ph` tag on each.
/// This is the same bar the pinned-fixture test and the artifact schema
/// gate hold generated traces to.
pub fn validate_chrome_trace(doc: &str) -> Result<(), String> {
    if !doc.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [") {
        return Err("missing trace envelope".to_string());
    }
    if !doc.ends_with("]}\n") {
        return Err("unterminated traceEvents array".to_string());
    }
    let mut saw_process_meta = false;
    for (i, line) in doc.lines().enumerate() {
        if i == 0 || !line.starts_with('{') {
            continue;
        }
        let body = line.trim_end_matches(',');
        if body.matches('{').count() != body.matches('}').count() {
            return Err(format!("unbalanced braces on line {}: {line}", i + 1));
        }
        if !body.contains("\"ph\": \"") {
            return Err(format!("trace event without ph on line {}: {line}", i + 1));
        }
        if body.contains("\"process_name\"") {
            saw_process_meta = true;
        }
    }
    if !saw_process_meta {
        return Err("missing process_name metadata".to_string());
    }
    Ok(())
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

    fn sample_events() -> Vec<Event> {
        let pic = SpanId::pic_decision(1, 1, 0);
        let act = SpanId::actuation(1, 1, 0);
        vec![
            ev(
                0,
                0.005,
                EventPayload::GpmRound {
                    span: SpanId::gpm_round(1).raw(),
                    round: 1,
                    budget_w: 64.0,
                    actual_w: 60.0,
                    islands: 2,
                },
            ),
            ev(
                1,
                0.005,
                EventPayload::GpmAllocation {
                    round: 1,
                    island: 1,
                    allocated_w: 32.0,
                    actual_w: 30.0,
                    budget_w: 64.0,
                },
            ),
            ev(
                2,
                0.0055,
                EventPayload::PicDecision {
                    span: pic.raw(),
                    parent: pic.parent().unwrap().raw(),
                    round: 1,
                    step: 0,
                    island: 1,
                    sensed_w: 30.5,
                    utilization: 0.8,
                    target_w: 32.0,
                    error: 0.02,
                    p_term: 0.008,
                    i_term: 0.001,
                    d_term: 0.0,
                    output: 0.009,
                    dvfs_index: 6,
                    saturated: false,
                },
            ),
            ev(
                3,
                0.0055,
                EventPayload::Actuation {
                    span: act.raw(),
                    parent: act.parent().unwrap().raw(),
                    island: 1,
                    from_dvfs: 5,
                    requested_dvfs: 6,
                    to_dvfs: 6,
                    granted: true,
                },
            ),
            ev(
                4,
                0.01,
                EventPayload::WorkerSpan {
                    worker: 0,
                    label: "measure",
                    start_s: 0.0,
                    end_s: 0.01,
                },
            ),
            ev(
                5,
                0.01,
                EventPayload::Alarm {
                    monitor: "budget-overshoot",
                    island: u32::MAX,
                    round: 1,
                    value: 0.08,
                    threshold: 0.05,
                },
            ),
        ]
    }

    #[test]
    fn rendered_trace_validates_and_names_every_lane() {
        let doc = events_to_chrome(&sample_events());
        validate_chrome_trace(&doc).expect("generated trace must validate");
        for needle in [
            "\"name\": \"cpm-chip\"",
            "\"name\": \"gpm\"",
            "\"name\": \"island1\"",
            "\"name\": \"worker0\"",
            "\"ph\": \"X\"",
            "\"ph\": \"C\"",
            "\"name\": \"GpmRound\"",
            "\"name\": \"PicDecision\"",
            "\"name\": \"Actuation\"",
            "\"name\": \"Alarm budget-overshoot\"",
        ] {
            assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
        }
        // Simulated µs: the 5 ms GpmRound lands at ts 5000.
        assert!(doc.contains("\"ts\": 5000.000"), "{doc}");
        // 10 ms worker span renders a 10 000 µs duration.
        assert!(doc.contains("\"dur\": 10000.000"), "{doc}");
    }

    #[test]
    fn rendering_is_deterministic_and_empty_stream_still_validates() {
        let events = sample_events();
        assert_eq!(events_to_chrome(&events), events_to_chrome(&events));
        let empty = events_to_chrome(&[]);
        validate_chrome_trace(&empty).expect("empty trace must validate");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_chrome_trace("not a trace").is_err());
        let doc = events_to_chrome(&sample_events());
        let broken = doc.replace("\"ph\": \"C\"", "\"qh\": \"C\"");
        assert!(validate_chrome_trace(&broken).is_err());
        let truncated = &doc[..doc.len() - 4];
        assert!(validate_chrome_trace(truncated).is_err());
    }
}
