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
//! A JSONL line is written by one field walk over a table of constant
//! text. The same walk serves plain rendering ([`write_event_jsonl`],
//! [`events_to_jsonl`]) and rendering that folds each line into FNV-1a
//! chains as it goes ([`fold_event_jsonl`]), where constant text costs
//! O(1) through its precomputed FNV-1a jump (see [`crate::digest`]).

use crate::digest::{Fnv1a64, FnvJump, FnvLiteral};
use crate::event::{Event, EventPayload};
use crate::fixed::{into_text, push_num, push_u64};
use std::io::{self, Write};

// Field writers with plain `&str` keys, for the Chrome and health
// renderers, which no digest reads.

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

/// A literal of the JSONL field table: `text` paired with its FNV-1a
/// jump.
macro_rules! literal {
    ($text:expr) => {
        FnvLiteral::new($text, &FnvJump::new($text))
    };
}

/// The key `, "<name>": `.
macro_rules! key {
    ($name:literal) => {
        literal!(concat!(", \"", $name, "\": "))
    };
}

/// The `kind` label merged with the key that follows it.
macro_rules! kind {
    ($kind:literal, $key:literal) => {
        literal!(concat!(", \"kind\": \"", $kind, "\", \"", $key, "\": "))
    };
}

/// A boolean field merged with the constant text after it, indexed by
/// the value: `[false, true]`.
macro_rules! flag {
    ($name:literal, $tail:literal) => {
        [
            literal!(concat!(", \"", $name, "\": false", $tail)),
            literal!(concat!(", \"", $name, "\": true", $tail)),
        ]
    };
}

// The JSONL field table: every constant run of a line, adjacent
// constants merged into one literal.
static SEQ: FnvLiteral = literal!("{\"seq\": ");
static T: FnvLiteral = key!("t");
static END: FnvLiteral = literal!("}\n");
static GPM_ROUND: FnvLiteral = kind!("GpmRound", "span");
static GPM_ALLOCATION: FnvLiteral = kind!("GpmAllocation", "round");
static PIC_DECISION: FnvLiteral = kind!("PicDecision", "span");
static ACTUATION: FnvLiteral = kind!("Actuation", "span");
static TRANSDUCER_REZERO: FnvLiteral = kind!("TransducerRezero", "island");
static THERMAL_VIOLATION: FnvLiteral = kind!("ThermalViolation", "source");
static POLICY_HOLD_REVERSAL: FnvLiteral = kind!("PolicyHoldReversal", "island");
static WORKER_SPAN: FnvLiteral = kind!("WorkerSpan", "worker");
static INJECTION: FnvLiteral = kind!("Injection", "label");
static ALARM: FnvLiteral = kind!("Alarm", "monitor");
static PARENT: FnvLiteral = key!("parent");
static ROUND: FnvLiteral = key!("round");
static STEP: FnvLiteral = key!("step");
static ISLAND: FnvLiteral = key!("island");
static ISLANDS: FnvLiteral = key!("islands");
static BUDGET_W: FnvLiteral = key!("budget_w");
static ACTUAL_W: FnvLiteral = key!("actual_w");
static ALLOCATED_W: FnvLiteral = key!("allocated_w");
static SENSED_W: FnvLiteral = key!("sensed_w");
static UTILIZATION: FnvLiteral = key!("utilization");
static TARGET_W: FnvLiteral = key!("target_w");
static ERROR: FnvLiteral = key!("error");
static P: FnvLiteral = key!("p");
static I: FnvLiteral = key!("i");
static D: FnvLiteral = key!("d");
static OUTPUT: FnvLiteral = key!("output");
static DVFS: FnvLiteral = key!("dvfs");
static SATURATED: [FnvLiteral; 2] = flag!("saturated", "}\n");
static FROM_DVFS: FnvLiteral = key!("from_dvfs");
static REQUESTED_DVFS: FnvLiteral = key!("requested_dvfs");
static TO_DVFS: FnvLiteral = key!("to_dvfs");
static GRANTED: [FnvLiteral; 2] = flag!("granted", "}\n");
static RESIDUAL_W: FnvLiteral = key!("residual_w");
static OFFSET_W: FnvLiteral = key!("offset_w");
static PARTNER: FnvLiteral = key!("partner");
static VALUE: FnvLiteral = key!("value");
static LIMIT: FnvLiteral = key!("limit");
static LEVEL: FnvLiteral = key!("level");
static EPI_NOW: FnvLiteral = key!("epi_now");
static EPI_PREV: FnvLiteral = key!("epi_prev");
static HOLD_INTERVALS: FnvLiteral = key!("hold_intervals");
static LABEL: FnvLiteral = key!("label");
static START_S: FnvLiteral = key!("start_s");
static END_S: FnvLiteral = key!("end_s");
static ACTIVE: [FnvLiteral; 2] = flag!("active", ", \"value\": ");
static THRESHOLD: FnvLiteral = key!("threshold");

/// Where the field walk sends a JSONL line.
trait Line {
    /// Appends constant text.
    fn lit(&mut self, text: &'static FnvLiteral);
    /// Appends an integer.
    fn int(&mut self, v: u64);
    /// Appends a fixed-precision number.
    fn real(&mut self, x: f64);
    /// Appends a quoted label (labels are static identifiers and need no
    /// escaping).
    fn label(&mut self, text: &str);
}

impl Line for Vec<u8> {
    fn lit(&mut self, text: &'static FnvLiteral) {
        self.extend_from_slice(text.text().as_bytes());
    }

    fn int(&mut self, v: u64) {
        push_u64(self, v);
    }

    fn real(&mut self, x: f64) {
        push_num(self, x, 6);
    }

    fn label(&mut self, text: &str) {
        self.push(b'"');
        self.extend_from_slice(text.as_bytes());
        self.push(b'"');
    }
}

/// A line appended to `out` and folded into two FNV-1a chains as it is
/// written: constant text through its jump, values byte by byte.
struct Folded<'a> {
    out: &'a mut Vec<u8>,
    whole: &'a mut Fnv1a64,
    block: &'a mut Fnv1a64,
}

impl Folded<'_> {
    /// Folds what was appended since `start` into both chains.
    fn fold_from(&mut self, start: usize) {
        self.whole.update_pair(self.block, &self.out[start..]);
    }
}

impl Line for Folded<'_> {
    fn lit(&mut self, text: &'static FnvLiteral) {
        self.out.lit(text);
        self.whole.update_literal(text);
        self.block.update_literal(text);
    }

    fn int(&mut self, v: u64) {
        let start = self.out.len();
        self.out.int(v);
        self.fold_from(start);
    }

    fn real(&mut self, x: f64) {
        let start = self.out.len();
        self.out.real(x);
        self.fold_from(start);
    }

    fn label(&mut self, text: &str) {
        let start = self.out.len();
        self.out.label(text);
        self.fold_from(start);
    }
}

/// The one field walk: writes `event` as a JSONL line, newline included.
///
/// Field order is fixed: `seq`, `t`, `kind`, then payload fields in
/// declaration order.
fn walk(s: &mut impl Line, event: &Event) {
    s.lit(&SEQ);
    s.int(event.seq);
    s.lit(&T);
    s.real(event.time_s);
    match event.payload {
        EventPayload::GpmRound {
            span,
            round,
            budget_w,
            actual_w,
            islands,
        } => {
            s.lit(&GPM_ROUND);
            s.int(span);
            s.lit(&ROUND);
            s.int(round);
            s.lit(&BUDGET_W);
            s.real(budget_w);
            s.lit(&ACTUAL_W);
            s.real(actual_w);
            s.lit(&ISLANDS);
            s.int(islands.into());
            s.lit(&END);
        }
        EventPayload::GpmAllocation {
            round,
            island,
            allocated_w,
            actual_w,
            budget_w,
        } => {
            s.lit(&GPM_ALLOCATION);
            s.int(round);
            s.lit(&ISLAND);
            s.int(island.into());
            s.lit(&ALLOCATED_W);
            s.real(allocated_w);
            s.lit(&ACTUAL_W);
            s.real(actual_w);
            s.lit(&BUDGET_W);
            s.real(budget_w);
            s.lit(&END);
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
            s.lit(&PIC_DECISION);
            s.int(span);
            s.lit(&PARENT);
            s.int(parent);
            s.lit(&ROUND);
            s.int(round);
            s.lit(&STEP);
            s.int(step.into());
            s.lit(&ISLAND);
            s.int(island.into());
            s.lit(&SENSED_W);
            s.real(sensed_w);
            s.lit(&UTILIZATION);
            s.real(utilization);
            s.lit(&TARGET_W);
            s.real(target_w);
            s.lit(&ERROR);
            s.real(error);
            s.lit(&P);
            s.real(p_term);
            s.lit(&I);
            s.real(i_term);
            s.lit(&D);
            s.real(d_term);
            s.lit(&OUTPUT);
            s.real(output);
            s.lit(&DVFS);
            s.int(dvfs_index.into());
            s.lit(&SATURATED[usize::from(saturated)]);
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
            s.lit(&ACTUATION);
            s.int(span);
            s.lit(&PARENT);
            s.int(parent);
            s.lit(&ISLAND);
            s.int(island.into());
            s.lit(&FROM_DVFS);
            s.int(from_dvfs.into());
            s.lit(&REQUESTED_DVFS);
            s.int(requested_dvfs.into());
            s.lit(&TO_DVFS);
            s.int(to_dvfs.into());
            s.lit(&GRANTED[usize::from(granted)]);
        }
        EventPayload::TransducerRezero {
            island,
            residual_w,
            offset_w,
        } => {
            s.lit(&TRANSDUCER_REZERO);
            s.int(island.into());
            s.lit(&RESIDUAL_W);
            s.real(residual_w);
            s.lit(&OFFSET_W);
            s.real(offset_w);
            s.lit(&END);
        }
        EventPayload::ThermalViolation {
            source,
            island,
            partner,
            value,
            limit,
        } => {
            s.lit(&THERMAL_VIOLATION);
            s.label(source.as_str());
            s.lit(&ISLAND);
            s.int(island.into());
            if partner != u32::MAX {
                s.lit(&PARTNER);
                s.int(partner.into());
            }
            s.lit(&VALUE);
            s.real(value);
            s.lit(&LIMIT);
            s.real(limit);
            s.lit(&END);
        }
        EventPayload::PolicyHoldReversal {
            island,
            level,
            epi_now,
            epi_prev,
            hold_intervals,
        } => {
            s.lit(&POLICY_HOLD_REVERSAL);
            s.int(island.into());
            s.lit(&LEVEL);
            s.real(level);
            s.lit(&EPI_NOW);
            s.real(epi_now);
            s.lit(&EPI_PREV);
            s.real(epi_prev);
            s.lit(&HOLD_INTERVALS);
            s.int(hold_intervals.into());
            s.lit(&END);
        }
        EventPayload::WorkerSpan {
            worker,
            label: name,
            start_s,
            end_s,
        } => {
            s.lit(&WORKER_SPAN);
            s.int(worker.into());
            s.lit(&LABEL);
            s.label(name);
            s.lit(&START_S);
            s.real(start_s);
            s.lit(&END_S);
            s.real(end_s);
            s.lit(&END);
        }
        EventPayload::Injection {
            label: name,
            island,
            active,
            value,
        } => {
            s.lit(&INJECTION);
            s.label(name);
            if island != u32::MAX {
                s.lit(&ISLAND);
                s.int(island.into());
            }
            s.lit(&ACTIVE[usize::from(active)]);
            s.real(value);
            s.lit(&END);
        }
        EventPayload::Alarm {
            monitor,
            island,
            round,
            value,
            threshold,
        } => {
            s.lit(&ALARM);
            s.label(monitor);
            if island != u32::MAX {
                s.lit(&ISLAND);
                s.int(island.into());
            }
            s.lit(&ROUND);
            s.int(round);
            s.lit(&VALUE);
            s.real(value);
            s.lit(&THRESHOLD);
            s.real(threshold);
            s.lit(&END);
        }
    }
}

/// Appends one event as a single JSONL line (no trailing newline) to `s`.
///
/// Field order is fixed: `seq`, `t`, `kind`, then payload fields in
/// declaration order.
pub fn write_event_jsonl(s: &mut Vec<u8>, event: &Event) {
    walk(s, event);
    // The walk writes whole lines; this one goes without its newline.
    s.pop();
}

/// Appends one event as a JSONL line, newline included, and folds the
/// line into `whole` and `block` as it is written: the same text as
/// [`events_to_jsonl`] renders for the event, and the same states as
/// [`Fnv1a64::update`] over that text on each chain. Constant text costs
/// O(1) per literal (see [`crate::digest`]); numbers and labels are
/// hashed byte by byte.
pub fn fold_event_jsonl(s: &mut Vec<u8>, event: &Event, whole: &mut Fnv1a64, block: &mut Fnv1a64) {
    walk(
        &mut Folded {
            out: s,
            whole,
            block,
        },
        event,
    );
}

/// Renders a slice of events as a JSONL document (one event per line,
/// trailing newline after the last).
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut s = Vec::new();
    for e in events {
        walk(&mut s, e);
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

    /// The distinct literals a walk applies, in first-use order.
    #[derive(Default)]
    struct Literals(Vec<&'static FnvLiteral>);

    impl Line for Literals {
        fn lit(&mut self, text: &'static FnvLiteral) {
            if !self.0.iter().any(|k| std::ptr::eq(*k, text)) {
                self.0.push(text);
            }
        }

        fn int(&mut self, _: u64) {}

        fn real(&mut self, _: f64) {}

        fn label(&mut self, _: &str) {}
    }

    #[test]
    fn every_literal_jumps_like_the_byte_walk() {
        let mut lits = Literals::default();
        for e in &synthetic_stream(40) {
            walk(&mut lits, e);
        }
        // The whole field table: `{"seq": `, `, "t": ` and `}\n`, ten
        // kind-and-key literals, 33 keys and three booleans both ways.
        assert_eq!(lits.0.len(), 52);
        // The table is indexed by the low byte, so all 256 of them cover
        // it exhaustively; the high parts are seeded draws.
        let mut state = 0xF1A7_2024u64;
        for lit in &lits.0 {
            for low in 0..256u64 {
                for _ in 0..4 {
                    let h = (splitmix(&mut state) & !0xff) | low;
                    let (mut jump, mut bytes) = (Fnv1a64::at_state(h), Fnv1a64::at_state(h));
                    jump.update_literal(lit);
                    bytes.update(lit.text().as_bytes());
                    assert_eq!(
                        jump.finish(),
                        bytes.finish(),
                        "{:?} from {h:#x}",
                        lit.text()
                    );
                }
            }
        }
    }

    #[test]
    fn folded_walk_writes_and_hashes_like_the_byte_walk() {
        let events = synthetic_stream(600);
        let text = events_to_jsonl(&events);
        let (mut s, mut whole, mut block) = (Vec::new(), Fnv1a64::new(), Fnv1a64::new());
        block.update(b"head|");
        for e in &events {
            fold_event_jsonl(&mut s, e, &mut whole, &mut block);
        }
        assert!(s == text.as_bytes(), "folded walk wrote different text");
        assert_eq!(whole.finish(), crate::fnv1a64(text.as_bytes()));
        assert_eq!(
            block.finish(),
            crate::fnv1a64(format!("head|{text}").as_bytes())
        );
        // `write_event_jsonl` writes the same lines without newlines, and
        // each line's merged kind literal names the event's kind.
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
            "write_event_jsonl drifted from the walk"
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
