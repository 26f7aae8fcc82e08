//! `cpm-obs` — the observability substrate for the CPM stack.
//!
//! Its pieces, all std-only (the workspace builds with zero external
//! crates):
//!
//! * **Flight recorder** ([`Recorder`]) — a bounded ring buffer of typed
//!   [`Event`]s with simulated-time timestamps. Answers *what happened,
//!   in order*, with bounded memory; drops the oldest history on overflow.
//! * **Metrics registry** ([`Registry`]) — named counters, gauges, and
//!   fixed-bucket histograms with deterministic [`Snapshot`] rendering to
//!   JSON and a one-page text report. Answers *how much, in total*.
//! * **Exporters** ([`export`]) — JSONL event traces and CSV time-series
//!   with stable field order and fixed decimal precision, so CI can diff
//!   artifacts byte-for-byte across worker counts.
//! * **Fixed-precision formatter** (crate-internal) — `{:.N}`-identical
//!   decimal rendering straight into the caller's byte buffer, shared by
//!   every exporter. Every renderer appends bytes to one `Vec<u8>` and
//!   checks UTF-8 once per document.
//! * **Digests** ([`digest`]) — XXH64 fingerprints of rendered JSONL
//!   traces, the currency of the scenario harness's committed golden
//!   trajectories, taken in one bulk pass over the finished text; and
//!   FNV-1a 64 for short value-by-value digests.
//! * **Causal spans** ([`span`]) — structural [`SpanId`]s linking
//!   `GpmRound` → `PicDecision` → `Actuation` events into a walkable
//!   cause tree, plus the [`PhaseProfiler`] seam for wall-clock
//!   self-profiling of the control loop.
//! * **SLO watchdog** ([`slo`]) — streaming tracking-error /
//!   budget-overshoot / actuator-churn / stale-sensor monitors over the
//!   event stream, deterministic [`EventPayload::Alarm`] emission, and a
//!   one-page [`HealthReport`].
//! * **Chrome export** ([`chrome`]) — `trace_event` JSON rendering of any
//!   trajectory, ready for Perfetto.
//!
//! The intended wiring: components hold a cheaply clonable [`Recorder`]
//! handle (disabled by default — one branch per call site) and
//! [`Registry`] instruments; the experiment driver decides per run
//! whether anything is attached.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod digest;
pub mod event;
pub mod export;
mod fixed;
pub mod recorder;
pub mod registry;
pub mod slo;
pub mod span;

pub use chrome::{events_to_chrome, validate_chrome_trace};
pub use digest::{digest_str, fnv1a64, format_digest, xxh64_digest, Fnv1a64};
pub use event::{Event, EventKind, EventPayload, ThermalSource};
pub use export::{events_to_jsonl, write_event_jsonl, CsvSeries};
pub use fixed::json_num;
pub use recorder::Recorder;
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use slo::{
    append_alarm_events, scan, HealthReport, MonitorHealth, SloAlarm, SloMonitor, SloPolicy,
    SloWatchdog,
};
pub use span::{ControlPhase, PhaseProfiler, SpanId, SpanKind};
