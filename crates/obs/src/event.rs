//! Typed flight-recorder events.
//!
//! Every event carries a simulated-time timestamp (seconds) and a global
//! sequence number assigned at record time; the payload is one of a small
//! closed taxonomy covering the GPM/PIC control stack:
//!
//! * [`EventPayload::GpmRound`] — the root span of one GPM provisioning
//!   round (chip budget in force, sensed chip draw),
//! * [`EventPayload::GpmAllocation`] — one island's provisioning decision
//!   at a GPM invocation,
//! * [`EventPayload::PicDecision`] — one PIC invocation with its causal
//!   span, the inputs that produced it (sensed power, utilization,
//!   target), and the PID internals (error, P/I/D terms, saturation),
//! * [`EventPayload::Actuation`] — a DVFS knob application (requested vs
//!   granted operating point), child of the decision that asked for it,
//! * [`EventPayload::TransducerRezero`] — the GPM-granularity sensing
//!   bias trim applied to a PIC's fast transducer,
//! * [`EventPayload::ThermalViolation`] — a thermal constraint or die
//!   threshold crossing,
//! * [`EventPayload::PolicyHoldReversal`] — the variation-aware policy
//!   reversing its EPI search direction and entering a hold,
//! * [`EventPayload::WorkerSpan`] — a labelled span of work attributed to
//!   an execution context (replay phases, pool jobs),
//! * [`EventPayload::Injection`] — a fault-injection effect switching on
//!   or off (scenario harness edge markers),
//! * [`EventPayload::Alarm`] — an SLO watchdog monitor tripping over the
//!   event stream (see [`crate::slo`]).
//!
//! The three decision kinds (`GpmRound` → `PicDecision` → `Actuation`)
//! carry structural [`crate::SpanId`] values in their `span`/`parent`
//! fields, so a drained trajectory is a walkable cause tree — see
//! [`crate::span`].
//!
//! Payloads are `Copy` (labels are `&'static str`) so recording never
//! allocates on the hot path.

/// What raised a [`EventPayload::ThermalViolation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThermalSource {
    /// A single island exceeded its budget-fraction cap for too many
    /// consecutive GPM intervals (§IV-A single-island constraint).
    SingleIslandCap,
    /// An adjacent island pair jointly exceeded its cap for too many
    /// consecutive GPM intervals (§IV-A pair constraint).
    AdjacentPairCap,
    /// A die node crossed the thermal design threshold (hotspot tracker).
    DieThreshold,
}

impl ThermalSource {
    /// Stable identifier used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            ThermalSource::SingleIslandCap => "single_island_cap",
            ThermalSource::AdjacentPairCap => "adjacent_pair_cap",
            ThermalSource::DieThreshold => "die_threshold",
        }
    }
}

/// The event taxonomy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventPayload {
    /// The root span of one GPM provisioning round: the chip-wide
    /// context every per-island decision of the round descends from.
    GpmRound {
        /// Causal span id ([`crate::SpanId::gpm_round`], raw).
        span: u64,
        /// Round ordinal, counted across all of a coordinator's
        /// measurements (matches `GpmAllocation::round`; the first
        /// measurement's pre-feedback equal split is round 0).
        round: u64,
        /// Chip budget in force this round (injection scaling applied),
        /// watts.
        budget_w: f64,
        /// Mean chip power sensed over the interval that just ended,
        /// watts (0 for the first, feedback-free round).
        actual_w: f64,
        /// Number of islands provisioned this round.
        islands: u32,
    },
    /// One island's allocation at a GPM invocation.
    GpmAllocation {
        /// Round ordinal: the GPM invocation ordinal (1-based), or under a
        /// coordinator its round ordinal, which also counts the
        /// feedback-free first round of each measurement.
        round: u64,
        /// Island index.
        island: u32,
        /// Power provisioned for the next interval, watts.
        allocated_w: f64,
        /// Mean power the island actually drew over the interval that just
        /// ended, watts (0 for the initial, feedback-free split).
        actual_w: f64,
        /// Chip budget in force, watts.
        budget_w: f64,
    },
    /// One PIC invocation: the causal span, the sensed inputs that
    /// produced the decision, and the controller internals.
    PicDecision {
        /// Causal span id ([`crate::SpanId::pic_decision`], raw).
        span: u64,
        /// Parent span id (the enclosing [`EventPayload::GpmRound`]).
        parent: u64,
        /// GPM round this invocation belongs to.
        round: u64,
        /// PIC interval ordinal within the round (`0..pics_per_gpm`).
        step: u32,
        /// Island index.
        island: u32,
        /// Power the transducer sensed (bias trim applied), watts.
        sensed_w: f64,
        /// Capacity utilization observed this interval (0..=1).
        utilization: f64,
        /// Power target the GPM provisioned for this island, watts.
        target_w: f64,
        /// Normalized tracking error fed to the PID.
        error: f64,
        /// Proportional term of the control output.
        p_term: f64,
        /// Integral term of the control output.
        i_term: f64,
        /// Derivative term of the control output.
        d_term: f64,
        /// Raw control output `u(t)` before actuation clamps.
        output: f64,
        /// DVFS operating-point index actually applied.
        dvfs_index: u32,
        /// True when the slew limit or the V/F range clamp refused part of
        /// the requested move (anti-windup back-calculation engaged).
        saturated: bool,
    },
    /// A DVFS knob application: what the decision requested versus what
    /// the platform granted (fault seams may veto or defer moves).
    Actuation {
        /// Causal span id ([`crate::SpanId::actuation`], raw).
        span: u64,
        /// Parent span id (the [`EventPayload::PicDecision`] that asked,
        /// or the [`EventPayload::GpmRound`] for direct-actuation schemes
        /// such as MaxBIPS).
        parent: u64,
        /// Island index.
        island: u32,
        /// Operating point before the move.
        from_dvfs: u32,
        /// Operating point the controller requested.
        requested_dvfs: u32,
        /// Operating point actually in force after the move.
        to_dvfs: u32,
        /// True when the platform honored the request verbatim
        /// (`to_dvfs == requested_dvfs`).
        granted: bool,
    },
    /// The coarse per-island meter re-zeroed a PIC's fast transducer.
    TransducerRezero {
        /// Island index.
        island: u32,
        /// Sensing residual observed this interval (true − sensed), watts.
        residual_w: f64,
        /// The EWMA bias correction now in force, watts.
        offset_w: f64,
    },
    /// A thermal constraint or die-temperature threshold was crossed.
    ThermalViolation {
        /// What raised the violation.
        source: ThermalSource,
        /// Primary island/core index.
        island: u32,
        /// Partner island for pair violations (`u32::MAX` when n/a).
        partner: u32,
        /// The observed value (watts for caps, °C for die thresholds).
        value: f64,
        /// The limit that was exceeded (same unit as `value`).
        limit: f64,
    },
    /// The variation-aware EPI search overshot its optimum: direction
    /// reversed and the allocation level holds.
    PolicyHoldReversal {
        /// Island index.
        island: u32,
        /// Allocation level (fraction of the equal share) being held.
        level: f64,
        /// EPI that triggered the reversal, joules/instruction.
        epi_now: f64,
        /// Previous interval's EPI, joules/instruction.
        epi_prev: f64,
        /// GPM intervals the level will hold.
        hold_intervals: u32,
    },
    /// A labelled span of work on an execution context.
    WorkerSpan {
        /// Context index (worker id, or 0 for the driving thread).
        worker: u32,
        /// Static label, e.g. `"calibrate"` or `"measure"`.
        label: &'static str,
        /// Span start, seconds (simulated time for replay phases).
        start_s: f64,
        /// Span end, seconds.
        end_s: f64,
    },
    /// A fault-injection effect crossed an activation edge (scenario
    /// harness). Emitted once when the effect switches on and once when
    /// it switches off, so golden trajectories anchor injections
    /// explicitly instead of inferring them from controller behavior.
    Injection {
        /// Effect label, e.g. `"sensor-dropout"` or `"budget-step"`.
        label: &'static str,
        /// Target island (`u32::MAX` for chip-wide effects).
        island: u32,
        /// `true` on activation, `false` on deactivation.
        active: bool,
        /// Effect magnitude (noise sigma, budget scale, actuator period…;
        /// 0 for parameter-free effects).
        value: f64,
    },
    /// An SLO watchdog monitor tripped (see [`crate::slo`]). Emitted
    /// deterministically from the event stream itself, so alarms ride
    /// golden trajectories like any other event.
    Alarm {
        /// Monitor label, e.g. `"tracking-error"` or `"actuator-churn"`.
        monitor: &'static str,
        /// Offending island (`u32::MAX` for chip-wide monitors).
        island: u32,
        /// GPM round at which the violation episode began.
        round: u64,
        /// The observed value that tripped the monitor.
        value: f64,
        /// The policy threshold it violated.
        threshold: f64,
    },
}

/// Discriminant-only view of a payload, for counting and golden tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// [`EventPayload::GpmRound`].
    GpmRound,
    /// [`EventPayload::GpmAllocation`].
    GpmAllocation,
    /// [`EventPayload::PicDecision`].
    PicDecision,
    /// [`EventPayload::Actuation`].
    Actuation,
    /// [`EventPayload::TransducerRezero`].
    TransducerRezero,
    /// [`EventPayload::ThermalViolation`].
    ThermalViolation,
    /// [`EventPayload::PolicyHoldReversal`].
    PolicyHoldReversal,
    /// [`EventPayload::WorkerSpan`].
    WorkerSpan,
    /// [`EventPayload::Injection`].
    Injection,
    /// [`EventPayload::Alarm`].
    Alarm,
}

impl EventKind {
    /// All kinds, in taxonomy order.
    pub const ALL: [EventKind; 10] = [
        EventKind::GpmRound,
        EventKind::GpmAllocation,
        EventKind::PicDecision,
        EventKind::Actuation,
        EventKind::TransducerRezero,
        EventKind::ThermalViolation,
        EventKind::PolicyHoldReversal,
        EventKind::WorkerSpan,
        EventKind::Injection,
        EventKind::Alarm,
    ];

    /// Stable identifier used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::GpmRound => "GpmRound",
            EventKind::GpmAllocation => "GpmAllocation",
            EventKind::PicDecision => "PicDecision",
            EventKind::Actuation => "Actuation",
            EventKind::TransducerRezero => "TransducerRezero",
            EventKind::ThermalViolation => "ThermalViolation",
            EventKind::PolicyHoldReversal => "PolicyHoldReversal",
            EventKind::WorkerSpan => "WorkerSpan",
            EventKind::Injection => "Injection",
            EventKind::Alarm => "Alarm",
        }
    }
}

impl EventPayload {
    /// The payload's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            EventPayload::GpmRound { .. } => EventKind::GpmRound,
            EventPayload::GpmAllocation { .. } => EventKind::GpmAllocation,
            EventPayload::PicDecision { .. } => EventKind::PicDecision,
            EventPayload::Actuation { .. } => EventKind::Actuation,
            EventPayload::TransducerRezero { .. } => EventKind::TransducerRezero,
            EventPayload::ThermalViolation { .. } => EventKind::ThermalViolation,
            EventPayload::PolicyHoldReversal { .. } => EventKind::PolicyHoldReversal,
            EventPayload::WorkerSpan { .. } => EventKind::WorkerSpan,
            EventPayload::Injection { .. } => EventKind::Injection,
            EventPayload::Alarm { .. } => EventKind::Alarm,
        }
    }
}

/// One recorded event: global sequence number, simulated-time timestamp,
/// typed payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Record-order sequence number (a total order over the recorder).
    pub seq: u64,
    /// Simulated time, seconds.
    pub time_s: f64,
    /// The typed payload.
    pub payload: EventPayload,
}

impl Event {
    /// The event's kind.
    pub fn kind(&self) -> EventKind {
        self.payload.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_names() {
        for k in EventKind::ALL {
            assert!(!k.as_str().is_empty());
        }
        let p = EventPayload::PicDecision {
            span: crate::SpanId::pic_decision(1, 0, 3).raw(),
            parent: crate::SpanId::gpm_round(1).raw(),
            round: 1,
            step: 3,
            island: 0,
            sensed_w: 18.2,
            utilization: 0.8,
            target_w: 20.0,
            error: 0.1,
            p_term: 0.04,
            i_term: 0.0,
            d_term: 0.03,
            output: 0.07,
            dvfs_index: 5,
            saturated: false,
        };
        assert_eq!(p.kind(), EventKind::PicDecision);
        assert_eq!(p.kind().as_str(), "PicDecision");
    }

    #[test]
    fn thermal_sources_have_stable_names() {
        assert_eq!(ThermalSource::SingleIslandCap.as_str(), "single_island_cap");
        assert_eq!(ThermalSource::AdjacentPairCap.as_str(), "adjacent_pair_cap");
        assert_eq!(ThermalSource::DieThreshold.as_str(), "die_threshold");
    }
}
