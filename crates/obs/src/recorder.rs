//! The flight recorder: a bounded ring buffer of [`Event`]s behind a
//! zero-cost-when-disabled [`Recorder`] handle.
//!
//! ## Design
//!
//! * **Handle, not singleton.** A [`Recorder`] is a cheaply clonable
//!   handle — either *disabled* (the default: an empty `Option`, so every
//!   `record` is a single branch and no event is ever constructed beyond
//!   the stack temporary) or attached to one shared ring.
//!   Components own a handle and never know whether anyone is listening.
//! * **One bounded ring.** Events land in a single mutex-protected
//!   `VecDeque` that grows with what a run records, up to `capacity`
//!   events, and then drops its *oldest* entry on overflow — a flight
//!   recorder keeps the most recent history, like its aeronautical
//!   namesake. The control loop records from one thread per chip, so the
//!   lock is uncontended in practice.
//! * **Total order.** Every event takes its sequence number under the
//!   ring's lock, so the ring is always in sequence order and
//!   [`Recorder::drain`] returns record order as it stands.
//! * **Ambient simulated clock.** The simulation driver calls
//!   [`Recorder::set_time`] as simulated time advances; instrumented
//!   components just `record(payload)` and inherit the current timestamp.
//!   Wall-clock time never enters an event, which is what makes traces
//!   byte-identical across runs and worker counts.

use crate::event::{Event, EventPayload};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The ring and the counters that must move with it.
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<Event>,
    /// Sequence number of the next event.
    next_seq: u64,
    /// Events evicted by wraparound.
    dropped: u64,
}

/// The shared store behind enabled [`Recorder`] handles.
#[derive(Debug)]
struct FlightRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
    /// Simulated "now" in seconds, stored as f64 bits.
    clock_bits: AtomicU64,
    /// Recording gate: `false` turns `record` into a no-op without
    /// detaching handles (used to blank out calibration phases).
    enabled: AtomicBool,
}

impl FlightRecorder {
    /// Poison recovery: the ring only ever holds fully written events, so
    /// a panicking recorder thread cannot leave it inconsistent — later
    /// recorders must keep working rather than panic in turn.
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record(&self, payload: EventPayload) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let time_s = f64::from_bits(self.clock_bits.load(Ordering::Relaxed));
        let mut ring = self.ring();
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.events.push_back(Event {
            seq,
            time_s,
            payload,
        });
    }
}

/// A cheaply clonable recording handle: disabled (default) or attached to
/// a shared ring. See the module docs for the contract.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<FlightRecorder>>,
}

impl Recorder {
    /// The disabled handle: every operation is a no-op costing one branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Creates an enabled recorder holding at most `capacity` events
    /// (clamped to ≥ 1).
    pub fn enabled(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(FlightRecorder {
                ring: Mutex::default(),
                capacity: capacity.max(1),
                clock_bits: AtomicU64::new(0f64.to_bits()),
                enabled: AtomicBool::new(true),
            })),
        }
    }

    /// True when attached to a store (whether or not recording is paused).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event at the current simulated time. No-op when
    /// disabled or paused.
    #[inline]
    pub fn record(&self, payload: EventPayload) {
        if let Some(inner) = &self.inner {
            inner.record(payload);
        }
    }

    /// Advances the ambient simulated clock (seconds). Subsequent
    /// `record` calls from any handle sharing the store use this time.
    #[inline]
    pub fn set_time(&self, time_s: f64) {
        if let Some(inner) = &self.inner {
            inner.clock_bits.store(time_s.to_bits(), Ordering::Relaxed);
        }
    }

    /// The ambient simulated time (0.0 when disabled).
    pub fn time(&self) -> f64 {
        self.inner.as_ref().map_or(0.0, |r| {
            f64::from_bits(r.clock_bits.load(Ordering::Relaxed))
        })
    }

    /// Pauses recording without detaching handles (e.g. during the
    /// calibration sweep, whose controller chatter is not part of the
    /// measured story).
    pub fn pause(&self) {
        if let Some(inner) = &self.inner {
            inner.enabled.store(false, Ordering::Relaxed);
        }
    }

    /// Resumes a paused recorder.
    pub fn resume(&self) {
        if let Some(inner) = &self.inner {
            inner.enabled.store(true, Ordering::Relaxed);
        }
    }

    /// Drains all buffered events in sequence order, clearing the ring.
    /// Empty when disabled. The ring's buffer moves into the returned
    /// `Vec` (no copy unless the ring wrapped), so a drained run never
    /// holds its events twice.
    pub fn drain(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |r| {
            Vec::from(std::mem::take(&mut r.ring().events))
        })
    }

    /// Events evicted by ring wraparound so far (0 when disabled).
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.ring().dropped)
    }

    /// Total event capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |r| r.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn span(label: &'static str) -> EventPayload {
        EventPayload::WorkerSpan {
            worker: 0,
            label,
            start_s: 0.0,
            end_s: 1.0,
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.record(span("x"));
        r.set_time(5.0);
        assert_eq!(r.time(), 0.0);
        assert!(r.drain().is_empty());
        assert_eq!(r.capacity(), 0);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn events_carry_the_ambient_clock() {
        let r = Recorder::enabled(16);
        r.set_time(0.005);
        r.record(span("a"));
        r.set_time(0.010);
        r.record(span("b"));
        let events = r.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].time_s, 0.005);
        assert_eq!(events[1].time_s, 0.010);
    }

    #[test]
    fn drain_returns_record_order() {
        let r = Recorder::enabled(30);
        for i in 0..20 {
            r.set_time(i as f64);
            r.record(span("s"));
        }
        let events = r.drain();
        assert_eq!(events.len(), 20);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "sequence order broken at {i}");
            assert_eq!(e.time_s, i as f64);
        }
        // Drain clears the buffer.
        assert!(r.drain().is_empty());
    }

    #[test]
    fn wraparound_drops_oldest_and_counts() {
        // Capacity 5: 12 records keep exactly the 5 newest and drop 7.
        let r = Recorder::enabled(5);
        assert_eq!(r.capacity(), 5);
        for _ in 0..12 {
            r.record(span("w"));
        }
        let events = r.drain();
        assert_eq!(events.len(), 5);
        assert_eq!(r.dropped(), 7);
        // The survivors are the most recent sequence numbers, in order.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10, 11]);
    }

    #[test]
    fn pause_and_resume_gate_recording() {
        let r = Recorder::enabled(8);
        r.record(span("kept"));
        r.pause();
        r.record(span("lost"));
        r.resume();
        r.record(span("kept"));
        let events = r.drain();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.kind() == EventKind::WorkerSpan));
    }

    #[test]
    fn clones_share_the_store() {
        let a = Recorder::enabled(8);
        let b = a.clone();
        a.set_time(1.5);
        b.record(span("via-b"));
        let events = a.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].time_s, 1.5);
    }

    #[test]
    fn concurrent_recording_is_lossless_under_capacity() {
        let r = Recorder::enabled(4096);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = r.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        r.record(span("t"));
                    }
                });
            }
        });
        let events = r.drain();
        assert_eq!(events.len(), 4000);
        assert_eq!(r.dropped(), 0);
        // Sequence numbers are exactly 0..4000, in drain order.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }
}
