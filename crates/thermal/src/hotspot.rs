//! Hotspot (thermal-threshold violation) tracking.
//!
//! §IV-A declares a hotspot when its provisioning constraints are violated;
//! physically a hotspot is a node exceeding the thermal design threshold.
//! [`HotspotTracker`] records per-core violation time against a threshold
//! so policies can be compared by "percentage duration of violations"
//! (Fig. 18(c)).

use cpm_obs::{EventPayload, Recorder, ThermalSource};
use cpm_units::{Celsius, CoreId, Seconds};

/// Accumulates thermal-violation statistics over a run.
#[derive(Debug, Clone)]
pub struct HotspotTracker {
    threshold: Celsius,
    violation_time: Vec<Seconds>,
    total_time: Seconds,
    events: usize,
    in_violation: Vec<bool>,
    recorder: Recorder,
}

impl HotspotTracker {
    /// Creates a tracker over `cores` cores with the given threshold.
    pub fn new(cores: usize, threshold: Celsius) -> Self {
        assert!(cores > 0);
        Self {
            threshold,
            violation_time: vec![Seconds::ZERO; cores],
            total_time: Seconds::ZERO,
            events: 0,
            in_violation: vec![false; cores],
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a flight-recorder handle; each hotspot *onset* (rising
    /// edge of a core crossing the threshold) then emits a
    /// [`EventPayload::ThermalViolation`] with the die-threshold source.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The configured threshold.
    pub fn threshold(&self) -> Celsius {
        self.threshold
    }

    /// Records one observation interval of length `dt` with the given node
    /// temperatures (core-id order).
    pub fn observe(&mut self, temperatures: &[Celsius], dt: Seconds) {
        assert_eq!(temperatures.len(), self.violation_time.len());
        self.total_time += dt;
        for (i, &t) in temperatures.iter().enumerate() {
            let hot = t > self.threshold;
            if hot {
                self.violation_time[i] += dt;
                if !self.in_violation[i] {
                    self.events += 1; // rising edge = new hotspot event
                    self.recorder.record(EventPayload::ThermalViolation {
                        source: ThermalSource::DieThreshold,
                        island: i as u32,
                        partner: u32::MAX,
                        value: t.value(),
                        limit: self.threshold.value(),
                    });
                }
            }
            self.in_violation[i] = hot;
        }
    }

    /// Total observed time.
    pub fn total_time(&self) -> Seconds {
        self.total_time
    }

    /// Number of distinct hotspot events (rising edges across all cores).
    pub fn events(&self) -> usize {
        self.events
    }

    /// Violation time for one core.
    pub fn violation_time(&self, core: CoreId) -> Seconds {
        self.violation_time[core.index()]
    }

    /// Fraction of observed time that *any* specific core spent above the
    /// threshold, averaged over cores — the Fig. 18(c) metric.
    pub fn violation_fraction(&self) -> f64 {
        if self.total_time.value() == 0.0 {
            return 0.0;
        }
        let sum: f64 = self.violation_time.iter().map(|t| t.value()).sum();
        sum / (self.total_time.value() * self.violation_time.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temps(vals: &[f64]) -> Vec<Celsius> {
        vals.iter().map(|&v| Celsius::new(v)).collect()
    }

    #[test]
    fn clean_run_reports_no_violations() {
        let mut tr = HotspotTracker::new(4, Celsius::new(85.0));
        for _ in 0..10 {
            tr.observe(&temps(&[60.0, 70.0, 80.0, 84.9]), Seconds::from_ms(1.0));
        }
        assert_eq!(tr.events(), 0);
        assert_eq!(tr.violation_fraction(), 0.0);
    }

    #[test]
    fn violation_time_accumulates_per_core() {
        let mut tr = HotspotTracker::new(2, Celsius::new(85.0));
        tr.observe(&temps(&[90.0, 60.0]), Seconds::from_ms(2.0));
        tr.observe(&temps(&[90.0, 60.0]), Seconds::from_ms(2.0));
        tr.observe(&temps(&[60.0, 60.0]), Seconds::from_ms(2.0));
        assert!((tr.violation_time(CoreId(0)).ms() - 4.0).abs() < 1e-12);
        assert_eq!(tr.violation_time(CoreId(1)), Seconds::ZERO);
        // 4 ms of 6 ms on one of two cores → (4+0)/(6·2) = 1/3.
        assert!((tr.violation_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rising_edges_count_events() {
        let mut tr = HotspotTracker::new(1, Celsius::new(85.0));
        let hot = temps(&[90.0]);
        let cool = temps(&[60.0]);
        let dt = Seconds::from_ms(1.0);
        tr.observe(&hot, dt); // event 1
        tr.observe(&hot, dt); // still the same event
        tr.observe(&cool, dt);
        tr.observe(&hot, dt); // event 2
        assert_eq!(tr.events(), 2);
    }

    #[test]
    fn threshold_is_exclusive() {
        let mut tr = HotspotTracker::new(1, Celsius::new(85.0));
        tr.observe(&temps(&[85.0]), Seconds::from_ms(1.0));
        assert_eq!(tr.events(), 0, "exactly at threshold is not a violation");
    }

    #[test]
    fn empty_observation_time_is_zero_fraction() {
        let tr = HotspotTracker::new(3, Celsius::new(85.0));
        assert_eq!(tr.violation_fraction(), 0.0);
    }

    #[test]
    #[should_panic]
    fn wrong_temperature_length_panics() {
        HotspotTracker::new(2, Celsius::new(85.0)).observe(&temps(&[50.0]), Seconds::from_ms(1.0));
    }
}
