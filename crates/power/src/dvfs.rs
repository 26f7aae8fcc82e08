//! Discrete voltage/frequency operating points.
//!
//! The paper assumes "each island supports 8 voltage-frequency pairs …
//! from 600 MHz to 2.0 GHz based on the Pentium-M datasheet" (§III) and a
//! DVFS transition overhead of 0.5 % of CPU time during which no
//! instructions execute.

use cpm_units::{Hertz, Seconds, Volts};

/// One voltage/frequency pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Supply voltage.
    pub voltage: Volts,
    /// Clock frequency.
    pub frequency: Hertz,
}

impl OperatingPoint {
    /// Creates an operating point.
    pub const fn new(voltage: Volts, frequency: Hertz) -> Self {
        Self { voltage, frequency }
    }

    /// `V²·f`, the quantity dynamic power is proportional to.
    pub fn v2f(&self) -> f64 {
        self.voltage.value() * self.voltage.value() * self.frequency.value()
    }
}

/// An ordered table of operating points (ascending frequency).
///
/// ```
/// use cpm_power::dvfs::DvfsTable;
/// use cpm_units::Hertz;
///
/// let table = DvfsTable::pentium_m();
/// assert_eq!(table.len(), 8);
/// // Quantizing a power-capping request rounds *down*.
/// let idx = table.quantize_down(Hertz::from_mhz(1_700.0));
/// assert_eq!(table.point(idx).frequency.mhz(), 1_600.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsTable {
    points: Vec<OperatingPoint>,
    /// Fraction of an interval lost (no instructions retired) when the
    /// operating point changes.
    transition_overhead: f64,
}

impl DvfsTable {
    /// Fraction of the interval frozen by one V/F transition (paper §III:
    /// "The overhead of each DVFS interval is set to 0.5 % of the CPU
    /// time … during which we assume no instructions are executed").
    pub const PAPER_TRANSITION_OVERHEAD: f64 = 0.005;

    /// Builds a table from points, which must be strictly ascending in
    /// frequency and non-empty.
    pub fn new(points: Vec<OperatingPoint>, transition_overhead: f64) -> Self {
        assert!(!points.is_empty(), "DVFS table cannot be empty");
        assert!(
            points
                .windows(2)
                .all(|w| w[0].frequency < w[1].frequency && w[0].voltage <= w[1].voltage),
            "DVFS points must be ascending in frequency and non-decreasing in voltage"
        );
        assert!((0.0..1.0).contains(&transition_overhead));
        Self {
            points,
            transition_overhead,
        }
    }

    /// The paper's table: 8 Pentium-M (Dothan 755 class) SpeedStep pairs,
    /// 600 MHz / 0.988 V up to 2.0 GHz / 1.340 V.
    pub fn pentium_m() -> Self {
        let pts = [
            (600.0, 0.988),
            (800.0, 1.036),
            (1000.0, 1.084),
            (1200.0, 1.132),
            (1400.0, 1.180),
            (1600.0, 1.228),
            (1800.0, 1.276),
            (2000.0, 1.340),
        ];
        Self::new(
            pts.iter()
                .map(|&(mhz, v)| OperatingPoint::new(Volts::new(v), Hertz::from_mhz(mhz)))
                .collect(),
            Self::PAPER_TRANSITION_OVERHEAD,
        )
    }

    /// Builds an evenly spaced table of `n` points between
    /// `(f_min, v_min)` and `(f_max, v_max)` with the paper's transition
    /// overhead — for granularity studies ("what if the platform exposed
    /// 4 / 16 / 32 pairs?").
    pub fn linear(n: usize, f_min: Hertz, f_max: Hertz, v_min: Volts, v_max: Volts) -> Self {
        assert!(n >= 2, "need at least two operating points");
        assert!(f_max > f_min && v_max >= v_min);
        let points = (0..n)
            .map(|k| {
                let t = k as f64 / (n - 1) as f64;
                OperatingPoint::new(v_min + t * (v_max - v_min), f_min + t * (f_max - f_min))
            })
            .collect();
        Self::new(points, Self::PAPER_TRANSITION_OVERHEAD)
    }

    /// The Pentium-M voltage/frequency *envelope* re-sampled at `n` evenly
    /// spaced points — same span as [`DvfsTable::pentium_m`], different
    /// granularity.
    pub fn pentium_m_envelope(n: usize) -> Self {
        Self::linear(
            n,
            Hertz::from_mhz(600.0),
            Hertz::from_ghz(2.0),
            Volts::new(0.988),
            Volts::new(1.340),
        )
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false (construction forbids empty tables); provided for
    /// idiomatic completeness.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The `idx`-th point (ascending frequency). Panics when out of range.
    pub fn point(&self, idx: usize) -> OperatingPoint {
        self.points[idx]
    }

    /// All points, ascending.
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// The lowest-frequency point.
    pub fn min_point(&self) -> OperatingPoint {
        self.points[0]
    }

    /// The highest-frequency point (the *nominal* configuration in
    /// Table I).
    pub fn max_point(&self) -> OperatingPoint {
        *self.points.last().unwrap()
    }

    /// Index of the highest point whose frequency does not exceed `f`;
    /// `None` when even the lowest point is above `f`.
    pub fn floor_index(&self, f: Hertz) -> Option<usize> {
        self.points.iter().rposition(|p| p.frequency <= f)
    }

    /// Quantizes a continuous frequency request downward onto the table
    /// (the PIC must not exceed its power allocation, so it rounds *down*),
    /// clamping below the table to the lowest point.
    pub fn quantize_down(&self, f: Hertz) -> usize {
        self.floor_index(f).unwrap_or(0)
    }

    /// Index of the point nearest to `f` in frequency. A request beyond
    /// either end of the table, ±∞ included, maps to that end. A `NaN`
    /// request maps to the lowest point: with no defined frequency, the
    /// power-safe choice is the point that draws the least.
    pub fn nearest_index(&self, f: Hertz) -> usize {
        // Clamping sends ±∞ to the table ends (every distance to an
        // unclamped ∞ is ∞) and changes no finite request's answer. `NaN`
        // stays `NaN`, no distance compares below the first, and the
        // lowest point is kept.
        let f = f.clamp(self.min_point().frequency, self.max_point().frequency);
        let mut best = 0;
        let mut best_d = Hertz::new(f64::INFINITY);
        for (i, p) in self.points.iter().enumerate() {
            let d = (p.frequency - f).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Time lost to one V/F transition within a control interval of length
    /// `interval` (zero when `from == to`).
    pub fn transition_cost(&self, from: usize, to: usize, interval: Seconds) -> Seconds {
        if from == to {
            Seconds::ZERO
        } else {
            interval * self.transition_overhead
        }
    }

    /// The configured per-transition overhead fraction.
    pub fn transition_overhead(&self) -> f64 {
        self.transition_overhead
    }

    /// Frequency span of the table (max − min).
    pub fn frequency_span(&self) -> Hertz {
        self.max_point().frequency - self.min_point().frequency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pentium_m_has_8_ascending_points() {
        let t = DvfsTable::pentium_m();
        assert_eq!(t.len(), 8);
        assert_eq!(t.min_point().frequency, Hertz::from_mhz(600.0));
        assert_eq!(t.max_point().frequency, Hertz::from_ghz(2.0));
        assert!(t.points().windows(2).all(|w| w[0].v2f() < w[1].v2f()));
    }

    #[test]
    fn floor_index_semantics() {
        let t = DvfsTable::pentium_m();
        assert_eq!(t.floor_index(Hertz::from_mhz(599.0)), None);
        assert_eq!(t.floor_index(Hertz::from_mhz(600.0)), Some(0));
        assert_eq!(t.floor_index(Hertz::from_mhz(1399.0)), Some(3));
        assert_eq!(t.floor_index(Hertz::from_mhz(2500.0)), Some(7));
    }

    #[test]
    fn quantize_down_clamps_to_lowest() {
        let t = DvfsTable::pentium_m();
        assert_eq!(t.quantize_down(Hertz::from_mhz(100.0)), 0);
        assert_eq!(t.quantize_down(Hertz::from_mhz(1650.0)), 5);
    }

    #[test]
    fn nearest_index_rounds_both_ways() {
        let t = DvfsTable::pentium_m();
        assert_eq!(t.nearest_index(Hertz::from_mhz(690.0)), 0);
        assert_eq!(t.nearest_index(Hertz::from_mhz(710.0)), 1);
        assert_eq!(t.nearest_index(Hertz::from_mhz(5000.0)), 7);
    }

    #[test]
    fn transition_cost_only_on_change() {
        let t = DvfsTable::pentium_m();
        let iv = Seconds::from_ms(0.5);
        assert_eq!(t.transition_cost(3, 3, iv), Seconds::ZERO);
        let c = t.transition_cost(3, 4, iv);
        assert!((c.value() - 0.005 * iv.value()).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_table_rejected() {
        DvfsTable::new(
            vec![
                OperatingPoint::new(Volts::new(1.1), Hertz::from_mhz(1000.0)),
                OperatingPoint::new(Volts::new(1.0), Hertz::from_mhz(800.0)),
            ],
            0.005,
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_table_rejected() {
        DvfsTable::new(vec![], 0.005);
    }

    #[test]
    fn linear_table_spans_the_requested_range() {
        let t = DvfsTable::linear(
            5,
            Hertz::from_mhz(600.0),
            Hertz::from_ghz(2.0),
            Volts::new(0.988),
            Volts::new(1.340),
        );
        assert_eq!(t.len(), 5);
        assert_eq!(t.min_point().frequency, Hertz::from_mhz(600.0));
        assert_eq!(t.max_point().frequency, Hertz::from_ghz(2.0));
        assert!((t.point(2).voltage.value() - 1.164).abs() < 1e-9);
    }

    #[test]
    fn envelope_matches_pentium_m_endpoints() {
        let e = DvfsTable::pentium_m_envelope(16);
        let p = DvfsTable::pentium_m();
        assert_eq!(e.min_point().frequency, p.min_point().frequency);
        assert_eq!(e.max_point().frequency, p.max_point().frequency);
        assert_eq!(e.min_point().voltage, p.min_point().voltage);
        assert_eq!(e.max_point().voltage, p.max_point().voltage);
        assert_eq!(e.len(), 16);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn linear_table_needs_two_points() {
        DvfsTable::linear(
            1,
            Hertz::from_mhz(600.0),
            Hertz::from_ghz(2.0),
            Volts::new(1.0),
            Volts::new(1.3),
        );
    }

    #[test]
    fn v2f_is_v_squared_times_f() {
        let p = OperatingPoint::new(Volts::new(2.0), Hertz::new(10.0));
        assert!((p.v2f() - 40.0).abs() < 1e-12);
    }
}
