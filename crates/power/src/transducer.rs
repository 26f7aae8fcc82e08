//! The PIC's sensor/transducer: utilization → power.
//!
//! "In real CMP systems it would be hard to measure power of individual
//! islands directly. Hence, we need to look for other observable parameters
//! like processor utilization … we need a model establishing the
//! relationship between processor utilization and power" (§II-D). The paper
//! fits `P = k₀·U + k₁` per workload by linear regression (Fig. 6, avg
//! R² ≈ 0.96).
//!
//! [`UtilizationPowerTransducer`] is that model: it is *calibrated* online
//! from `(utilization, power)` observations gathered during a profiling
//! window (in a real system these would come from a one-time platform
//! characterization), then *queried* at control time with utilization alone.
//!
//! Substrate note: the paper's linear fit is kept — it is what Fig. 6
//! reports ([`UtilizationPowerTransducer::fit`]) — but the *sensing* path
//! uses a quadratic fit. Our DVFS table spans 0.99–1.34 V, which makes
//! P(U) visibly convex (P ∝ V²·f while capacity utilization ∝ f); a purely
//! linear sensor under-reads at the top of the range and the controller
//! would sit above its target at high budgets. The quadratic restores the
//! sensor fidelity (R² ≥ 0.96) the paper observed on its flatter-voltage
//! platform. See DESIGN.md.

use cpm_control::sysid::{LinearFit, LinearRegression, QuadraticFit, QuadraticRegression};
use cpm_units::{Ratio, Watts};

/// Online-calibrated utilization→power model for one island.
///
/// ```
/// use cpm_power::UtilizationPowerTransducer;
/// use cpm_units::{Ratio, Watts};
///
/// let mut sensor = UtilizationPowerTransducer::new();
/// for i in 0..=10 {
///     let u = i as f64 / 10.0;
///     sensor.observe(Ratio::new(u), Watts::new(30.0 * u + 5.0));
/// }
/// assert!(sensor.is_calibrated());
/// let p = sensor.estimate_power(Ratio::new(0.5));
/// assert!((p.value() - 20.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UtilizationPowerTransducer {
    regression: LinearRegression,
    quadratic: QuadraticRegression,
    fit: Option<LinearFit>,
    qfit: Option<QuadraticFit>,
}

impl UtilizationPowerTransducer {
    /// Creates an uncalibrated transducer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one calibration observation and refreshes both fits.
    pub fn observe(&mut self, utilization: Ratio, power: Watts) {
        self.regression.add(utilization.value(), power.value());
        self.quadratic.add(utilization.value(), power.value());
        if let Some(f) = self.regression.fit() {
            self.fit = Some(f);
        }
        if let Some(q) = self.quadratic.fit() {
            self.qfit = Some(q);
        }
    }

    /// True once enough observations exist to produce the sensing fit.
    pub fn is_calibrated(&self) -> bool {
        self.qfit.is_some()
    }

    /// Number of calibration observations absorbed.
    pub fn observations(&self) -> usize {
        self.regression.len()
    }

    /// The current *linear* fit — the `P = k₀·U + k₁` model Fig. 6 reports.
    pub fn fit(&self) -> Option<LinearFit> {
        self.fit
    }

    /// The current quadratic fit, which the sensing path uses.
    pub fn quadratic_fit(&self) -> Option<QuadraticFit> {
        self.qfit
    }

    /// Converts a measured utilization into estimated island power.
    /// Panics when uncalibrated — sensing before calibration is a logic
    /// error in the control loop, not a recoverable condition.
    pub fn estimate_power(&self, utilization: Ratio) -> Watts {
        let fit = self
            .qfit
            .as_ref()
            .expect("transducer queried before calibration");
        Watts::new(fit.predict(utilization.value()).max(0.0))
    }

    /// Quality of the current fit (R²), if calibrated.
    pub fn r_squared(&self) -> Option<f64> {
        self.fit.as_ref().map(|f| f.r_squared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrates_from_clean_linear_data() {
        let mut t = UtilizationPowerTransducer::new();
        assert!(!t.is_calibrated());
        // P = 30·U + 5 (a 2-core island: ~35 W busy, 5 W idle floor).
        for i in 0..=10 {
            let u = i as f64 / 10.0;
            t.observe(Ratio::new(u), Watts::new(30.0 * u + 5.0));
        }
        assert!(t.is_calibrated());
        let f = t.fit().unwrap();
        assert!((f.slope - 30.0).abs() < 1e-9);
        assert!((f.intercept - 5.0).abs() < 1e-9);
        assert!((t.r_squared().unwrap() - 1.0).abs() < 1e-12);
        let p = t.estimate_power(Ratio::new(0.5));
        assert!((p.value() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_data_gives_high_r2_like_fig6() {
        let mut t = UtilizationPowerTransducer::new();
        for i in 0..200usize {
            let u = (i % 100) as f64 / 100.0;
            // ±4 % deterministic wobble mimics phase noise.
            let wobble = (((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40) as f64
                / (1u64 << 24) as f64
                - 0.5)
                * 2.0;
            t.observe(Ratio::new(u), Watts::new(30.0 * u + 5.0 + wobble));
        }
        let r2 = t.r_squared().unwrap();
        assert!(r2 > 0.93 && r2 <= 1.0, "R² = {r2}");
    }

    #[test]
    fn estimate_clamps_to_non_negative() {
        // Pre-seeded `P = 10·U - 2`, negative at idle.
        let t = UtilizationPowerTransducer {
            qfit: Some(QuadraticFit {
                a: 0.0,
                b: 10.0,
                c: -2.0,
                r_squared: 1.0,
                n: 0,
            }),
            ..Default::default()
        };
        assert_eq!(t.estimate_power(Ratio::ZERO), Watts::ZERO);
    }

    #[test]
    #[should_panic(expected = "before calibration")]
    fn query_before_calibration_panics() {
        UtilizationPowerTransducer::new().estimate_power(Ratio::new(0.5));
    }

    #[test]
    fn single_point_is_not_enough() {
        let mut t = UtilizationPowerTransducer::new();
        t.observe(Ratio::new(0.5), Watts::new(20.0));
        assert!(!t.is_calibrated());
        assert_eq!(t.observations(), 1);
    }
}
