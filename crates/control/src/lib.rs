//! Control-theory toolkit used to design and analyze the CPM per-island
//! controllers.
//!
//! The paper designs its PIC (Per-Island Controller) as a discrete PID loop
//! around a first-order plant `P(t+1) = P(t) + a·d(t)`, analyzed in the
//! z-domain via pole placement (§II-D). This crate provides everything that
//! analysis needs, implemented from scratch:
//!
//! * [`poly`] — dense univariate polynomials over `f64`,
//! * [`complex`] — complex arithmetic,
//! * [`roots`] — Aberth–Ehrlich simultaneous root finding,
//! * [`tf`] — z-domain transfer functions (series/parallel/feedback
//!   composition, poles, stability, step response),
//! * [`pid`] — the PID control law, both as a runtime controller and as a
//!   transfer function for analysis,
//! * [`sysid`] — least-squares system identification (the paper's `aᵢ = 0.79`
//!   gain and the utilization→power regressions of Fig. 6),
//! * [`analysis`] — step-response metrics (overshoot, settling time,
//!   steady-state error) and stability-margin search (the paper's
//!   `0 < g < 2.1` guarantee),
//! * [`jury`] — the Jury stability criterion (algebraic unit-circle test,
//!   cross-validating the root finder),
//! * [`noise`] — seeded white-noise sources for the model-validation
//!   experiment (Fig. 5).

pub mod analysis;
pub mod complex;
pub mod jury;
pub mod noise;
pub mod pid;
pub mod poly;
pub mod roots;
pub mod sysid;
pub mod tf;

pub use analysis::{gain_margin, step_metrics, StepMetrics};
pub use complex::Complex;
pub use jury::{is_stable_jury, jury_test, JuryResult};
pub use pid::{Pid, PidGains, PidTerms};
pub use poly::Polynomial;
pub use sysid::{
    fit_gain_through_origin, LinearFit, LinearRegression, QuadraticFit, QuadraticRegression,
};
pub use tf::TransferFunction;

/// Builds the paper's open-loop plant `P(z) = a / (z - 1)`, the z-transform
/// of the difference relation `P(t+1) = P(t) + a·d(t)` (paper Eq. 8/9).
pub fn island_plant(gain: f64) -> TransferFunction {
    TransferFunction::new(
        Polynomial::new(vec![gain]),
        Polynomial::new(vec![-1.0, 1.0]),
    )
}

/// Builds the closed-loop transfer function `Y(z) = P·C / (1 + P·C)` for the
/// paper's PID-controlled island power loop (Eq. 11).
///
/// ```
/// use cpm_control::{closed_loop, PidGains};
///
/// // The paper's design point is stable with zero steady-state error.
/// let cl = closed_loop(PidGains::paper(), 0.79);
/// assert!(cl.is_stable());
/// assert!((cl.dc_gain() - 1.0).abs() < 1e-9);
/// ```
pub fn closed_loop(gains: PidGains, plant_gain: f64) -> TransferFunction {
    let p = island_plant(plant_gain);
    let c = gains.transfer_function();
    p.series(&c).unity_feedback()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's design point: K_P = 0.4, K_I = 0.4, K_D = 0.3, a = 0.79.
    /// Eq. 12 gives the closed-loop transfer function
    /// `0.869(z² − 0.909z + 0.273) / ((z + 0.2995)(z² − 1.46z + 0.70))`
    /// (the published text drops digits; these are the values the algebra
    /// produces). All poles must lie strictly inside the unit circle.
    #[test]
    fn paper_design_point_is_stable() {
        let cl = closed_loop(PidGains::paper(), 0.79);
        assert!(cl.is_stable(), "paper design point must be stable");
        let poles = cl.poles();
        assert_eq!(poles.len(), 3);
        // One real pole near -0.30, complex pair with |z|² ≈ 0.70.
        // Exact algebra: D(z) = z³ − 1.131z² + 0.21z + 0.237
        //              = (z + 0.3366)(z² − 1.4676z + 0.7041…).
        // The paper prints the quadratic factor as (z² − 1.468z + 0.74) and
        // the real pole as −0.2995 — its two rounded factors are not quite
        // mutually consistent; the quadratic coefficient 1.4676 matches the
        // published 1.468 to its full precision, so we take the exact values
        // as ground truth and allow a loose band around the published ones.
        let real_pole = poles
            .iter()
            .find(|p| p.im.abs() < 1e-6)
            .expect("one real pole");
        assert!(
            (real_pole.re - (-0.3366)).abs() < 1e-3,
            "real pole ≈ -0.3366, got {}",
            real_pole.re
        );
        let complex_pole = poles
            .iter()
            .find(|p| p.im.abs() > 1e-6)
            .expect("complex pole pair");
        // Sum of the conjugate pair = 1.4676 (paper: 1.468).
        assert!((2.0 * complex_pole.re - 1.4676).abs() < 1e-3);
        // |pair|² ≈ 0.704 (paper rounds to 0.74).
        assert!((complex_pole.norm_sqr() - 0.704).abs() < 5e-3);
    }

    #[test]
    fn closed_loop_numerator_matches_eq12() {
        // N(z) = a·[(KP+KI+KD)z² − (KP+2KD)z + KD]
        //      = 0.869·z² − 0.79·z + 0.237 with the paper's constants.
        let cl = closed_loop(PidGains::paper(), 0.79);
        let num = cl.numerator();
        let c = num.coefficients();
        let lead = c[c.len() - 1];
        assert!((lead - 0.869).abs() < 1e-9, "leading coeff {lead}");
        assert!((c[c.len() - 2] - (-0.79)).abs() < 1e-9);
        assert!((c[c.len() - 3] - 0.237).abs() < 1e-9);
    }

    #[test]
    fn closed_loop_dc_gain_is_unity() {
        // The integral term guarantees zero steady-state error, i.e. the
        // closed loop has unit DC gain (H(z=1) = 1).
        let cl = closed_loop(PidGains::paper(), 0.79);
        assert!((cl.dc_gain() - 1.0).abs() < 1e-9);
    }
}
