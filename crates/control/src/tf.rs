//! Discrete-time (z-domain) transfer functions.
//!
//! A [`TransferFunction`] is a rational function `H(z) = N(z)/D(z)`. The
//! paper's §II-D composes the island plant `P(z) = a/(z−1)` with the PID
//! law `C(z)` and closes the loop as `Y(z) = P·C / (1 + P·C)` (Eq. 11); this
//! module provides exactly those compositions, pole/zero extraction, the
//! unit-circle stability test, and time-domain simulation of the underlying
//! difference equation.

use crate::complex::Complex;
use crate::poly::Polynomial;
use crate::roots;
use std::fmt;

/// A rational transfer function `N(z)/D(z)` with real coefficients.
///
/// ```
/// use cpm_control::{Polynomial, TransferFunction};
///
/// // A stable first-order lag H(z) = 0.4/(z - 0.6) with unit DC gain.
/// let h = TransferFunction::new(
///     Polynomial::new(vec![0.4]),
///     Polynomial::new(vec![-0.6, 1.0]),
/// );
/// assert!(h.is_stable());
/// assert!((h.dc_gain() - 1.0).abs() < 1e-12);
/// let step = h.step_response(50);
/// assert!((step.last().unwrap() - 1.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFunction {
    num: Polynomial,
    den: Polynomial,
}

impl TransferFunction {
    /// Creates `num/den`. Panics if the denominator is the zero polynomial.
    pub fn new(num: Polynomial, den: Polynomial) -> Self {
        assert!(!den.is_zero(), "transfer function denominator is zero");
        Self { num, den }
    }

    /// A pure gain `k`.
    pub fn gain(k: f64) -> Self {
        Self::new(Polynomial::constant(k), Polynomial::constant(1.0))
    }

    /// The numerator polynomial.
    pub fn numerator(&self) -> &Polynomial {
        &self.num
    }

    /// The denominator polynomial.
    pub fn denominator(&self) -> &Polynomial {
        &self.den
    }

    /// True when the function is *proper* (deg N ≤ deg D), i.e. causal.
    pub fn is_proper(&self) -> bool {
        self.num.degree() <= self.den.degree()
    }

    /// Series (cascade) composition: `self · other`.
    pub fn series(&self, other: &Self) -> Self {
        Self::new(&self.num * &other.num, &self.den * &other.den)
    }

    /// Parallel composition: `self + other`.
    pub fn parallel(&self, other: &Self) -> Self {
        Self::new(
            &(&self.num * &other.den) + &(&other.num * &self.den),
            &self.den * &other.den,
        )
    }

    /// Negative unity feedback: `self / (1 + self)`.
    ///
    /// This is the paper's Eq. 11 with `self = P(z)·C(z)`.
    pub fn unity_feedback(&self) -> Self {
        Self::new(self.num.clone(), &self.den + &self.num)
    }

    /// Negative feedback through `h`: `self / (1 + self·h)`.
    pub fn feedback(&self, h: &Self) -> Self {
        // G/(1+GH) = (Ng·Dh) / (Dg·Dh + Ng·Nh)
        Self::new(
            &self.num * &h.den,
            &(&self.den * &h.den) + &(&self.num * &h.num),
        )
    }

    /// DC gain `H(z = 1)` — the steady-state output for a unit step input.
    pub fn dc_gain(&self) -> f64 {
        self.num.eval(1.0) / self.den.eval(1.0)
    }

    /// The poles (roots of the denominator, with multiplicity).
    pub fn poles(&self) -> Vec<Complex> {
        roots::roots(&self.den)
    }

    /// The zeros (roots of the numerator, with multiplicity).
    pub fn zeros(&self) -> Vec<Complex> {
        if self.num.is_zero() {
            return Vec::new();
        }
        roots::roots(&self.num)
    }

    /// Largest pole modulus.
    pub fn spectral_radius(&self) -> f64 {
        roots::spectral_radius(&self.den)
    }

    /// BIBO stability for discrete-time systems: every pole strictly inside
    /// the unit circle. (Pole/zero cancellations are *not* performed — a
    /// cancelled unstable mode still reports unstable, which is the
    /// conservative answer for control design.)
    pub fn is_stable(&self) -> bool {
        roots::all_roots_in_unit_circle(&self.den)
    }

    /// Simulates the difference equation for an arbitrary input sequence,
    /// starting from rest. Requires a proper (causal) transfer function.
    ///
    /// With ascending numerator `b` (degree m) and denominator `a`
    /// (degree n ≥ m), the recurrence in delay form is
    /// `a_n·y[t] = Σ_k b_{n-k}·u[t−k] − Σ_{k≥1} a_{n−k}·y[t−k]`.
    pub fn simulate(&self, input: &[f64]) -> Vec<f64> {
        assert!(
            self.is_proper(),
            "cannot simulate an improper (non-causal) transfer function"
        );
        let b = self.num.coefficients();
        let a = self.den.coefficients();
        let n = self.den.degree();
        let m = self.num.degree();
        let a_lead = a[n];
        let mut y = vec![0.0; input.len()];
        for t in 0..input.len() {
            let mut acc = 0.0;
            // Feed-forward taps: coefficient of z^{-k} in N/z^n is b[n-k],
            // nonzero only when n-k ≤ m.
            for k in (n - m)..=n {
                if t >= k {
                    acc += b[n - k] * input[t - k];
                }
            }
            // Feedback taps.
            for k in 1..=n {
                if t >= k {
                    acc -= a[n - k] * y[t - k];
                }
            }
            y[t] = acc / a_lead;
        }
        y
    }

    /// Unit-step response of length `len`.
    pub fn step_response(&self, len: usize) -> Vec<f64> {
        self.simulate(&vec![1.0; len])
    }
}

impl fmt::Display for TransferFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}) / ({})", self.num, self.den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_order(a: f64) -> TransferFunction {
        // H(z) = a/(z - 1): discrete integrator scaled by a.
        TransferFunction::new(Polynomial::new(vec![a]), Polynomial::new(vec![-1.0, 1.0]))
    }

    #[test]
    fn gain_properties() {
        let g = TransferFunction::gain(2.5);
        assert_eq!(g.dc_gain(), 2.5);
        assert!(g.is_stable());
        assert!(g.poles().is_empty());
    }

    #[test]
    fn unit_delay_shifts_input() {
        // z⁻¹ = 1/z.
        let d = TransferFunction::new(Polynomial::constant(1.0), Polynomial::x());
        let y = d.simulate(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn integrator_accumulates_step() {
        // a/(z-1) driven by a unit step: y[t] = a·t (one-step delayed ramp).
        let h = first_order(0.5);
        let y = h.step_response(5);
        assert_eq!(y, vec![0.0, 0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn integrator_is_marginally_unstable() {
        let h = first_order(1.0);
        assert!(!h.is_stable(), "pole at z=1 is not strictly inside");
        assert!((h.spectral_radius() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn series_multiplies() {
        let h = first_order(2.0).series(&TransferFunction::gain(3.0));
        assert_eq!(h.numerator().coefficients(), &[6.0]);
        assert_eq!(h.denominator().coefficients(), &[-1.0, 1.0]);
    }

    #[test]
    fn parallel_adds() {
        // 1/(z-1) + 1 = z/(z-1)
        let h = first_order(1.0).parallel(&TransferFunction::gain(1.0));
        assert_eq!(h.numerator().coefficients(), &[0.0, 1.0]);
        assert_eq!(h.denominator().coefficients(), &[-1.0, 1.0]);
    }

    #[test]
    fn proportional_feedback_stabilizes_integrator() {
        // Loop gain L = K·a/(z−1); closed loop = Ka/(z−1+Ka). Pole at
        // 1 − Ka; with K·a = 0.5 the pole sits at 0.5 → stable.
        let loop_tf = first_order(1.0).series(&TransferFunction::gain(0.5));
        let cl = loop_tf.unity_feedback();
        assert!(cl.is_stable());
        let poles = cl.poles();
        assert_eq!(poles.len(), 1);
        assert!((poles[0].re - 0.5).abs() < 1e-12);
        // Proportional-only control of an integrator plant: the plant pole
        // at z=1 already gives zero steady-state error → DC gain 1.
        assert!((cl.dc_gain() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn feedback_through_sensor() {
        // G/(1+GH) with G = 1/(z-1), H = 0.5 equals unity_feedback of G·H
        // only in loop poles; verify denominator directly: z - 1 + 0.5.
        let g = first_order(1.0);
        let h = TransferFunction::gain(0.5);
        let cl = g.feedback(&h);
        assert_eq!(cl.denominator().coefficients(), &[-0.5, 1.0]);
        assert_eq!(cl.numerator().coefficients(), &[1.0]);
    }

    #[test]
    fn step_response_converges_to_dc_gain() {
        // Stable first-order lag: H(z) = 0.4/(z - 0.6); DC gain = 1.
        let h = TransferFunction::new(Polynomial::new(vec![0.4]), Polynomial::new(vec![-0.6, 1.0]));
        let y = h.step_response(60);
        let dc = h.dc_gain();
        assert!((dc - 1.0).abs() < 1e-12);
        assert!((y.last().unwrap() - dc).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "improper")]
    fn simulating_improper_tf_panics() {
        // z/(1): non-causal differentiator.
        TransferFunction::new(Polynomial::x(), Polynomial::constant(1.0)).simulate(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "denominator is zero")]
    fn zero_denominator_panics() {
        TransferFunction::new(Polynomial::constant(1.0), Polynomial::zero());
    }

    #[test]
    fn zeros_of_numerator() {
        let h = TransferFunction::new(
            Polynomial::from_roots(&[0.2, -0.7]),
            Polynomial::from_roots(&[0.5]),
        );
        let mut zs: Vec<f64> = h.zeros().iter().map(|z| z.re).collect();
        zs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((zs[0] + 0.7).abs() < 1e-9);
        assert!((zs[1] - 0.2).abs() < 1e-9);
    }
}
