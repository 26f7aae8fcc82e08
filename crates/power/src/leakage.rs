//! HotLeakage-style static (leakage) power.
//!
//! HotLeakage computes subthreshold leakage as a strong exponential function
//! of temperature and supply voltage. We use the standard reduced form
//!
//! ```text
//! P_leak(V, T) = m · P₀ · (V/V₀) · exp(β_V·(V − V₀)) · (T/T₀)² · exp(β_T·(T − T₀))
//! ```
//!
//! anchored at the nominal point `(V₀, T₀)`, where `m` is the per-island
//! process-variation multiplier of §IV-B. The coefficients are chosen so
//! leakage is ≈ 20 % of total core power at the 90 nm nominal point and
//! roughly doubles over a 40 °C rise — both standard figures for the
//! technology node the paper models.

use crate::Lanes;
use cpm_math::{exp_det, exp_lanes};
use cpm_units::{Celsius, Volts, Watts};

/// Static-power model anchored at a nominal voltage/temperature point.
#[derive(Debug, Clone)]
pub struct LeakageModel {
    /// Leakage at `(v_nominal, t_nominal)` with multiplier 1.
    p_nominal: Watts,
    /// Anchor voltage.
    v_nominal: Volts,
    /// Anchor temperature.
    t_nominal: Celsius,
    /// Voltage sensitivity (1/V) — DIBL-driven exponential dependence.
    beta_v: f64,
    /// Temperature sensitivity (1/°C) in the exponential term.
    beta_t: f64,
}

impl LeakageModel {
    /// Die temperature used when quoting "maximum chip power" (hot, fully
    /// loaded die).
    pub const HOT_REFERENCE: Celsius = Celsius::new(85.0);

    /// The calibration used by the reproduction: 1.8 W at 1.34 V / 60 °C,
    /// doubling roughly every 40 °C, with a moderate DIBL slope.
    pub fn paper_default() -> Self {
        Self::new(
            Watts::new(1.8),
            Volts::new(1.34),
            Celsius::new(60.0),
            1.2,
            0.0125,
        )
    }

    /// Creates a model anchored at `(v_nominal, t_nominal)`.
    pub fn new(
        p_nominal: Watts,
        v_nominal: Volts,
        t_nominal: Celsius,
        beta_v: f64,
        beta_t: f64,
    ) -> Self {
        assert!(p_nominal.value() > 0.0, "nominal leakage must be positive");
        assert!(v_nominal.value() > 0.0);
        Self {
            p_nominal,
            v_nominal,
            t_nominal,
            beta_v,
            beta_t,
        }
    }

    /// Leakage power at supply `v`, die temperature `t`, with
    /// process-variation multiplier `multiplier` (1.0 = nominal silicon;
    /// the paper's §IV-B islands use 1.2×, 1.5×, 2.0×).
    pub fn power(&self, v: Volts, t: Celsius, multiplier: f64) -> Watts {
        self.power_with_v_term(self.v_term(v), t, multiplier)
    }

    /// The voltage factor `(V/V₀)·exp(β_V·(V − V₀))` of the leakage model.
    /// It depends only on the supply voltage, which is island-constant
    /// within a PIC interval, so the chip stepper hoists it out of the
    /// per-core loop; `power_with_v_term(v_term(v), …)` is bit-identical
    /// to `power(v, …)`.
    #[inline]
    pub fn v_term(&self, v: Volts) -> f64 {
        let vr = v / self.v_nominal;
        vr * exp_det((v - self.v_nominal).value() * self.beta_v)
    }

    /// Leakage power with the voltage factor precomputed by [`Self::v_term`].
    pub fn power_with_v_term(&self, v_term: f64, t: Celsius, multiplier: f64) -> Watts {
        assert!(multiplier > 0.0, "variation multiplier must be positive");
        // Temperature in Kelvin for the quadratic prefactor; the anchor
        // enters as a reciprocal so the hot per-core expression — and its
        // lane twin — multiplies instead of divides.
        let tk = t.value() + 273.15;
        let inv_tk0 = 1.0 / (self.t_nominal.value() + 273.15);
        let t_term = (tk * inv_tk0).powi(2) * exp_det((t - self.t_nominal).value() * self.beta_t);
        self.p_nominal * (multiplier * v_term * t_term)
    }

    /// Lane-chunked [`Self::power_with_v_term`]: leakage for `L` cores,
    /// with the hoisted voltage factor and the variation multiplier shared
    /// by every lane or given per lane (see [`Lanes`]), and temperatures
    /// given in °C.
    ///
    /// Each lane evaluates the token-identical scalar expression, so
    /// `out[l]` is bit-identical to the scalar call on lane `l` — and
    /// with `exp` the branch-free `cpm-math` kernel, every pass in here
    /// vectorizes, transcendental included.
    pub fn power_with_v_term_lanes<const L: usize, T: Lanes<L>>(
        &self,
        v_term: T,
        temps_deg: &[f64; L],
        multiplier: T,
        out: &mut [f64; L],
    ) {
        assert!(
            (0..L).all(|l| multiplier.lane(l) > 0.0),
            "variation multiplier must be positive"
        );
        let t_nom = self.t_nominal.value();
        let inv_tk0 = 1.0 / (t_nom + 273.15);
        let p_nom = self.p_nominal.value();
        // Vector pass: the quadratic prefactor and the exp argument.
        // Evaluating each into a temp is the same rounding sequence as
        // the fused scalar expression, so the split is bit-identical.
        let mut quad = [0.0; L];
        let mut e_arg = [0.0; L];
        for l in 0..L {
            let tk = temps_deg[l] + 273.15;
            quad[l] = (tk * inv_tk0).powi(2);
            e_arg[l] = (temps_deg[l] - t_nom) * self.beta_t;
        }
        // Vector pass: the exp kernel over all lanes at once.
        let mut e = [0.0; L];
        exp_lanes(&e_arg, &mut e);
        for l in 0..L {
            let t_term = quad[l] * e[l];
            out[l] = p_nom * (multiplier.lane(l) * v_term.lane(l) * t_term);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LeakageModel {
        LeakageModel::paper_default()
    }

    /// The libm accuracy oracle for [`LeakageModel::power_with_v_term`]:
    /// the same expression with the host `exp`.
    fn power_with_v_term_libm(m: &LeakageModel, v_term: f64, t: Celsius, multiplier: f64) -> Watts {
        let tk = t.value() + 273.15;
        let inv_tk0 = 1.0 / (m.t_nominal.value() + 273.15);
        let t_term = (tk * inv_tk0).powi(2) * ((t.value() - m.t_nominal.value()) * m.beta_t).exp();
        m.p_nominal * (multiplier * v_term * t_term)
    }

    #[test]
    fn anchored_at_nominal_point() {
        let m = model();
        let p = m.power(Volts::new(1.34), Celsius::new(60.0), 1.0);
        assert!((p.value() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn roughly_doubles_over_40_degrees() {
        let m = model();
        let cold = m.power(Volts::new(1.34), Celsius::new(60.0), 1.0);
        let hot = m.power(Volts::new(1.34), Celsius::new(100.0), 1.0);
        let ratio = hot.value() / cold.value();
        assert!(ratio > 1.7 && ratio < 2.3, "40°C ratio {ratio}");
    }

    #[test]
    fn decreases_with_lower_voltage() {
        let m = model();
        let hi = m.power(Volts::new(1.34), Celsius::new(60.0), 1.0);
        let lo = m.power(Volts::new(0.988), Celsius::new(60.0), 1.0);
        assert!(lo < hi);
        // DVFS down to the lowest point should cut leakage substantially
        // (voltage ratio × exponential DIBL factor).
        assert!(lo.value() / hi.value() < 0.55);
    }

    #[test]
    fn multiplier_is_linear() {
        let m = model();
        let base = m.power(Volts::new(1.2), Celsius::new(70.0), 1.0);
        let double = m.power(Volts::new(1.2), Celsius::new(70.0), 2.0);
        assert!((double.value() - 2.0 * base.value()).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_temperature() {
        let m = model();
        let mut prev = 0.0;
        for t in (30..=110).step_by(10) {
            let p = m
                .power(Volts::new(1.1), Celsius::new(t as f64), 1.0)
                .value();
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    #[should_panic(expected = "multiplier")]
    fn rejects_non_positive_multiplier() {
        model().power(Volts::new(1.0), Celsius::new(50.0), 0.0);
    }

    #[test]
    fn deterministic_kernel_tracks_libm_reference() {
        // The exp kernel is within 1 ulp of libm, so the full leakage
        // expression must agree with its libm twin to near machine
        // precision at every reachable (V, T, m) point.
        let m = model();
        for vi in 0..=10 {
            let v = Volts::new(0.9 + 0.05 * vi as f64);
            let vt = m.v_term(v);
            for t in (30..=110).step_by(5) {
                for mult in [1.0, 1.2, 1.5, 2.0] {
                    let det = m.power_with_v_term(vt, Celsius::new(t as f64), mult);
                    let lib = power_with_v_term_libm(&m, vt, Celsius::new(t as f64), mult);
                    let rel = (det.value() - lib.value()).abs() / lib.value();
                    assert!(rel < 1e-14, "V={v:?} T={t} m={mult}: rel err {rel}");
                }
            }
        }
    }
}
