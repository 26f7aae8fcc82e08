//! Property-based tests for the power models, on the in-tree
//! `cpm_rng::check` harness.

use cpm_power::dvfs::DvfsTable;
use cpm_power::{DynamicPowerModel, LeakageModel, UtilizationPowerTransducer};
use cpm_rng::check;
use cpm_units::{Celsius, Hertz, Ratio, Volts, Watts};

#[test]
fn quantize_down_never_exceeds_the_request() {
    check::forall("quantize down", |rng| {
        let mhz = rng.f64_in(600.0, 2500.0);
        let t = DvfsTable::pentium_m();
        let idx = t.quantize_down(Hertz::from_mhz(mhz));
        assert!(t.point(idx).frequency.mhz() <= mhz + 1e-9);
    });
}

#[test]
fn nearest_index_minimizes_distance() {
    check::forall("nearest index", |rng| {
        let mhz = rng.f64_in(0.0, 3000.0);
        let t = DvfsTable::pentium_m();
        let idx = t.nearest_index(Hertz::from_mhz(mhz));
        let d = (t.point(idx).frequency.mhz() - mhz).abs();
        for p in t.points() {
            assert!(d <= (p.frequency.mhz() - mhz).abs() + 1e-9);
        }
    });
}

/// Requests beyond the table, ±∞ included, map to the matching end. A
/// `NaN` request has no nearest point; the table answers with its lowest,
/// the point that draws the least power.
#[test]
fn nearest_index_of_non_finite_and_out_of_range_requests() {
    let t = DvfsTable::pentium_m();
    let top = t.len() - 1;
    assert_eq!(t.nearest_index(Hertz::new(f64::INFINITY)), top);
    assert_eq!(t.nearest_index(Hertz::new(f64::NEG_INFINITY)), 0);
    assert_eq!(t.nearest_index(Hertz::new(f64::NAN)), 0);
    check::forall("nearest index beyond the table", |rng| {
        let above = Hertz::from_mhz(rng.f64_in(2000.0, 1.0e12));
        let below = Hertz::from_mhz(rng.f64_in(-1.0e12, 600.0));
        assert_eq!(t.nearest_index(above), top);
        assert_eq!(t.nearest_index(below), 0);
    });
}

#[test]
fn dynamic_power_monotone_in_each_argument() {
    check::forall("dynamic power monotone", |rng| {
        let idx_a = rng.usize_in(0, 8);
        let idx_b = rng.usize_in(0, 8);
        let act_a = rng.next_f64();
        let act_b = rng.next_f64();
        let t = DvfsTable::pentium_m();
        let m = DynamicPowerModel::paper_default();
        let (lo_i, hi_i) = (idx_a.min(idx_b), idx_a.max(idx_b));
        let (lo_a, hi_a) = (act_a.min(act_b), act_a.max(act_b));
        // Monotone in operating point at fixed activity.
        assert!(
            m.power(t.point(lo_i), Ratio::new(lo_a)) <= m.power(t.point(hi_i), Ratio::new(lo_a))
        );
        // Monotone in activity at fixed operating point.
        assert!(
            m.power(t.point(lo_i), Ratio::new(lo_a)) <= m.power(t.point(lo_i), Ratio::new(hi_a))
        );
    });
}

#[test]
fn leakage_monotone_in_temperature_and_linear_in_multiplier() {
    check::forall("leakage monotone/linear", |rng| {
        let t_a = rng.f64_in(30.0, 110.0);
        let t_b = rng.f64_in(30.0, 110.0);
        let v = rng.f64_in(0.9, 1.4);
        let mult = rng.f64_in(0.5, 3.0);
        let m = LeakageModel::paper_default();
        let (lo, hi) = (t_a.min(t_b), t_a.max(t_b));
        assert!(
            m.power(Volts::new(v), Celsius::new(lo), 1.0)
                <= m.power(Volts::new(v), Celsius::new(hi), 1.0)
        );
        let base = m.power(Volts::new(v), Celsius::new(lo), 1.0);
        let scaled = m.power(Volts::new(v), Celsius::new(lo), mult);
        assert!((scaled.value() - base.value() * mult).abs() < 1e-9 * mult);
    });
}

#[test]
fn transducer_recovers_any_affine_model() {
    check::forall("transducer affine recovery", |rng| {
        let k0 = rng.f64_in(1.0, 50.0);
        let k1 = rng.f64_in(0.0, 20.0);
        let mut tr = UtilizationPowerTransducer::new();
        for i in 0..=20 {
            let u = i as f64 / 20.0;
            tr.observe(Ratio::new(u), Watts::new(k0 * u + k1));
        }
        let fit = tr.fit().unwrap();
        assert!((fit.slope - k0).abs() < 1e-6);
        assert!((fit.intercept - k1).abs() < 1e-6);
        // The quadratic sensing path agrees on affine data.
        let sensed = tr.estimate_power(Ratio::new(0.35));
        assert!((sensed.value() - (k0 * 0.35 + k1)).abs() < 1e-6);
    });
}

#[test]
fn transition_cost_is_zero_iff_same_point() {
    check::forall("transition cost", |rng| {
        let from = rng.usize_in(0, 8);
        let to = rng.usize_in(0, 8);
        let t = DvfsTable::pentium_m();
        let c = t.transition_cost(from, to, cpm_units::Seconds::from_ms(0.5));
        if from == to {
            assert_eq!(c, cpm_units::Seconds::ZERO);
        } else {
            assert!(c.value() > 0.0);
        }
    });
}
