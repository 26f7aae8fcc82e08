//! Property-based tests for the control-theory toolkit, on the in-tree
//! `cpm_rng::check` harness.

use cpm_control::jury::{jury_test, JuryResult};
use cpm_control::{analysis, closed_loop, Pid, PidGains, Polynomial, TransferFunction};
use cpm_rng::{check, Xoshiro256pp};

/// Small real coefficients that keep evaluation well-conditioned.
fn coeffs(rng: &mut Xoshiro256pp, min_len: usize, max_len: usize) -> Vec<f64> {
    check::vec_f64(rng, -5.0, 5.0, min_len, max_len)
}

/// A root comfortably inside/outside the unit circle (avoids the boundary).
fn real_root(rng: &mut Xoshiro256pp) -> f64 {
    match rng.below(3) {
        0 => rng.f64_in(-0.95, 0.95),
        1 => rng.f64_in(1.05, 3.0),
        _ => rng.f64_in(-3.0, -1.05),
    }
}

#[test]
fn polynomial_product_evaluates_pointwise() {
    check::forall("poly product pointwise", |rng| {
        let pa = Polynomial::new(coeffs(rng, 1, 5));
        let pb = Polynomial::new(coeffs(rng, 1, 5));
        let x = rng.f64_in(-3.0, 3.0);
        let prod = &pa * &pb;
        let direct = pa.eval(x) * pb.eval(x);
        assert!((prod.eval(x) - direct).abs() < 1e-6 * (1.0 + direct.abs()));
    });
}

#[test]
fn polynomial_sum_evaluates_pointwise() {
    check::forall("poly sum pointwise", |rng| {
        let pa = Polynomial::new(coeffs(rng, 1, 6));
        let pb = Polynomial::new(coeffs(rng, 1, 6));
        let x = rng.f64_in(-3.0, 3.0);
        let sum = &pa + &pb;
        assert!((sum.eval(x) - (pa.eval(x) + pb.eval(x))).abs() < 1e-9);
    });
}

#[test]
fn roots_of_constructed_polynomial_are_recovered() {
    check::forall("roots recovered", |rng| {
        let mut rs: Vec<f64> = (0..rng.usize_in(1, 6)).map(|_| real_root(rng)).collect();
        rs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Keep roots pairwise separated so multiplicity doesn't slow
        // convergence below test tolerance.
        if rs.windows(2).any(|w| (w[1] - w[0]).abs() <= 0.05) {
            return;
        }
        let p = Polynomial::from_roots(&rs);
        let complex_roots = cpm_control::roots::roots(&p);
        let mut found = Vec::with_capacity(complex_roots.len());
        for z in complex_roots {
            assert!(z.im.abs() < 1e-5, "spurious complex root {z}");
            found.push(z.re);
        }
        found.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (f, r) in found.iter().zip(&rs) {
            assert!((f - r).abs() < 1e-4, "root {f} vs {r}");
        }
    });
}

#[test]
fn stability_test_agrees_with_construction() {
    check::forall("stability vs construction", |rng| {
        let inside = check::vec_f64(rng, -0.9, 0.9, 1, 5);
        let outside = rng.f64_in(1.05, 2.0);
        let stable = Polynomial::from_roots(&inside);
        assert!(cpm_control::roots::all_roots_in_unit_circle(&stable));
        let mut with_outlier = inside.clone();
        with_outlier.push(outside);
        let unstable = Polynomial::from_roots(&with_outlier);
        assert!(!cpm_control::roots::all_roots_in_unit_circle(&unstable));
    });
}

#[test]
fn stable_tf_step_response_converges_to_dc_gain() {
    check::forall("step response dc gain", |rng| {
        let pole1 = rng.f64_in(-0.8, 0.8);
        let pole2 = rng.f64_in(-0.8, 0.8);
        let num = rng.f64_in(0.1, 2.0);
        let den = Polynomial::from_roots(&[pole1, pole2]);
        let tf = TransferFunction::new(Polynomial::constant(num), den);
        if !tf.is_stable() {
            return;
        }
        let dc = tf.dc_gain();
        if !dc.is_finite() {
            return;
        }
        let y = tf.step_response(400);
        assert!(
            (y[399] - dc).abs() < 1e-3 * (1.0 + dc.abs()),
            "final {} vs dc {}",
            y[399],
            dc
        );
    });
}

#[test]
fn pid_integral_respects_its_clamp() {
    check::forall("pid integral clamp", |rng| {
        let errors = check::vec_f64(rng, -10.0, 10.0, 1, 100);
        let limit = rng.f64_in(0.1, 5.0);
        let mut pid = Pid::new(PidGains::paper()).with_integral_limit(limit);
        for e in errors {
            pid.step(e);
            assert!(pid.integral().abs() <= limit + 1e-12);
        }
    });
}

#[test]
fn pid_output_is_linear_in_error_scale() {
    check::forall("pid linearity", |rng| {
        let errors = check::vec_f64(rng, -2.0, 2.0, 1, 30);
        let scale = rng.f64_in(0.1, 5.0);
        // With no clamping, PID is a linear operator: scaling the error
        // sequence scales the output sequence.
        let mut a = Pid::new(PidGains::paper());
        let mut b = Pid::new(PidGains::paper());
        for e in &errors {
            let ua = a.step(*e);
            let ub = b.step(*e * scale);
            assert!((ub - ua * scale).abs() < 1e-9 * (1.0 + ua.abs() * scale));
        }
    });
}

#[test]
fn jury_agrees_with_the_root_finder() {
    check::forall("jury vs roots", |rng| {
        let roots: Vec<f64> = (0..rng.usize_in(1, 6)).map(|_| real_root(rng)).collect();
        let p = Polynomial::from_roots(&roots);
        let radius = cpm_control::roots::spectral_radius(&p);
        if (radius - 1.0).abs() <= 1e-3 {
            return; // skip near-circle cases
        }
        match jury_test(&p) {
            JuryResult::Stable => assert!(radius < 1.0, "jury stable but radius {radius}"),
            JuryResult::Unstable => assert!(radius > 1.0, "jury unstable but radius {radius}"),
            JuryResult::Marginal => {} // numerically indeterminate — no claim
        }
    });
}

#[test]
fn closed_loop_is_stable_within_the_gain_margin() {
    let margin = analysis::gain_margin(PidGains::paper(), 0.79, 1e-3);
    // Half a percent either side of the margin, both routes give a
    // verdict and agree with the bisection. A stability test that is
    // off by more than that moves the bisected margin with it, and the
    // Jury test, which never finds a root, then disagrees.
    for (frac, expected) in [(0.995, JuryResult::Stable), (1.005, JuryResult::Unstable)] {
        let cl = closed_loop(PidGains::paper(), frac * margin * 0.79);
        assert_eq!(
            jury_test(cl.denominator()),
            expected,
            "jury at {frac}·g_max, g_max = {margin}"
        );
        assert_eq!(cl.is_stable(), expected == JuryResult::Stable);
    }
    check::forall("stable within margin, unstable beyond", |rng| {
        // Inside: g in [0.05, 0.95]·g_max. Beyond: g in [1.01, 100]·g_max,
        // log-uniform, so each decade past the margin gets as many draws.
        let inside = rng.below(2) == 0;
        let frac = if inside {
            rng.f64_in(0.05, 0.95)
        } else {
            rng.f64_in(1.01f64.ln(), 100f64.ln()).exp()
        };
        let cl = closed_loop(PidGains::paper(), frac * margin * 0.79);
        assert_eq!(
            cl.is_stable(),
            inside,
            "g = {} against margin {}",
            frac * margin,
            margin
        );
        // The algebraic Jury test is the independent route to the margin:
        // it never finds a root, so it cannot share the bisection's errors.
        let expected = if inside {
            JuryResult::Stable
        } else {
            JuryResult::Unstable
        };
        match jury_test(cl.denominator()) {
            JuryResult::Marginal => {} // numerically indeterminate — no claim
            verdict => assert_eq!(
                verdict,
                expected,
                "jury at g = {} against margin {}",
                frac * margin,
                margin
            ),
        }
    });
}

#[test]
fn step_metrics_overshoot_nonnegative_and_consistent() {
    check::forall("step metrics overshoot", |rng| {
        let y = check::vec_f64(rng, 0.0, 3.0, 2, 50);
        let m = analysis::step_metrics(&y, 1.0, 0.05);
        assert!(m.overshoot >= 0.0);
        let peak = y.iter().cloned().fold(f64::MIN, f64::max);
        assert!((m.overshoot - (peak - 1.0).max(0.0)).abs() < 1e-12);
        if let Some(k) = m.settling_steps {
            for v in &y[k..] {
                assert!((v - 1.0).abs() <= 0.05 + 1e-12);
            }
        }
    });
}
