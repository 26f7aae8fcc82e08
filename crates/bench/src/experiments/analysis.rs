//! §II-D analytical artifacts: Eq. 12 closed-loop poles and the Eq. 13
//! stability margin.

use crate::report::{f, heading, Table};
use cpm_control::jury::jury_test;
use cpm_control::{analysis, closed_loop, PidGains};

/// Derives the Eq. 12 closed-loop transfer function and its poles for the
/// paper's design point.
pub fn poles() -> String {
    let gains = PidGains::paper();
    let cl = closed_loop(gains, 0.79);
    let mut out = heading("Eq. 12 — closed-loop transfer function and poles (a = 0.79)");
    out.push_str(&format!("Y(z) = {cl}\n\n"));
    let mut t = Table::new(&["pole", "re", "im", "|z|"]);
    for (k, p) in cl.poles().iter().enumerate() {
        t.row(&[(k + 1).to_string(), f(p.re, 4), f(p.im, 4), f(p.norm(), 4)]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nstable (all |z| < 1): {}\npaper: poles -0.2995, 0.734±0.45i (quadratic factor z² - 1.468z + 0.74)\n",
        cl.is_stable()
    ));
    let m = analysis::closed_loop_step_metrics(&cl, 80, 0.02);
    out.push_str(&format!(
        "analytical unit-step: overshoot {:.1} % of step, settles in {:?} invocations, sse {:.4}\n",
        m.overshoot * 100.0,
        m.settling_steps,
        m.steady_state_error
    ));
    out.push_str(&format!(
        "Jury criterion (algebraic cross-check): {:?}\n",
        jury_test(cl.denominator())
    ));
    out
}

/// Sweeps the plant-gain perturbation g and locates the stability margin
/// (paper: stable for 0 < g < 2.1; Eq. 13 is the margin case).
pub fn margin() -> String {
    let gains = PidGains::paper();
    let g_max = analysis::gain_margin(gains, 0.79, 1e-4);
    let mut out = heading("Eq. 13 — stability margin of the PID loop");
    let mut t = Table::new(&["g", "stable", "spectral radius"]);
    for g in [0.25, 0.5, 1.0, 1.5, 2.0, 2.05, 2.1, 2.15, 2.5] {
        let cl = closed_loop(gains, g * 0.79);
        t.row(&[
            f(g, 2),
            cl.is_stable().to_string(),
            f(cl.spectral_radius(), 4),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nmeasured margin g_max = {g_max:.4}   (paper: 2.1)\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poles_reports_stability() {
        let s = poles();
        assert!(s.contains("stable (all |z| < 1): true"));
    }

    #[test]
    fn margin_lands_near_2_1() {
        // Paper: stable for 0 < g < 2.1. The bisection (tolerance 1e-3)
        // lands within 5e-4 of the true margin, 2.109705.
        let g_max = analysis::gain_margin(PidGains::paper(), 0.79, 1e-3);
        assert!((g_max - 2.1097).abs() < 1e-3, "g_max = {g_max}");
    }
}
