//! Root-locus analysis: closed-loop pole trajectories as a loop parameter
//! sweeps.
//!
//! §II-D lists root locus among the formal methodologies for choosing
//! `K_P, K_I, K_D`. [`RootLocus`] sweeps a caller-supplied family of
//! closed-loop transfer functions (e.g. the PID island loop as the plant
//! gain perturbation `g` grows) and records every pole at every parameter
//! value, plus the critical parameter where the locus first leaves the
//! unit circle — an alternative derivation of the paper's `g < 2.1`
//! stability bound.

use crate::complex::Complex;
use crate::tf::TransferFunction;

/// The poles at one parameter value.
#[derive(Debug, Clone)]
pub struct LocusPoint {
    /// The swept parameter value.
    pub parameter: f64,
    /// All closed-loop poles at this value.
    pub poles: Vec<Complex>,
    /// Largest pole modulus.
    pub spectral_radius: f64,
}

/// A sampled root locus.
#[derive(Debug, Clone)]
pub struct RootLocus {
    points: Vec<LocusPoint>,
}

impl RootLocus {
    /// Sweeps `family(parameter)` over `n` evenly spaced values in
    /// `[lo, hi]`.
    pub fn sweep(family: impl Fn(f64) -> TransferFunction, lo: f64, hi: f64, n: usize) -> Self {
        assert!(n >= 2, "need at least two sweep points");
        assert!(hi > lo, "empty sweep range");
        let points = (0..n)
            .map(|k| {
                let parameter = lo + (hi - lo) * k as f64 / (n - 1) as f64;
                let tf = family(parameter);
                let poles = tf.poles();
                let spectral_radius = poles.iter().fold(0.0f64, |m, p| m.max(p.norm()));
                LocusPoint {
                    parameter,
                    poles,
                    spectral_radius,
                }
            })
            .collect();
        Self { points }
    }

    /// The sampled locus points.
    pub fn points(&self) -> &[LocusPoint] {
        &self.points
    }

    /// The first parameter value at which the locus leaves the unit circle
    /// (linear interpolation between the bracketing samples); `None` when
    /// the whole sweep stays stable.
    pub fn instability_onset(&self) -> Option<f64> {
        self.points.windows(2).find_map(|w| {
            let (a, b) = (&w[0], &w[1]);
            if a.spectral_radius < 1.0 && b.spectral_radius >= 1.0 {
                let t = (1.0 - a.spectral_radius) / (b.spectral_radius - a.spectral_radius);
                Some(a.parameter + t * (b.parameter - a.parameter))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{closed_loop, PidGains};

    fn pid_locus(n: usize) -> RootLocus {
        RootLocus::sweep(|g| closed_loop(PidGains::paper(), g * 0.79), 0.05, 3.0, n)
    }

    #[test]
    fn onset_matches_the_bisected_gain_margin() {
        let locus = pid_locus(600);
        let onset = locus.instability_onset().expect("locus crosses the circle");
        let margin = crate::analysis::gain_margin(PidGains::paper(), 0.79, 1e-4);
        assert!(
            (onset - margin).abs() < 0.02,
            "locus onset {onset} vs bisection {margin}"
        );
    }

    #[test]
    fn poles_move_continuously() {
        // Adjacent parameter steps must not teleport the spectral radius —
        // a coarse sanity check that the sweep is fine enough to trust.
        let locus = pid_locus(400);
        for w in locus.points().windows(2) {
            assert!(
                (w[1].spectral_radius - w[0].spectral_radius).abs() < 0.05,
                "jump at g = {}",
                w[1].parameter
            );
        }
    }

    #[test]
    fn stable_sweep_has_no_onset() {
        let locus = RootLocus::sweep(|g| closed_loop(PidGains::paper(), g * 0.79), 0.1, 1.5, 100);
        assert!(locus.instability_onset().is_none());
        assert!(locus.points().iter().all(|p| p.spectral_radius < 1.0));
    }

    #[test]
    fn every_point_carries_all_three_poles() {
        let locus = pid_locus(50);
        for p in locus.points() {
            assert_eq!(p.poles.len(), 3, "third-order loop at g = {}", p.parameter);
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn sweep_needs_points() {
        RootLocus::sweep(|g| closed_loop(PidGains::paper(), g * 0.79), 0.1, 1.0, 1);
    }
}
