//! Fig. 5 (plant-model validation) and Fig. 6 (utilization↔power fits).

use crate::report::{f, heading, Table};
use cpm_core::model;
use cpm_sim::{calibration, Chip, CmpConfig};
use cpm_units::IslandId;
use cpm_workloads::{parsec, WorkloadAssignment};

/// Fig. 5: identify `a` on the leave-bodytrack-out suite, then validate the
/// one-step model prediction on bodytrack under white-noise DVFS.
pub fn fig5() -> String {
    let cmp = CmpConfig::paper_default();
    let mut out =
        heading("Fig. 5 — actual power vs model prediction (bodytrack, white-noise DVFS)");
    let mut t = Table::new(&["benchmark", "identified a"]);
    let suite: Vec<_> = parsec::all()
        .into_iter()
        .filter(|p| p.short != "btrack")
        .collect();
    // One identification run per benchmark; each cell seeds its own noise
    // stream (1000 + k), so order of execution cannot leak into the fits.
    let gains: Vec<f64> = suite
        .iter()
        .enumerate()
        .map(|(k, p)| model::identify_gain(&cmp, p, 1000 + k as u64, 40))
        .collect();
    let mut sum = 0.0;
    for (p, a) in suite.iter().zip(&gains) {
        sum += a;
        t.row(&[p.short.into(), f(*a, 3)]);
    }
    let a_avg = sum / suite.len() as f64;
    out.push_str(&t.render());
    out.push_str(&format!("\nsuite average a = {a_avg:.3}   (paper: 0.79)\n"));
    let v = model::validate_model(&cmp, a_avg, 7, 100);
    out.push_str(&format!(
        "one-step prediction error on bodytrack: {:.2} %   (paper: within ~1 %)\n",
        v.mean_relative_error * 100.0
    ));
    out.push_str("\nfirst 12 samples (normalized island power):\nactual    predicted\n");
    for (a, p) in v.actual.iter().zip(&v.predicted).take(12) {
        out.push_str(&format!("{a:.4}    {p:.4}\n"));
    }
    out
}

/// Fig. 6: per-benchmark power↔capacity-utilization linear fits
/// (slope k₀, intercept k₁, R²), measured on the chip simulator by sweeping
/// DVFS levels — and the measured cache-calibration rates as context.
pub fn fig6() -> String {
    let mut out = heading("Fig. 6 — power vs utilization correlation per benchmark");
    let mut t = Table::new(&[
        "benchmark",
        "k0 (W)",
        "k1 (W)",
        "R^2 linear",
        "R^2 quadratic",
    ]);
    let all = parsec::all();
    // Each benchmark's sweep owns a private chip instance.
    let fits: Vec<_> = all
        .iter()
        .map(|p| {
            let cmp = CmpConfig::paper_default();
            let assignment = WorkloadAssignment::new(vec![p.clone(); 8], 2);
            let mut chip = Chip::new(cmp.clone(), &assignment);
            let mut tr = cpm_power::UtilizationPowerTransducer::new();
            let mut snap = cpm_sim::ChipSnapshot::empty();
            // Warm, then sweep all levels three times observing island 0.
            for _ in 0..200 {
                chip.step_pic_into(&mut snap);
            }
            for round in 0..3 {
                for step in 0..cmp.dvfs.len() {
                    let level = if round % 2 == 0 {
                        cmp.dvfs.len() - 1 - step
                    } else {
                        step
                    };
                    for i in 0..cmp.islands() {
                        chip.set_island_dvfs(IslandId(i), level);
                    }
                    chip.step_pic_into(&mut snap);
                    for _ in 0..2 {
                        chip.step_pic_into(&mut snap);
                        let isl = &snap.islands[0];
                        tr.observe(isl.capacity_utilization, isl.power);
                    }
                }
            }
            let fit = tr.fit().expect("calibrated");
            let q = tr.quadratic_fit().expect("calibrated");
            (fit.slope, fit.intercept, fit.r_squared, q.r_squared)
        })
        .collect();
    let mut r2_sum = 0.0;
    for (p, (slope, intercept, r2l, r2q)) in all.iter().zip(&fits) {
        r2_sum += r2l;
        t.row(&[
            p.short.into(),
            f(*slope, 2),
            f(*intercept, 2),
            f(*r2l, 3),
            f(*r2q, 3),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\naverage linear R² = {:.3}   (paper: 0.96)\n",
        r2_sum / all.len() as f64
    ));
    // Context: the cache-simulator calibration behind the profiles.
    out.push_str("\ncache-simulator calibration (measured MPKI):\n");
    let mut c = Table::new(&["benchmark", "L1 MPKI", "L2 MPKI"]);
    let rates: Vec<_> = all
        .iter()
        .map(|p| {
            let r = calibration::calibrate(p, &CmpConfig::paper_default().cache, 99);
            (r.l1_mpki, r.l2_mpki)
        })
        .collect();
    for (p, (l1, l2)) in all.iter().zip(&rates) {
        c.row(&[p.short.into(), f(*l1, 1), f(*l2, 1)]);
    }
    out.push_str(&c.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_reports_gain_near_paper() {
        let s = fig5();
        assert!(s.contains("suite average a = 0."), "{s}");
    }
}
