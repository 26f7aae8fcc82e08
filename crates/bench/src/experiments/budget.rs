//! Figs. 11, 12, 14: budget curves and performance degradation.
//!
//! Every (budget × scheme) cell is an independent simulation — each builds
//! its own `Coordinator` from a config — run in budget order.

use crate::report::{f, heading, Table};
use cpm_core::coordinator::run_with_baseline;
use cpm_core::prelude::*;

const BUDGETS: &[f64] = &[50.0, 60.0, 70.0, 80.0, 90.0, 95.0, 100.0];
const ROUNDS: usize = 30;

/// Fig. 11: consumed power vs budget for CPM and MaxBIPS.
pub fn fig11() -> String {
    let mut s = heading("Fig. 11 — budget curves: consumed power vs power budget");
    let mut t = Table::new(&["budget %", "CPM consumed %", "MaxBIPS consumed %"]);
    let cells: Vec<(f64, bool)> = BUDGETS
        .iter()
        .flat_map(|&b| [(b, false), (b, true)])
        .collect();
    let consumed = cells
        .into_iter()
        .map(|(b, maxbips)| {
            let mut cfg = ExperimentConfig::paper_default().with_budget_percent(b);
            if maxbips {
                cfg = cfg.with_scheme(ManagementScheme::MaxBips);
            }
            Coordinator::new(cfg)
                .expect("valid")
                .run_for_gpm_intervals(ROUNDS)
                .mean_chip_power_percent()
        })
        .collect::<Vec<_>>();
    for (k, &b) in BUDGETS.iter().enumerate() {
        t.row(&[f(b, 0), f(consumed[2 * k], 1), f(consumed[2 * k + 1], 1)]);
    }
    s.push_str(&t.render());
    s.push_str("\npaper: CPM closely tracks the budget; MaxBIPS is always below it (discrete knobs + open loop)\n");
    s
}

/// Fig. 12: average performance degradation vs power budget (CPM).
pub fn fig12() -> String {
    let mut s = heading("Fig. 12 — performance degradation vs power target");
    let mut t = Table::new(&["budget %", "degradation %"]);
    let degs = BUDGETS
        .iter()
        .map(|&b| {
            let cfg = ExperimentConfig::paper_default().with_budget_percent(b);
            let (m, base) = run_with_baseline(cfg, ROUNDS).expect("valid");
            m.degradation_vs(&base)
        })
        .collect::<Vec<_>>();
    for (&b, d) in BUDGETS.iter().zip(&degs) {
        t.row(&[f(b, 0), f(*d, 2)]);
    }
    s.push_str(&t.render());
    s.push_str(
        "\npaper: ~4 % at the 80 % budget, falling toward ~1 % at 100 % (monotone in the budget)\n",
    );
    s.push_str("note: our substrate's higher leakage floor makes the same budget cut cost more\nfrequency, so absolute degradations run higher; the monotone shape and the CPM-vs-\nMaxBIPS ordering are the reproduced claims (see EXPERIMENTS.md)\n");
    s
}

/// Fig. 14: instantaneous performance degradation over time at the 100 %
/// budget (paper: avg ≈ 0.9 %, max ≈ 2.2 %).
pub fn fig14() -> String {
    let cfg = ExperimentConfig::paper_default().with_budget_percent(100.0);
    let (m, base) = run_with_baseline(cfg, 60).expect("valid");
    // Per-GPM-interval BIPS ratio.
    let mb = m.chip_bips.averaged_chunks(m.pics_per_gpm);
    let bb = base.chip_bips.averaged_chunks(base.pics_per_gpm);
    let degs: Vec<f64> = mb
        .values()
        .zip(bb.values())
        .map(|(a, b)| (1.0 - a / b) * 100.0)
        .collect();
    let avg = degs.iter().sum::<f64>() / degs.len() as f64;
    let max = degs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut s = heading("Fig. 14 — instantaneous degradation with time (100 % budget)");
    s.push_str(&format!(
        "average {:.2} %, maximum {:.2} %   (paper: avg ~0.9 %, max ~2.2 %)\n",
        avg, max
    ));
    let mut t = Table::new(&["GPM interval", "degradation %"]);
    for (k, d) in degs.iter().enumerate().step_by(6) {
        t.row(&[k.to_string(), f(*d, 2)]);
    }
    s.push_str(&t.render());
    s
}

#[cfg(test)]
mod tests {
    // The budget sweeps are exercised end-to-end by the workspace
    // integration tests; unit smoke here keeps runtime modest.
    #[test]
    fn budgets_are_sorted() {
        assert!(super::BUDGETS.windows(2).all(|w| w[0] < w[1]));
    }
}
