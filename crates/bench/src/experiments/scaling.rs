//! Figs. 13 and 15: island-size and core-count scaling.

use crate::report::{f, heading, Table};
use cpm_core::coordinator::run_with_baseline;
use cpm_core::prelude::*;
use cpm_units::Ratio;
use cpm_workloads::WorkloadAssignment;

/// The Mix-1 benchmark list regrouped into islands of `width` cores.
fn mix1_regrouped(width: usize) -> WorkloadAssignment {
    let base = WorkloadAssignment::paper_mix(Mix::Mix1, 8);
    WorkloadAssignment::new(base.profiles().to_vec(), width)
}

/// Fig. 13: degradation vs island size (1 / 2 / 4 cores per island) at the
/// 80 % budget, plus the MaxBIPS comparison at 1 core/island (the
/// architecture MaxBIPS targets).
pub fn fig13() -> String {
    let mut s = heading("Fig. 13 — performance degradation vs island size (80 % budget)");
    let mut t = Table::new(&["cores/island", "CPM degradation %", "MaxBIPS degradation %"]);
    // One cell per (width × scheme); the baseline twin inside
    // `run_with_baseline` shares seeds with both schemes, so each cell can
    // rebuild it independently and still report against the same reference.
    let widths = [1usize, 2, 4];
    let cells: Vec<(usize, bool)> = widths
        .iter()
        .flat_map(|&w| [(w, false), (w, true)])
        .collect();
    let degs = cells
        .into_iter()
        .map(|(width, maxbips)| {
            let mut cfg = ExperimentConfig::paper_default()
                .with_assignment(mix1_regrouped(width))
                .with_budget_percent(80.0);
            if maxbips {
                cfg = cfg.with_scheme(ManagementScheme::MaxBips);
            }
            let (m, base) = run_with_baseline(cfg, 30).expect("valid");
            m.degradation_vs(&base)
        })
        .collect::<Vec<_>>();
    for (k, width) in widths.iter().enumerate() {
        t.row(&[width.to_string(), f(degs[2 * k], 2), f(degs[2 * k + 1], 2)]);
    }
    s.push_str(&t.render());
    s.push_str("\npaper: degradation grows with island width (coarser actuation constrains\nco-scheduled apps); at 1 core/island CPM is within a few % of MaxBIPS\n");
    s
}

/// Fig. 15: 16- and 32-core CMPs (Mix-3, 4 cores/island), CPM vs MaxBIPS
/// across budgets.
pub fn fig15() -> String {
    let mut s = heading("Fig. 15 — scalability: 16 and 32 core CMPs (Mix-3)");
    let cores_axis = [16usize, 32];
    let budgets = [70.0, 80.0, 90.0];
    let cells: Vec<(usize, f64, bool)> = cores_axis
        .iter()
        .flat_map(|&c| {
            budgets
                .iter()
                .flat_map(move |&b| [(c, b, false), (c, b, true)])
        })
        .collect();
    let degs = cells
        .into_iter()
        .map(|(cores, budget, maxbips)| {
            let mut cfg = ExperimentConfig::paper_default().with_mix(Mix::Mix3, cores, 4);
            cfg.budget_fraction = Ratio::from_percent(budget);
            if maxbips {
                cfg = cfg.with_scheme(ManagementScheme::MaxBips);
            }
            let (m, base) = run_with_baseline(cfg, 25).expect("valid");
            m.degradation_vs(&base)
        })
        .collect::<Vec<_>>();
    for (ci, cores) in cores_axis.iter().enumerate() {
        s.push_str(&format!("\n{cores}-core CMP:\n"));
        let mut t = Table::new(&["budget %", "CPM degradation %", "MaxBIPS degradation %"]);
        for (bi, &budget) in budgets.iter().enumerate() {
            let k = 2 * (ci * budgets.len() + bi);
            t.row(&[f(budget, 0), f(degs[k], 2), f(degs[k + 1], 2)]);
        }
        s.push_str(&t.render());
    }
    s.push_str("\npaper: CPM stays ≈ flat as the chip scales (4 % at 80 %); MaxBIPS degrades\nto 14 % (16 cores) and 16.2 % (32 cores) at the 80 % budget\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regrouping_preserves_the_benchmark_list() {
        let a1 = mix1_regrouped(1);
        let a4 = mix1_regrouped(4);
        assert_eq!(a1.islands(), 8);
        assert_eq!(a4.islands(), 2);
        for c in 0..8 {
            assert_eq!(
                a1.profile(cpm_units::CoreId(c)).short,
                a4.profile(cpm_units::CoreId(c)).short
            );
        }
    }
}
