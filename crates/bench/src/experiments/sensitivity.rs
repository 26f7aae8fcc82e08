//! Figs. 16 and 17: sensitivity to the application mix and to the
//! controller invocation intervals.

use crate::report::{f, heading, Table};
use cpm_core::coordinator::run_with_baseline;
use cpm_core::prelude::*;
use cpm_units::Seconds;
use cpm_workloads::WorkloadAssignment;

/// Fig. 16: Mix-1 (heterogeneous C+M islands) vs Mix-2 (homogeneous
/// islands) degradation across budgets.
pub fn fig16() -> String {
    let mut s = heading("Fig. 16 — sensitivity to the application mix");
    let mut t = Table::new(&["budget %", "Mix-1 degradation %", "Mix-2 degradation %"]);
    let budgets = [60.0, 70.0, 80.0, 90.0];
    let cells: Vec<(f64, Mix)> = budgets
        .iter()
        .flat_map(|&b| [(b, Mix::Mix1), (b, Mix::Mix2)])
        .collect();
    let degs = cells
        .into_iter()
        .map(|(budget, mix)| {
            let mut cfg = ExperimentConfig::paper_default().with_budget_percent(budget);
            cfg.mix = mix;
            let (m, b) = run_with_baseline(cfg, 30).expect("valid");
            m.degradation_vs(&b)
        })
        .collect::<Vec<_>>();
    for (k, &budget) in budgets.iter().enumerate() {
        t.row(&[f(budget, 0), f(degs[2 * k], 2), f(degs[2 * k + 1], 2)]);
    }
    s.push_str(&t.render());
    s.push_str("\npaper: Mix-2 degrades less — throttling an island holding two memory-bound\napps hurts little, while Mix-1 islands always sacrifice a co-scheduled\nCPU-bound app\n");
    s
}

/// Fig. 17: GPM/PIC invocation intervals (5 ms, 0.5 ms) vs (5 ms, 5 ms) for
/// 1/2/4 cores per island at the 80 % budget.
pub fn fig17() -> String {
    let mut s = heading("Fig. 17 — sensitivity to GPM/PIC invocation intervals (80 % budget)");
    let mut t = Table::new(&[
        "cores/island",
        "(5ms, 0.5ms) degradation %",
        "(5ms, 5ms) degradation %",
    ]);
    let widths = [1usize, 2, 4];
    let cells: Vec<(usize, f64)> = widths.iter().flat_map(|&w| [(w, 0.5), (w, 5.0)]).collect();
    let degs = cells
        .into_iter()
        .map(|(width, pic_ms)| {
            let base_assignment = {
                let m = WorkloadAssignment::paper_mix(Mix::Mix1, 8);
                WorkloadAssignment::new(m.profiles().to_vec(), width)
            };
            let mut cfg = ExperimentConfig::paper_default()
                .with_assignment(base_assignment)
                .with_budget_percent(80.0);
            cfg.cmp.pic_interval = Seconds::from_ms(pic_ms);
            let (m, b) = run_with_baseline(cfg, 30).expect("valid");
            m.degradation_vs(&b)
        })
        .collect::<Vec<_>>();
    for (k, width) in widths.iter().enumerate() {
        t.row(&[width.to_string(), f(degs[2 * k], 2), f(degs[2 * k + 1], 2)]);
    }
    s.push_str(&t.render());
    s.push_str("\npaper: the fast PIC (0.5 ms) degrades less — finer capping lets the GPM's\npredictions hold; a 5 ms PIC leaves each GPM interval with a single\ncorrection opportunity\n");
    s
}

#[cfg(test)]
mod tests {
    use cpm_core::prelude::*;
    use cpm_units::Seconds;

    #[test]
    fn slow_pic_config_is_valid() {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.cmp.pic_interval = Seconds::from_ms(5.0);
        cfg.cmp.validate();
        assert_eq!(cfg.cmp.pics_per_gpm(), 1);
    }
}
