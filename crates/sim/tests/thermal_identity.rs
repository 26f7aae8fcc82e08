//! Tiled thermal stencil vs a per-node oracle, bit for bit.
//!
//! `ThermalGrid::step` walks the floorplan row by row, one interior loop
//! per row with the boundary columns peeled. The oracle here is the plain
//! explicit-Euler walk it must reproduce: every node gathers its
//! neighbours from `Floorplan::neighbors` (up, down, left, right — the
//! order the stencil accumulates in) and the substep schedule is
//! recomputed from the grid's parameters. Two checks share it: random
//! power fields on every grid shape the stencil specializes, and the
//! per-core power series of a real chip run for every PARSEC profile.

use cpm_rng::Xoshiro256pp;
use cpm_sim::{Chip, CmpConfig};
use cpm_thermal::{Floorplan, ThermalGrid, ThermalParams};
use cpm_units::{CoreId, Seconds, Watts};
use cpm_workloads::{parsec, WorkloadAssignment};

/// The per-node explicit-Euler integrator the tiled stencil replaced.
struct Oracle {
    params: ThermalParams,
    neighbors: Vec<Vec<usize>>,
    temperatures: Vec<f64>,
}

impl Oracle {
    /// An oracle in the state of `grid`.
    fn of(grid: &ThermalGrid) -> Self {
        let floorplan = grid.floorplan();
        Self {
            params: grid.params(),
            neighbors: (0..floorplan.cores())
                .map(|i| {
                    floorplan
                        .neighbors(CoreId(i))
                        .iter()
                        .map(|c| c.index())
                        .collect()
                })
                .collect(),
            temperatures: grid.temperatures_deg().to_vec(),
        }
    }

    fn step(&mut self, powers: &[Watts], dt: Seconds) {
        let p = &self.params;
        // The stability bound on the nodal conductance sum.
        let g_max = 1.0 / p.r_vertical + 4.0 / p.r_lateral;
        let dt_stable = 0.5 * p.capacitance / g_max;
        let substeps = (dt.value() / dt_stable).ceil().max(1.0) as usize;
        let h = dt.value() / substeps as f64;
        let g_v = 1.0 / p.r_vertical;
        let g_l = 1.0 / p.r_lateral;
        let h_over_cap = h / p.capacitance;
        for _ in 0..substeps {
            let temps = &self.temperatures;
            let next = (0..temps.len())
                .map(|i| {
                    let t = temps[i];
                    let mut flow = powers[i].value() - (t - p.ambient.value()) * g_v;
                    for &j in &self.neighbors[i] {
                        flow -= (t - temps[j]) * g_l;
                    }
                    t + h_over_cap * flow
                })
                .collect();
            self.temperatures = next;
        }
    }

    /// Panics unless `temps` equals the oracle's state bit for bit.
    fn assert_matches(&self, temps: &[f64], what: &str) {
        assert_eq!(temps.len(), self.temperatures.len());
        for (i, (a, b)) in temps.iter().zip(&self.temperatures).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{what}: node {i} diverged: {a} vs {b}"
            );
        }
    }
}

/// Every grid shape the stencil specializes (single row, single column,
/// even/odd widths, the kilocore 32×32 floorplan), under random power.
#[test]
fn tiled_stencil_is_bit_identical_to_reference() {
    // Widths straddle the lane width: interiors of 0, 3, 9, and 15
    // columns exercise the empty, tail-only, chunk+tail, and
    // multi-chunk paths of the chunked row pass.
    for &(rows, cols) in &[
        (1, 1),
        (1, 5),
        (5, 1),
        (2, 4),
        (3, 3),
        (3, 11),
        (2, 17),
        (4, 8),
        (32, 32),
    ] {
        let params = ThermalParams::paper_default();
        let mut tiled = ThermalGrid::new(Floorplan::grid(rows, cols), params);
        let mut reference = Oracle::of(&tiled);
        let mut rng = Xoshiro256pp::seed_from_u64(rows as u64 * 1000 + cols as u64);
        let n = rows * cols;
        let mut powers = vec![Watts::ZERO; n];
        for step in 0..50 {
            for p in powers.iter_mut() {
                *p = Watts::new(rng.f64_in(0.0, 12.0));
            }
            // Mix substep counts: 0.5 ms runs one substep, 40 ms several.
            let dt = if step % 7 == 0 {
                Seconds::from_ms(40.0)
            } else {
                Seconds::from_ms(0.5)
            };
            tiled.step(&powers, dt);
            reference.step(&powers, dt);
            reference.assert_matches(
                tiled.temperatures_deg(),
                &format!("{rows}×{cols} step {step}"),
            );
        }
    }
}

/// The system-level check: for every PARSEC profile, a full chip run
/// produces the per-core power series, and both a standalone grid and the
/// chip's own grid must reproduce the oracle on exactly that input.
#[test]
fn tiled_stencil_matches_reference_on_every_parsec_profile() {
    for profile in parsec::all() {
        let name = profile.name;
        let cfg = CmpConfig::with_topology(8, 2);
        let assignment = WorkloadAssignment::new(vec![profile; 8], 2);
        let mut chip = Chip::new(cfg.clone(), &assignment);
        let mut tiled = ThermalGrid::new(cfg.floorplan(), cfg.thermal);
        let mut reference = Oracle::of(&tiled);
        let dt = cfg.pic_interval;
        for step in 0..200 {
            let snap = chip.step_pic();
            tiled.step(&snap.core_powers, dt);
            reference.step(&snap.core_powers, dt);
            reference.assert_matches(tiled.temperatures_deg(), &format!("{name} step {step}"));
            reference.assert_matches(chip.temperatures_deg(), &format!("{name} chip step {step}"));
        }
    }
}
