//! The RC thermal network and its integrator.
//!
//! One thermal node per core. Vertical resistance `R_v` drains heat to the
//! ambient/heat-sink node; lateral resistance `R_l` couples 4-connected
//! floorplan neighbours. Integration is forward Euler with automatic
//! sub-stepping to keep the explicit scheme stable
//! (`dt_sub < C / (1/R_v + 4/R_l)` with margin). Each substep relaxes the
//! die row by row: the two edge nodes are peeled and the interior is one
//! plain loop, which LLVM autovectorizes without hand-chunking.

use crate::floorplan::Floorplan;
use cpm_units::{Celsius, CoreId, Seconds, Watts};

/// The node-constant factors of one Euler substep, hoisted out of the
/// row passes. Resistances and capacitance enter as reciprocals
/// (conductances, `h/C`) so the stencil body is pure multiply-add —
/// divides are the one f64 op whose reciprocal throughput dominates a
/// vectorized loop, and the unhoisted form spent six of them per node.
#[derive(Clone, Copy)]
struct StencilCtx {
    /// Vertical (node→ambient) conductance `1/R_v`.
    g_v: f64,
    /// Lateral (node→node) conductance `1/R_l`.
    g_l: f64,
    ambient: f64,
    /// Substep length over capacitance, `h/C`.
    h_over_cap: f64,
    cols: usize,
}

/// Physical parameters of the RC network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalParams {
    /// Vertical core→ambient thermal resistance (°C per watt).
    pub r_vertical: f64,
    /// Lateral core→core thermal resistance (°C per watt).
    pub r_lateral: f64,
    /// Per-core thermal capacitance (joules per °C).
    pub capacitance: f64,
    /// Ambient (heat-sink) temperature.
    pub ambient: Celsius,
}

impl ThermalParams {
    /// Defaults giving a ~60 ms thermal time constant and ≈ 2 °C/W vertical
    /// rise — representative of a 90 nm-class core under a capable heat
    /// sink, and fast enough that hotspots develop within a handful of GPM
    /// intervals (which is the timescale §IV-A's policy acts on).
    pub fn paper_default() -> Self {
        Self {
            r_vertical: 2.0,
            r_lateral: 4.0,
            capacitance: 0.03,
            ambient: Celsius::new(45.0),
        }
    }
}

/// The thermal state of the die: one temperature per core node.
///
/// The lateral coupling is implicit in the floorplan's row-major grid, so
/// the stencil needs no neighbour lists, and the integrator keeps a
/// reusable `scratch` buffer so steady-state stepping never allocates.
#[derive(Debug, Clone)]
pub struct ThermalGrid {
    floorplan: Floorplan,
    params: ThermalParams,
    temperatures: Vec<f64>,
    /// Euler double-buffer, reused across steps.
    scratch: Vec<f64>,
}

impl ThermalGrid {
    /// Creates a grid with every node at ambient temperature.
    pub fn new(floorplan: Floorplan, params: ThermalParams) -> Self {
        assert!(params.r_vertical > 0.0 && params.r_lateral > 0.0);
        assert!(params.capacitance > 0.0);
        let n = floorplan.cores();
        Self {
            temperatures: vec![params.ambient.value(); n],
            floorplan,
            params,
            scratch: vec![0.0; n],
        }
    }

    /// The floorplan this grid models.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The physical parameters.
    pub fn params(&self) -> ThermalParams {
        self.params
    }

    /// Current temperature of a core node.
    pub fn temperature(&self, core: CoreId) -> Celsius {
        Celsius::new(self.temperatures[core.index()])
    }

    /// All node temperatures in °C, core-id order, borrowed — the
    /// allocation-free accessor hot paths should prefer.
    pub fn temperatures_deg(&self) -> &[f64] {
        &self.temperatures
    }

    /// The hottest node and its temperature.
    pub fn hottest(&self) -> (CoreId, Celsius) {
        let (i, &t) = self
            .temperatures
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        (CoreId(i), Celsius::new(t))
    }

    /// Resets every node to ambient.
    pub fn reset(&mut self) {
        self.temperatures.fill(self.params.ambient.value());
    }

    /// Advances the network by `dt` with per-core heat input `powers`
    /// (watts, core-id order), sub-stepping as needed for stability.
    ///
    /// The update walks the floorplan row by row, dispatched to a row
    /// pass monomorphized over the row's up/down coupling (see
    /// `ThermalGrid::row_pass`), with the boundary columns peeled — so the
    /// interior is a branch-free elementwise stencil over four fixed
    /// strides instead of a neighbour-list gather, and LLVM autovectorizes
    /// it. Flow terms accumulate in the floorplan's
    /// neighbour order (up, down, left, right), so results are
    /// bit-identical to a per-node walk over [`Floorplan::neighbors`] (the
    /// oracle `cpm-sim`'s `thermal_identity` tests check it against).
    pub fn step(&mut self, powers: &[Watts], dt: Seconds) {
        assert_eq!(
            powers.len(),
            self.temperatures.len(),
            "one power value per core required"
        );
        let (rows, cols) = (self.floorplan.rows(), self.floorplan.cols());
        let (substeps, h) = self.substep_schedule(dt);
        let ctx = StencilCtx {
            g_v: 1.0 / self.params.r_vertical,
            g_l: 1.0 / self.params.r_lateral,
            ambient: self.params.ambient.value(),
            h_over_cap: h / self.params.capacitance,
            cols,
        };
        let mut next = std::mem::take(&mut self.scratch);
        debug_assert_eq!(next.len(), self.temperatures.len());
        for _ in 0..substeps {
            let temps = &self.temperatures;
            for r in 0..rows {
                // Monomorphize per up/down combination so the interior
                // loop body carries no per-node branches at all.
                match (r > 0, r + 1 < rows) {
                    (false, false) => {
                        Self::row_pass::<false, false>(temps, powers, &mut next, r, ctx)
                    }
                    (false, true) => {
                        Self::row_pass::<false, true>(temps, powers, &mut next, r, ctx)
                    }
                    (true, false) => {
                        Self::row_pass::<true, false>(temps, powers, &mut next, r, ctx)
                    }
                    (true, true) => Self::row_pass::<true, true>(temps, powers, &mut next, r, ctx),
                }
            }
            std::mem::swap(&mut self.temperatures, &mut next);
        }
        self.scratch = next;
    }

    /// One node's Euler update, with the vertical coupling resolved at
    /// compile time and the lateral coupling by the peeled caller.
    #[inline(always)] // the interior loop body must inline to vectorize
    fn relax_node<const UP: bool, const DOWN: bool>(
        temps: &[f64],
        powers: &[Watts],
        next: &mut [f64],
        i: usize,
        left: bool,
        right: bool,
        ctx: StencilCtx,
    ) {
        let t = temps[i];
        let mut flow = powers[i].value() - (t - ctx.ambient) * ctx.g_v;
        if UP {
            flow -= (t - temps[i - ctx.cols]) * ctx.g_l;
        }
        if DOWN {
            flow -= (t - temps[i + ctx.cols]) * ctx.g_l;
        }
        if left {
            flow -= (t - temps[i - 1]) * ctx.g_l;
        }
        if right {
            flow -= (t - temps[i + 1]) * ctx.g_l;
        }
        next[i] = t + ctx.h_over_cap * flow;
    }

    /// One row of the Euler substep: peeled left/right edge nodes around
    /// one interior loop. Every node evaluates the same
    /// [`ThermalGrid::relax_node`] expression, so the pass is bit-identical
    /// to a per-node walk.
    fn row_pass<const UP: bool, const DOWN: bool>(
        temps: &[f64],
        powers: &[Watts],
        next: &mut [f64],
        r: usize,
        ctx: StencilCtx,
    ) {
        let cols = ctx.cols;
        let base = r * cols;
        Self::relax_node::<UP, DOWN>(temps, powers, next, base, false, cols > 1, ctx);
        for i in base + 1..base + cols.saturating_sub(1) {
            Self::relax_node::<UP, DOWN>(temps, powers, next, i, true, true, ctx);
        }
        if cols > 1 {
            Self::relax_node::<UP, DOWN>(temps, powers, next, base + cols - 1, true, false, ctx);
        }
    }

    /// Explicit-Euler stability bound on the nodal conductance sum: the
    /// number of substeps covering `dt` and the substep length.
    fn substep_schedule(&self, dt: Seconds) -> (usize, f64) {
        let p = &self.params;
        let g_max = 1.0 / p.r_vertical + 4.0 / p.r_lateral;
        let dt_stable = 0.5 * p.capacitance / g_max;
        let substeps = (dt.value() / dt_stable).ceil().max(1.0) as usize;
        (substeps, dt.value() / substeps as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The analytic steady-state temperature of a *uniformly powered* die:
    /// with equal power everywhere no lateral heat flows, so
    /// `T = T_amb + P·R_v`.
    fn uniform_steady_state(g: &ThermalGrid, per_core_power: Watts) -> Celsius {
        Celsius::new(g.params.ambient.value() + per_core_power.value() * g.params.r_vertical)
    }

    fn grid_2x4() -> ThermalGrid {
        ThermalGrid::new(Floorplan::grid(2, 4), ThermalParams::paper_default())
    }

    #[test]
    fn starts_at_ambient() {
        let g = grid_2x4();
        for &t in g.temperatures_deg() {
            assert_eq!(t, 45.0);
        }
    }

    #[test]
    fn uniform_power_reaches_analytic_steady_state() {
        let mut g = grid_2x4();
        let p = vec![Watts::new(10.0); 8];
        // Run well past the ~60 ms time constant.
        for _ in 0..200 {
            g.step(&p, Seconds::from_ms(5.0));
        }
        let expect = uniform_steady_state(&g, Watts::new(10.0));
        for &t in g.temperatures_deg() {
            assert!(
                (t - expect.value()).abs() < 0.05,
                "node at {t} °C, expected {expect}"
            );
        }
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let mut g = grid_2x4();
        g.step(&[Watts::ZERO; 8], Seconds::from_ms(100.0));
        for &t in g.temperatures_deg() {
            assert!((t - 45.0).abs() < 1e-9);
        }
    }

    #[test]
    fn hot_core_heats_its_neighbors_most() {
        let mut g = grid_2x4();
        let mut p = vec![Watts::ZERO; 8];
        p[0] = Watts::new(12.0); // corner core
        for _ in 0..400 {
            g.step(&p, Seconds::from_ms(5.0));
        }
        let t0 = g.temperature(CoreId(0)).value();
        let t1 = g.temperature(CoreId(1)).value(); // adjacent
        let t4 = g.temperature(CoreId(4)).value(); // adjacent (below)
        let t7 = g.temperature(CoreId(7)).value(); // far corner
        assert!(t0 > t1 && t0 > t4, "source is hottest");
        assert!(t1 > t7 && t4 > t7, "adjacent nodes hotter than distant");
        assert!(t1 > 45.5, "lateral coupling must actually conduct heat");
    }

    #[test]
    fn adjacent_hot_pair_exceeds_isolated_hot_cores() {
        // The physical basis of §IV-A: two adjacent cores at high power run
        // hotter than the same two cores placed far apart.
        let params = ThermalParams::paper_default();
        let mut adjacent = ThermalGrid::new(Floorplan::grid(2, 4), params);
        let mut separated = ThermalGrid::new(Floorplan::grid(2, 4), params);
        let mut pa = vec![Watts::new(1.0); 8];
        pa[0] = Watts::new(12.0);
        pa[1] = Watts::new(12.0); // neighbours
        let mut ps = vec![Watts::new(1.0); 8];
        ps[0] = Watts::new(12.0);
        ps[7] = Watts::new(12.0); // opposite corners
        for _ in 0..400 {
            adjacent.step(&pa, Seconds::from_ms(5.0));
            separated.step(&ps, Seconds::from_ms(5.0));
        }
        let peak_adj = adjacent.hottest().1.value();
        let peak_sep = separated.hottest().1.value();
        assert!(
            peak_adj > peak_sep + 0.3,
            "adjacent pair {peak_adj} should exceed separated {peak_sep}"
        );
    }

    #[test]
    fn step_is_stable_for_large_dt() {
        // A huge dt must be sub-stepped, not explode.
        let mut g = grid_2x4();
        g.step(&[Watts::new(10.0); 8], Seconds::new(5.0));
        for &t in g.temperatures_deg() {
            assert!(t.is_finite());
            assert!(t < 100.0, "temperature {t} °C diverged");
        }
    }

    #[test]
    fn reset_returns_to_ambient() {
        let mut g = grid_2x4();
        g.step(&[Watts::new(10.0); 8], Seconds::new(1.0));
        g.reset();
        for &t in g.temperatures_deg() {
            assert_eq!(t, 45.0);
        }
    }

    #[test]
    fn hottest_reports_argmax() {
        let mut g = grid_2x4();
        let mut p = vec![Watts::ZERO; 8];
        p[5] = Watts::new(8.0);
        g.step(&p, Seconds::from_ms(50.0));
        assert_eq!(g.hottest().0, CoreId(5));
    }

    #[test]
    #[should_panic(expected = "one power value per core")]
    fn wrong_power_length_panics() {
        grid_2x4().step(&[Watts::ZERO; 3], Seconds::from_ms(1.0));
    }

    /// Analytic steady state at the kilocore scale: a uniformly powered
    /// 32×32 die has no lateral flow, so every node settles at
    /// `T = T_amb + P·R_v`.
    #[test]
    fn kilocore_grid_reaches_analytic_steady_state() {
        let mut g = ThermalGrid::new(Floorplan::grid(32, 32), ThermalParams::paper_default());
        let p = vec![Watts::new(7.0); 1024];
        for _ in 0..200 {
            g.step(&p, Seconds::from_ms(5.0));
        }
        let expect = uniform_steady_state(&g, Watts::new(7.0));
        assert!((expect.value() - 59.0).abs() < 1e-12, "45 + 7·2 = 59 °C");
        for (i, &t) in g.temperatures_deg().iter().enumerate() {
            assert!(
                (t - expect.value()).abs() < 0.05,
                "node {i} at {t} °C, expected {expect}"
            );
        }
    }

    /// Substep stability on the 32×32 floorplan: whatever dt and power
    /// pattern the controller throws at the grid, automatic sub-stepping
    /// must keep every node finite and below the hottest physically
    /// reachable steady state.
    #[test]
    fn kilocore_substep_stability_property() {
        use cpm_rng::check;
        check::forall_cases("32×32 substep stability", 32, |rng| {
            let mut g = ThermalGrid::new(Floorplan::grid(32, 32), ThermalParams::paper_default());
            let p_max = 12.0;
            let mut powers = vec![Watts::ZERO; 1024];
            for _ in 0..20 {
                for p in powers.iter_mut() {
                    *p = Watts::new(rng.f64_in(0.0, p_max));
                }
                // Spans sub-millisecond PIC intervals through multi-second
                // jumps (thousands of substeps).
                let dt = Seconds::new(rng.f64_in(1e-4, 2.0));
                g.step(&powers, dt);
                let ceiling = uniform_steady_state(&g, Watts::new(p_max)).value();
                for &t in g.temperatures_deg() {
                    assert!(t.is_finite(), "diverged at dt {dt:?}");
                    assert!(
                        t >= 45.0 - 1e-9 && t <= ceiling + 1e-9,
                        "node at {t} °C outside [ambient, {ceiling}]"
                    );
                }
            }
        });
    }
}
