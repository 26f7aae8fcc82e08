//! Wattch-style dynamic (switching) power.
//!
//! Wattch models each micro-architectural unit as an effective switched
//! capacitance and charges `αᵤ·Cᵤ·V²·f` per unit, where `αᵤ` is the unit's
//! activity factor. We keep the same structure with the paper's clock-gating
//! convention: "we used the linear clock-gating scheme with 10 % power
//! utilization for unused components" — an idle unit still draws
//! [`DynamicPowerModel::GATING_FLOOR`] of its active power (Wattch's `cc3`
//! conditional-clocking style).

use crate::dvfs::OperatingPoint;
use crate::Lanes;
use cpm_units::{Ratio, Watts};

/// The micro-architectural units charged by the model, mirroring Wattch's
/// breakdown for an out-of-order core (Table I: 4-wide fetch/issue/commit,
/// 128-entry register file, 64-entry schedulers, 16 KB L1s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Fetch + branch prediction + I-TLB.
    Fetch,
    /// Rename + dispatch.
    Rename,
    /// Issue window / schedulers.
    Issue,
    /// Integer + FP register files.
    RegFile,
    /// Integer and FP execution units.
    Execute,
    /// L1 instruction cache.
    L1I,
    /// L1 data cache + D-TLB + LSQ.
    L1D,
    /// Clock distribution tree (never fully gated).
    ClockTree,
}

impl Unit {
    /// All units, in a fixed reporting order.
    pub const ALL: [Unit; 8] = [
        Unit::Fetch,
        Unit::Rename,
        Unit::Issue,
        Unit::RegFile,
        Unit::Execute,
        Unit::L1I,
        Unit::L1D,
        Unit::ClockTree,
    ];
}

/// Activity-based dynamic power: `P = Σᵤ Cᵤ·gate(αᵤ)·V²·f`.
#[derive(Debug, Clone)]
pub struct DynamicPowerModel {
    /// Effective capacitance per unit, in farads.
    capacitance: [f64; 8],
}

impl DynamicPowerModel {
    /// Idle units draw this fraction of their active power (paper §III /
    /// Wattch cc3 linear clock gating).
    pub const GATING_FLOOR: f64 = 0.10;

    /// Relative capacitance weights per unit (sum = 1.0). The split follows
    /// Wattch's published breakdown for a 4-wide OoO core: the clock tree
    /// and the wakeup/issue logic dominate.
    const WEIGHTS: [f64; 8] = [
        0.10, // Fetch
        0.06, // Rename
        0.15, // Issue
        0.08, // RegFile
        0.18, // Execute
        0.10, // L1I
        0.13, // L1D
        0.20, // ClockTree
    ];

    /// Total effective switched capacitance calibrated so one core peaks at
    /// ≈ 9 W dynamic at 2.0 GHz / 1.34 V (90 nm-class, Table I).
    const TOTAL_CAPACITANCE: f64 = 2.5e-9;

    /// The calibration used by the reproduction (see crate docs).
    pub fn paper_default() -> Self {
        Self::with_total_capacitance(Self::TOTAL_CAPACITANCE)
    }

    /// A model with a custom total effective capacitance, split across
    /// units by the standard weights.
    pub fn with_total_capacitance(total_farads: f64) -> Self {
        assert!(total_farads > 0.0, "capacitance must be positive");
        let mut capacitance = [0.0; 8];
        for (c, w) in capacitance.iter_mut().zip(Self::WEIGHTS) {
            *c = total_farads * w;
        }
        Self { capacitance }
    }

    /// Gated activity: a unit at activity `α` draws
    /// `floor + (1-floor)·α` of its peak power.
    #[inline]
    fn gate(activity: f64) -> f64 {
        Self::GATING_FLOOR + (1.0 - Self::GATING_FLOOR) * activity.clamp(0.0, 1.0)
    }

    /// Dynamic power with a single average activity factor applied to every
    /// functional unit (the common case in the interval simulator, where
    /// activity tracks IPC).
    pub fn power(&self, op: OperatingPoint, activity: Ratio) -> Watts {
        self.power_with_v2f(op.v2f(), activity)
    }

    /// Single-activity dynamic power with the island-constant `V²·f`
    /// product hoisted out by the caller. The gated activity is the same
    /// for every unit except the clock tree, so both factors are computed
    /// once. Each unit contributes `c · V²f · gate`, with `c · V²f` formed
    /// first: that product is activity-independent, so the lane path can
    /// compute it once per unit and stay bit-identical.
    pub fn power_with_v2f(&self, v2f: f64, activity: Ratio) -> Watts {
        let g = Self::gate(activity.value());
        let g_clock = Self::gate(1.0);
        let mut total = 0.0;
        for (i, c) in self.capacitance.iter().enumerate() {
            let g_u = if Unit::ALL[i] == Unit::ClockTree {
                g_clock
            } else {
                g
            };
            total += c * v2f * g_u;
        }
        Watts::new(total)
    }

    /// Lane-chunked [`Self::power_with_v2f`]: gated dynamic power for `L`
    /// cores, with the hoisted `V²·f` product shared by every lane or
    /// given per lane (see [`Lanes`]), and activities given as plain
    /// (already clamped or clampable) values.
    ///
    /// The unit loop is interchanged to the outside so each pass over the
    /// lanes is elementwise (LLVM vectorizes it), but every lane's
    /// accumulator still receives its 8 unit contributions in exactly the
    /// order [`Self::power_with_v2f`] adds them — interchange moves work
    /// between lanes, never reassociates within one — and each forms
    /// `c · V²f` before gating, as the scalar path associates it, so
    /// `out[l]` is bit-identical to the scalar call on lane `l`.
    pub fn power_with_v2f_lanes<const L: usize, V: Lanes<L>>(
        &self,
        v2f: V,
        activities: &[f64; L],
        out: &mut [f64; L],
    ) {
        let g_clock = Self::gate(1.0);
        let mut g = [0.0; L];
        for l in 0..L {
            g[l] = Self::gate(activities[l]);
        }
        let mut total = [0.0; L];
        for (i, c) in self.capacitance.iter().enumerate() {
            if Unit::ALL[i] == Unit::ClockTree {
                for (l, t) in total.iter_mut().enumerate() {
                    *t += c * v2f.lane(l) * g_clock;
                }
            } else {
                for l in 0..L {
                    total[l] += c * v2f.lane(l) * g[l];
                }
            }
        }
        *out = total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::DvfsTable;

    fn top() -> OperatingPoint {
        DvfsTable::pentium_m().max_point()
    }

    /// Dynamic power with per-unit activity factors (indexed as
    /// [`Unit::ALL`]); the clock tree's activity is pinned at 1.
    fn power_per_unit(
        m: &DynamicPowerModel,
        op: OperatingPoint,
        activities: &[Ratio; 8],
    ) -> [Watts; 8] {
        let v2f = op.v2f();
        let mut out = [Watts::ZERO; 8];
        for (i, (c, a)) in m.capacitance.iter().zip(activities).enumerate() {
            let act = if Unit::ALL[i] == Unit::ClockTree {
                1.0
            } else {
                a.value()
            };
            out[i] = Watts::new(c * v2f * DynamicPowerModel::gate(act));
        }
        out
    }

    #[test]
    fn peak_power_matches_calibration() {
        let m = DynamicPowerModel::paper_default();
        let p = m.power(top(), Ratio::ONE);
        // 2.5 nF · 1.34² · 2 GHz = 8.978 W
        assert!((p.value() - 8.978).abs() < 0.01, "peak {p}");
    }

    #[test]
    fn power_is_linear_in_activity() {
        // With V, f fixed: P(α) = base + slope·α — the linearity behind the
        // paper's Fig. 6 transducer.
        let m = DynamicPowerModel::paper_default();
        let p0 = m.power(top(), Ratio::ZERO).value();
        let p5 = m.power(top(), Ratio::new(0.5)).value();
        let p1 = m.power(top(), Ratio::ONE).value();
        assert!((p5 - 0.5 * (p0 + p1)).abs() < 1e-9);
        assert!(p0 > 0.0, "gating floor keeps idle power nonzero");
    }

    #[test]
    fn idle_power_is_gating_floor_plus_clock_tree() {
        let m = DynamicPowerModel::paper_default();
        let p0 = m.power(top(), Ratio::ZERO).value();
        let peak = m.power(top(), Ratio::ONE).value();
        // Idle = 10 % of all units + 90 % of the clock tree's 20 % share.
        let expect = peak * (0.10 + 0.90 * 0.20);
        assert!((p0 - expect).abs() < 1e-9);
    }

    #[test]
    fn cubic_scaling_across_dvfs_range() {
        // P ∝ V²f; across the Pentium-M table from 600 MHz to 2 GHz the
        // ratio should be (1.34² · 2000) / (0.988² · 600) ≈ 6.13 — the
        // super-linear (≈ f³ under scaled voltage) relation the GPM policy
        // assumes in Eq. 1.
        let m = DynamicPowerModel::paper_default();
        let t = DvfsTable::pentium_m();
        let peak = |op| m.power(op, Ratio::ONE).value();
        let ratio = peak(t.max_point()) / peak(t.min_point());
        assert!((ratio - 6.13).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn per_unit_breakdown_sums_to_total() {
        let m = DynamicPowerModel::paper_default();
        let acts = [Ratio::new(0.6); 8];
        let parts = power_per_unit(&m, top(), &acts);
        let total: Watts = parts.into_iter().sum();
        assert!((total.value() - m.power(top(), Ratio::new(0.6)).value()).abs() < 1e-12);
    }

    #[test]
    fn clock_tree_is_never_gated_below_full() {
        let m = DynamicPowerModel::paper_default();
        let idle = [Ratio::ZERO; 8];
        let parts = power_per_unit(&m, top(), &idle);
        let clock = parts[7].value();
        let peak_clock = power_per_unit(&m, top(), &[Ratio::ONE; 8])[7].value();
        assert!((clock - peak_clock).abs() < 1e-12);
    }

    #[test]
    fn activity_clamped_to_unit_interval() {
        let m = DynamicPowerModel::paper_default();
        assert_eq!(m.power(top(), Ratio::new(1.7)), m.power(top(), Ratio::ONE));
        assert_eq!(
            m.power(top(), Ratio::new(-0.3)),
            m.power(top(), Ratio::ZERO)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_capacitance_rejected() {
        DynamicPowerModel::with_total_capacitance(0.0);
    }
}
