//! Power modeling substrate: everything the paper obtained from Wattch
//! (dynamic power), HotLeakage (static power), and the Pentium-M datasheet
//! (DVFS operating points), rebuilt as analytic models.
//!
//! * [`dvfs`] — discrete V/F operating points (8 pairs, 600 MHz–2.0 GHz)
//!   with quantization and transition-overhead bookkeeping,
//! * [`dynamic`] — activity-based per-unit dynamic power `Σ αᵤ·Cᵤ·V²·f`
//!   with conditional clock gating (Wattch's cc3 style: idle units draw a
//!   fixed floor fraction),
//! * [`leakage`] — voltage- and temperature-sensitive static power with
//!   process-variation multipliers (HotLeakage's role),
//! * [`transducer`] — the PIC's sensor: an online linear regression from
//!   observed CPU utilization to island power (`P = k₀·U + k₁`, paper
//!   Fig. 6),
//! * [`variation`] — per-island leakage variation maps (§IV-B),
//! * [`energy`] — energy/EPI accounting used by the variation-aware policy.

pub mod dvfs;
pub mod dynamic;
pub mod energy;
pub mod leakage;
pub mod transducer;
pub mod variation;

pub use dvfs::{DvfsTable, OperatingPoint};
pub use dynamic::DynamicPowerModel;
pub use energy::EnergyAccount;
pub use leakage::LeakageModel;
pub use transducer::UtilizationPowerTransducer;
pub use variation::VariationMap;

use cpm_units::{Celsius, Ratio, Watts};

/// The island-constant factors of the per-core power model, hoisted once
/// per island per step by the chip stepper: every core in an island shares
/// one operating point, so the dynamic `V²·f` product and the leakage
/// voltage factor are the same for all of them. Both are computed by the
/// exact expressions the unhoisted paths use, so stepping through
/// [`CorePowerModel::total_power_with_terms`] is bit-identical to calling
/// [`CorePowerModel::total_power`] per core.
#[derive(Debug, Clone, Copy)]
pub struct IslandPowerTerms {
    /// `op.v2f()` — the dynamic-power voltage/frequency product.
    pub v2f: f64,
    /// [`LeakageModel::v_term`] at the island's supply voltage.
    pub leak_v_term: f64,
}

/// One input of the lane kernels: a single value every lane shares (an
/// island-constant term, which the kernels then hoist out of their lane
/// loops) or one value per lane (a chunk whose cores sit in different
/// islands). Either way lane `l` evaluates the same scalar expression.
pub trait Lanes<const L: usize>: Copy {
    /// The value of lane `l`.
    fn lane(&self, l: usize) -> f64;
}

impl<const L: usize> Lanes<L> for f64 {
    #[inline(always)]
    fn lane(&self, _: usize) -> f64 {
        *self
    }
}

impl<const L: usize> Lanes<L> for [f64; L] {
    #[inline(always)]
    fn lane(&self, l: usize) -> f64 {
        self[l]
    }
}

/// Complete per-core power model: dynamic + leakage.
#[derive(Debug, Clone)]
pub struct CorePowerModel {
    /// Dynamic (switching) power component.
    pub dynamic: DynamicPowerModel,
    /// Static (leakage) power component.
    pub leakage: LeakageModel,
}

impl CorePowerModel {
    /// The calibration used throughout the reproduction: a 90 nm-class core
    /// peaking at ≈ 9 W dynamic + ≈ 2.4 W leakage at the top operating
    /// point, matching the paper's Table I technology point.
    pub fn paper_default() -> Self {
        Self {
            dynamic: DynamicPowerModel::paper_default(),
            leakage: LeakageModel::paper_default(),
        }
    }

    /// Total core power at operating point `op`, with average activity
    /// `activity`, die temperature `temp`, and leakage process-variation
    /// multiplier `leak_mult`.
    pub fn total_power(
        &self,
        op: OperatingPoint,
        activity: Ratio,
        temp: Celsius,
        leak_mult: f64,
    ) -> Watts {
        self.total_power_with_terms(self.island_terms(op), activity, temp, leak_mult)
    }

    /// Precomputes the island-constant factors for `op` (see
    /// [`IslandPowerTerms`]).
    #[inline]
    pub fn island_terms(&self, op: OperatingPoint) -> IslandPowerTerms {
        IslandPowerTerms {
            v2f: op.v2f(),
            leak_v_term: self.leakage.v_term(op.voltage),
        }
    }

    /// [`Self::total_power`] with the island-constant factors hoisted out;
    /// bit-identical given `terms = island_terms(op)`.
    pub fn total_power_with_terms(
        &self,
        terms: IslandPowerTerms,
        activity: Ratio,
        temp: Celsius,
        leak_mult: f64,
    ) -> Watts {
        self.dynamic.power_with_v2f(terms.v2f, activity)
            + self
                .leakage
                .power_with_v_term(terms.leak_v_term, temp, leak_mult)
    }

    /// Lane-chunked [`Self::total_power_with_terms`]: total power for `L`
    /// cores, with the island terms and leakage multiplier shared by every
    /// lane or given per lane (see [`Lanes`]), activities as plain clamped
    /// values and temperatures in °C.
    ///
    /// Composes the dynamic lane pass
    /// ([`DynamicPowerModel::power_with_v2f_lanes`]) with the leakage lane
    /// pass ([`LeakageModel::power_with_v_term_lanes`]) and sums per lane
    /// in the scalar order (dynamic + leakage), so `out[l]` is
    /// bit-identical to the scalar call on lane `l`.
    pub fn total_power_with_terms_lanes<const L: usize, T: Lanes<L>>(
        &self,
        v2f: T,
        leak_v_term: T,
        activities: &[f64; L],
        temps_deg: &[f64; L],
        leak_mult: T,
        out: &mut [Watts; L],
    ) {
        let mut dynamic = [0.0; L];
        self.dynamic
            .power_with_v2f_lanes(v2f, activities, &mut dynamic);
        let mut leak = [0.0; L];
        self.leakage
            .power_with_v_term_lanes(leak_v_term, temps_deg, leak_mult, &mut leak);
        for l in 0..L {
            out[l] = Watts::new(dynamic[l] + leak[l]);
        }
    }

    /// The maximum power this core can draw: top operating point, full
    /// activity, hottest plausible die temperature, given variation
    /// multiplier. This is the per-core contribution to the "maximum chip
    /// power" basis in which the paper expresses all percentages.
    pub fn max_power(&self, table: &DvfsTable, leak_mult: f64) -> Watts {
        self.total_power(
            table.max_point(),
            Ratio::ONE,
            LeakageModel::HOT_REFERENCE,
            leak_mult,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_core_peaks_near_11_5_watts() {
        let m = CorePowerModel::paper_default();
        let p = m.max_power(&DvfsTable::pentium_m(), 1.0);
        assert!(
            p.value() > 10.0 && p.value() < 13.0,
            "max core power {p} outside the calibrated 10–13 W band"
        );
    }

    #[test]
    fn power_monotone_in_activity_and_frequency() {
        let m = CorePowerModel::paper_default();
        let t = DvfsTable::pentium_m();
        let temp = Celsius::new(60.0);
        let lo = m.total_power(t.point(0), Ratio::new(0.4), temp, 1.0);
        let hi_act = m.total_power(t.point(0), Ratio::new(0.9), temp, 1.0);
        let hi_freq = m.total_power(t.point(5), Ratio::new(0.4), temp, 1.0);
        assert!(hi_act > lo);
        assert!(hi_freq > lo);
    }

    #[test]
    fn lane_kernel_is_bit_identical_to_scalar_total_power() {
        // The vectorizable lane pass must reproduce the scalar path to the
        // last bit at every operating point, including out-of-range
        // activities (the gate clamp is part of the contract), with the
        // terms shared by every lane (a chunk inside one island) and with
        // every lane at its own operating point and multiplier (a chunk
        // that spans islands).
        let m = CorePowerModel::paper_default();
        let table = DvfsTable::pentium_m();
        let activities = [0.0, 0.17, 0.5, 0.93, 1.0, 1.4, -0.2, 0.61];
        let temps = [45.0, 52.5, 60.0, 71.25, 85.0, 96.0, 47.3, 64.8];
        let check = |out: [Watts; 8], terms: [IslandPowerTerms; 8], leak_mult: [f64; 8]| {
            for l in 0..8 {
                let scalar = m.total_power_with_terms(
                    terms[l],
                    Ratio::new(activities[l]),
                    Celsius::new(temps[l]),
                    leak_mult[l],
                );
                assert_eq!(
                    out[l].value().to_bits(),
                    scalar.value().to_bits(),
                    "lane {l}"
                );
            }
        };
        for shift in 0..table.len() {
            let terms: [IslandPowerTerms; 8] =
                std::array::from_fn(|l| m.island_terms(table.point((l + shift) % table.len())));
            let leak_mult: [f64; 8] =
                std::array::from_fn(|l| [1.0, 1.2, 1.5, 2.0][(l + shift) % 4]);
            let mut out = [Watts::ZERO; 8];
            let (v2f, v_term) = (terms.map(|t| t.v2f), terms.map(|t| t.leak_v_term));
            m.total_power_with_terms_lanes(v2f, v_term, &activities, &temps, leak_mult, &mut out);
            check(out, terms, leak_mult);
            let (t, mult) = (terms[0], leak_mult[0]);
            m.total_power_with_terms_lanes(
                t.v2f,
                t.leak_v_term,
                &activities,
                &temps,
                mult,
                &mut out,
            );
            check(out, [t; 8], [mult; 8]);
        }
    }

    #[test]
    fn variation_multiplier_only_scales_leakage() {
        let m = CorePowerModel::paper_default();
        let t = DvfsTable::pentium_m();
        let temp = Celsius::new(60.0);
        let base = m.total_power(t.point(3), Ratio::new(0.5), temp, 1.0);
        let leaky = m.total_power(t.point(3), Ratio::new(0.5), temp, 2.0);
        let leak = m.leakage.power(t.point(3).voltage, temp, 1.0);
        assert!((leaky.value() - base.value() - leak.value()).abs() < 1e-9);
    }
}
