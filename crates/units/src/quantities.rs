//! Scalar physical quantities as `f64` newtypes.
//!
//! A small macro generates the shared boilerplate (construction, accessors,
//! same-unit addition/subtraction, scaling by a dimensionless factor,
//! comparisons). Cross-unit operations that correspond to real physics
//! (`Watts * Seconds = Joules`, `Joules / Seconds = Watts`, …) are written
//! out explicitly below.

//! ```
//! use cpm_units::{Watts, Seconds, Hertz};
//!
//! // Dimensional arithmetic: power × time = energy.
//! let energy = Watts::new(10.0) * Seconds::from_ms(100.0);
//! assert!((energy.value() - 1.0).abs() < 1e-12);
//! // Cycles elapsed in one millisecond at 2 GHz.
//! assert_eq!(Hertz::from_ghz(2.0).cycles_in(Seconds::from_ms(1.0)), 2.0e6);
//! ```
//!
//! Mixing dimensions is a compile error, so no separate pass checks it.
//! Adding a voltage to a power:
//!
//! ```compile_fail
//! use cpm_units::{Volts, Watts};
//! let _ = Watts::new(10.0) + Volts::new(1.1);
//! ```
//!
//! comparing a power with a voltage:
//!
//! ```compile_fail
//! use cpm_units::{Volts, Watts};
//! let _ = Watts::new(10.0) > Volts::new(1.1);
//! ```
//!
//! and squaring a temperature (°C² is no quantity):
//!
//! ```compile_fail
//! use cpm_units::Celsius;
//! let t = Celsius::new(80.0);
//! let _ = t * t;
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw `f64` value expressed in the base unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the base unit.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps `self` into `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// True when the underlying value is finite (not NaN/inf).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Dimensionless ratio of two like quantities.
            #[inline]
            pub fn ratio_of(self, denom: Self) -> f64 {
                self.0 / denom.0
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }
    };
}

quantity!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
quantity!(
    /// Electric potential in volts.
    Volts,
    "V"
);
quantity!(
    /// Power in watts.
    Watts,
    "W"
);
quantity!(
    /// Energy in joules.
    Joules,
    "J"
);
quantity!(
    /// Time in seconds.
    Seconds,
    "s"
);
quantity!(
    /// Temperature in degrees Celsius.
    ///
    /// The thermal model works entirely in temperature *differences* above
    /// ambient plus an ambient offset, so Celsius (rather than Kelvin) keeps
    /// the values human-readable without affecting the physics.
    Celsius,
    "°C"
);

impl Hertz {
    /// Constructs a frequency from a megahertz value.
    #[inline]
    pub const fn from_mhz(mhz: f64) -> Self {
        Self::new(mhz * 1.0e6)
    }

    /// Constructs a frequency from a gigahertz value.
    #[inline]
    pub const fn from_ghz(ghz: f64) -> Self {
        Self::new(ghz * 1.0e9)
    }

    /// The value expressed in megahertz.
    #[inline]
    pub fn mhz(self) -> f64 {
        self.value() / 1.0e6
    }

    /// The value expressed in gigahertz.
    #[inline]
    pub fn ghz(self) -> f64 {
        self.value() / 1.0e9
    }

    /// Number of clock cycles elapsed in `dt` at this frequency.
    #[inline]
    pub fn cycles_in(self, dt: Seconds) -> f64 {
        self.value() * dt.value()
    }

    /// Duration of one clock period.
    #[inline]
    pub fn period(self) -> Seconds {
        Seconds::new(1.0 / self.value())
    }
}

impl Seconds {
    /// Constructs a duration from milliseconds.
    #[inline]
    pub const fn from_ms(ms: f64) -> Self {
        Self::new(ms * 1.0e-3)
    }

    /// Constructs a duration from microseconds.
    #[inline]
    pub const fn from_us(us: f64) -> Self {
        Self::new(us * 1.0e-6)
    }

    /// The value expressed in milliseconds.
    #[inline]
    pub fn ms(self) -> f64 {
        self.value() * 1.0e3
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    /// Energy = power × time.
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.value() * rhs.value())
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    /// Average power = energy / time.
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.value() / rhs.value())
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    /// Time a power draw can be sustained from an energy store.
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds::new(self.value() / rhs.value())
    }
}

/// A dimensionless ratio, always stored as a plain fraction (1.0 == 100 %).
///
/// Used for utilization, activity factors, and budget fractions. The
/// constructor does not clamp — callers that need a bounded value (e.g. CPU
/// utilization) use [`Ratio::clamped`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Ratio(f64);

impl Ratio {
    /// 0 %.
    pub const ZERO: Self = Self(0.0);
    /// 100 %.
    pub const ONE: Self = Self(1.0);

    /// Wraps a plain fraction.
    #[inline]
    pub const fn new(fraction: f64) -> Self {
        Self(fraction)
    }

    /// Constructs from a percentage value (e.g. `Ratio::from_percent(80.0)`).
    #[inline]
    pub const fn from_percent(percent: f64) -> Self {
        Self(percent / 100.0)
    }

    /// The underlying fraction.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The value expressed as a percentage.
    #[inline]
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Clamps into `[0, 1]`.
    #[inline]
    pub fn clamped(self) -> Self {
        Self(self.0.clamp(0.0, 1.0))
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}%", self.percent())
    }
}

impl Add for Ratio {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sub for Ratio {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl Mul<f64> for Ratio {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Mul<Watts> for Ratio {
    type Output = Watts;
    /// A fraction of a power value.
    #[inline]
    fn mul(self, rhs: Watts) -> Watts {
        rhs * self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sub_same_unit() {
        let a = Watts::new(3.0) + Watts::new(4.5);
        assert_eq!(a, Watts::new(7.5));
        assert_eq!(a - Watts::new(0.5), Watts::new(7.0));
    }

    #[test]
    fn scaling_by_dimensionless() {
        assert_eq!(Hertz::from_mhz(100.0) * 2.0, Hertz::from_mhz(200.0));
        assert_eq!(2.0 * Volts::new(1.1), Volts::new(2.2));
        assert_eq!(Joules::new(8.0) / 2.0, Joules::new(4.0));
    }

    #[test]
    fn like_division_is_dimensionless() {
        let r: f64 = Watts::new(40.0) / Watts::new(80.0);
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn power_time_energy_roundtrip() {
        let e = Watts::new(10.0) * Seconds::from_ms(100.0);
        assert!((e.value() - 1.0).abs() < 1e-12);
        let p = e / Seconds::from_ms(100.0);
        assert!((p.value() - 10.0).abs() < 1e-12);
        let t = e / Watts::new(10.0);
        assert!((t.value() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn frequency_conversions() {
        let f = Hertz::from_ghz(2.0);
        assert!((f.mhz() - 2000.0).abs() < 1e-9);
        assert!((f.ghz() - 2.0).abs() < 1e-12);
        assert!((f.cycles_in(Seconds::from_ms(1.0)) - 2.0e6).abs() < 1.0);
        assert!((f.period().value() - 0.5e-9).abs() < 1e-21);
    }

    #[test]
    fn ratio_percent_roundtrip() {
        let r = Ratio::from_percent(80.0);
        assert!((r.value() - 0.8).abs() < 1e-12);
        assert!((r.percent() - 80.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_clamping() {
        assert_eq!(Ratio::new(1.7).clamped(), Ratio::ONE);
        assert_eq!(Ratio::new(-0.3).clamped(), Ratio::ZERO);
        assert_eq!(Ratio::new(0.42).clamped(), Ratio::new(0.42));
    }

    #[test]
    fn ratio_of_power() {
        let p = Ratio::from_percent(50.0) * Watts::new(80.0);
        assert_eq!(p, Watts::new(40.0));
    }

    #[test]
    fn min_max_clamp() {
        let a = Seconds::new(1.0);
        let b = Seconds::new(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Seconds::new(5.0).clamp(a, b), b);
        assert_eq!(Seconds::new(0.5).clamp(a, b), a);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Watts = [1.0, 2.0, 3.0].iter().map(|&w| Watts::new(w)).sum();
        assert_eq!(total, Watts::new(6.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Watts::new(2.5)), "2.5 W");
        assert_eq!(format!("{}", Ratio::from_percent(12.5)), "12.50%");
    }

    #[test]
    fn neg_and_abs() {
        let e = Watts::new(3.0) - Watts::new(5.0);
        assert_eq!(e, Watts::new(-2.0));
        assert_eq!(e.abs(), Watts::new(2.0));
        assert_eq!(-e, Watts::new(2.0));
    }
}
