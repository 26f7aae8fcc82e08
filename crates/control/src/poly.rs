//! Dense univariate polynomials over `f64`, stored with ascending
//! coefficients: `coeffs[k]` multiplies `x^k`.
//!
//! Polynomials are kept *trimmed* — the leading coefficient is nonzero
//! (except for the zero polynomial, represented as `[0.0]`) — so `degree()`
//! is always meaningful.

use crate::complex::Complex;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Tolerance below which a leading coefficient is considered zero.
const TRIM_EPS: f64 = 1e-300;

/// A dense polynomial `c₀ + c₁x + c₂x² + …`.
///
/// ```
/// use cpm_control::Polynomial;
///
/// // (x - 1)(x - 2) = x² - 3x + 2
/// let p = Polynomial::from_roots(&[1.0, 2.0]);
/// assert_eq!(p.coefficients(), &[2.0, -3.0, 1.0]);
/// assert_eq!(p.eval(1.0), 0.0);
/// assert_eq!(p.derivative().coefficients(), &[-3.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from ascending coefficients, trimming
    /// (exactly-)zero leading terms.
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut p = Self { coeffs };
        p.trim();
        p
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Self { coeffs: vec![0.0] }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: f64) -> Self {
        Self::new(vec![c])
    }

    /// The monomial `x`.
    pub fn x() -> Self {
        Self::new(vec![0.0, 1.0])
    }

    /// Builds the monic polynomial with the given real roots:
    /// `(x − r₁)(x − r₂)…`.
    pub fn from_roots(roots: &[f64]) -> Self {
        roots.iter().fold(Self::constant(1.0), |acc, &r| {
            acc * Self::new(vec![-r, 1.0])
        })
    }

    fn trim(&mut self) {
        while self.coeffs.len() > 1 {
            let last = *self.coeffs.last().unwrap();
            if last.abs() <= TRIM_EPS {
                self.coeffs.pop();
            } else {
                break;
            }
        }
        if self.coeffs.is_empty() {
            self.coeffs.push(0.0);
        }
    }

    /// Ascending coefficients (`[k]` multiplies `x^k`). Always non-empty.
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// The degree; 0 for constants (including the zero polynomial).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// True when this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.len() == 1 && self.coeffs[0] == 0.0
    }

    /// The coefficient of the highest-degree term.
    pub fn leading_coefficient(&self) -> f64 {
        *self.coeffs.last().unwrap()
    }

    /// Evaluates at a real point using Horner's rule.
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Evaluates at a complex point using Horner's rule.
    pub fn eval_complex(&self, z: Complex) -> Complex {
        self.coeffs
            .iter()
            .rev()
            .fold(Complex::ZERO, |acc, &c| acc * z + Complex::real(c))
    }

    /// The formal derivative.
    pub fn derivative(&self) -> Self {
        if self.coeffs.len() <= 1 {
            return Self::zero();
        }
        Self::new(
            self.coeffs
                .iter()
                .enumerate()
                .skip(1)
                .map(|(k, &c)| c * k as f64)
                .collect(),
        )
    }

    /// Multiplies every coefficient by `s`.
    pub fn scale(&self, s: f64) -> Self {
        Self::new(self.coeffs.iter().map(|&c| c * s).collect())
    }

    /// Returns the monic version (leading coefficient 1). Panics on the zero
    /// polynomial.
    pub fn monic(&self) -> Self {
        assert!(!self.is_zero(), "the zero polynomial cannot be made monic");
        self.scale(1.0 / self.leading_coefficient())
    }
}

impl Add for Polynomial {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        &self + &rhs
    }
}

impl Add for &Polynomial {
    type Output = Polynomial;
    fn add(self, rhs: Self) -> Polynomial {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = vec![0.0; n];
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.coeffs.get(k).copied().unwrap_or(0.0)
                + rhs.coeffs.get(k).copied().unwrap_or(0.0);
        }
        Polynomial::new(out)
    }
}

impl Sub for Polynomial {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        &self - &rhs
    }
}

impl Sub for &Polynomial {
    type Output = Polynomial;
    fn sub(self, rhs: Self) -> Polynomial {
        self + &(-rhs.clone())
    }
}

impl Neg for Polynomial {
    type Output = Self;
    fn neg(self) -> Self {
        self.scale(-1.0)
    }
}

impl Mul for Polynomial {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        &self * &rhs
    }
}

impl Mul for &Polynomial {
    type Output = Polynomial;
    fn mul(self, rhs: Self) -> Polynomial {
        if self.is_zero() || rhs.is_zero() {
            return Polynomial::zero();
        }
        let mut out = vec![0.0; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in rhs.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Polynomial::new(out)
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, &c) in self.coeffs.iter().enumerate().rev() {
            if c == 0.0 && self.degree() > 0 {
                continue;
            }
            if !first {
                write!(f, " {} ", if c < 0.0 { "-" } else { "+" })?;
            } else if c < 0.0 {
                write!(f, "-")?;
            }
            let a = c.abs();
            match k {
                0 => write!(f, "{a:.4}")?,
                1 => write!(f, "{a:.4}·z")?,
                _ => write!(f, "{a:.4}·z^{k}")?,
            }
            first = false;
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_trims_leading_zeros() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), 1);
        assert_eq!(p.coefficients(), &[1.0, 2.0]);
    }

    #[test]
    fn zero_polynomial_properties() {
        let z = Polynomial::zero();
        assert!(z.is_zero());
        assert_eq!(z.degree(), 0);
        assert_eq!(z.eval(17.0), 0.0);
        assert!(z.derivative().is_zero());
    }

    #[test]
    fn eval_horner() {
        // p(x) = 2 - 3x + x²; p(2) = 2 - 6 + 4 = 0, p(1) = 0
        let p = Polynomial::new(vec![2.0, -3.0, 1.0]);
        assert_eq!(p.eval(2.0), 0.0);
        assert_eq!(p.eval(1.0), 0.0);
        assert_eq!(p.eval(0.0), 2.0);
    }

    #[test]
    fn eval_complex_matches_real_on_real_axis() {
        let p = Polynomial::new(vec![1.0, -2.0, 0.5, 3.0]);
        for x in [-2.0, -0.5, 0.0, 1.3, 4.0] {
            let zr = p.eval_complex(Complex::real(x));
            assert!((zr.re - p.eval(x)).abs() < 1e-12);
            assert!(zr.im.abs() < 1e-12);
        }
    }

    #[test]
    fn add_sub_mul() {
        let a = Polynomial::new(vec![1.0, 1.0]); // 1 + x
        let b = Polynomial::new(vec![-1.0, 1.0]); // -1 + x
        let sum = &a + &b;
        assert_eq!(sum.coefficients(), &[0.0, 2.0]);
        let prod = &a * &b; // x² - 1
        assert_eq!(prod.coefficients(), &[-1.0, 0.0, 1.0]);
        let diff = &a - &b;
        assert_eq!(diff.coefficients(), &[2.0]);
    }

    #[test]
    fn cancellation_trims() {
        let a = Polynomial::new(vec![0.0, 0.0, 1.0]);
        let b = Polynomial::new(vec![1.0, 0.0, 1.0]);
        let d = &b - &a;
        assert_eq!(d.degree(), 0);
        assert_eq!(d.coefficients(), &[1.0]);
    }

    #[test]
    fn derivative_rule() {
        // d/dx (1 + 2x + 3x²) = 2 + 6x
        let p = Polynomial::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.derivative().coefficients(), &[2.0, 6.0]);
    }

    #[test]
    fn from_roots_expands() {
        // (x-1)(x-2) = x² - 3x + 2
        let p = Polynomial::from_roots(&[1.0, 2.0]);
        assert_eq!(p.coefficients(), &[2.0, -3.0, 1.0]);
        assert!(p.eval(1.0).abs() < 1e-12);
        assert!(p.eval(2.0).abs() < 1e-12);
    }

    #[test]
    fn monic_normalizes_leading_coefficient() {
        let p = Polynomial::new(vec![2.0, 4.0]).monic();
        assert_eq!(p.coefficients(), &[0.5, 1.0]);
    }

    #[test]
    fn display_is_readable() {
        let p = Polynomial::new(vec![0.237, -0.79, 0.869]);
        let s = p.to_string();
        assert!(s.contains("z^2"), "{s}");
    }
}
