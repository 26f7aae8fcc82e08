//! Least-squares system identification.
//!
//! Two estimators back the paper's modeling steps:
//!
//! * [`fit_gain_through_origin`] — the first-order plant gain `aᵢ` in
//!   `ΔP = aᵢ·d` (paper Eq. 8), fit per workload and averaged over the
//!   PARSEC suite (the paper obtains `a = 0.79`);
//! * [`LinearRegression`] — ordinary least squares `y = k₀·x + k₁` with R²,
//!   used for the utilization→power transducer models of Fig. 6
//!   (avg R² ≈ 0.96).

/// Result of an ordinary least-squares line fit `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope (`k₀` in the paper's transducer `P = k₀·U + k₁`).
    pub slope: f64,
    /// Fitted intercept (`k₁`).
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (1 = perfect fit).
    pub r_squared: f64,
    /// Number of samples used.
    pub n: usize,
}

impl LinearFit {
    /// Evaluates the fitted line at `x`.
    #[inline]
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Incremental ordinary least-squares accumulator for `y = slope·x +
/// intercept`.
///
/// Samples can be streamed in one at a time (the transducer calibrates
/// online while the simulation runs) and the fit extracted at any point
/// after two or more distinct x-values have been seen.
#[derive(Debug, Clone, Default)]
pub struct LinearRegression {
    n: usize,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_xy: f64,
    sum_yy: f64,
}

impl LinearRegression {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `(x, y)` observation.
    pub fn add(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sum_x += x;
        self.sum_y += y;
        self.sum_xx += x * x;
        self.sum_xy += x * y;
        self.sum_yy += y * y;
    }

    /// Number of observations so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Computes the fit. Returns `None` with fewer than 2 samples or when
    /// all x-values coincide (vertical line).
    pub fn fit(&self) -> Option<LinearFit> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let sxx = self.sum_xx - self.sum_x * self.sum_x / n;
        if sxx <= 0.0 {
            return None;
        }
        let sxy = self.sum_xy - self.sum_x * self.sum_y / n;
        let syy = self.sum_yy - self.sum_y * self.sum_y / n;
        let slope = sxy / sxx;
        let intercept = (self.sum_y - slope * self.sum_x) / n;
        let r_squared = if syy <= 0.0 {
            // All y equal: a horizontal line explains everything.
            1.0
        } else {
            (sxy * sxy / (sxx * syy)).clamp(0.0, 1.0)
        };
        Some(LinearFit {
            slope,
            intercept,
            r_squared,
            n: self.n,
        })
    }
}

/// Result of a quadratic least-squares fit `y = a·x² + b·x + c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadraticFit {
    /// Quadratic coefficient.
    pub a: f64,
    /// Linear coefficient.
    pub b: f64,
    /// Constant term.
    pub c: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
    /// Number of samples used.
    pub n: usize,
}

impl QuadraticFit {
    /// Evaluates the fitted parabola at `x`.
    #[inline]
    pub fn predict(&self, x: f64) -> f64 {
        (self.a * x + self.b) * x + self.c
    }
}

/// Incremental least-squares accumulator for `y = a·x² + b·x + c`.
///
/// Solves the 3×3 normal equations by Gaussian elimination with partial
/// pivoting; adequate for the well-scaled (x ∈ [0, 1]) transducer
/// calibration data it exists for.
#[derive(Debug, Clone, Default)]
pub struct QuadraticRegression {
    n: usize,
    sx: [f64; 5], // Σx⁰ … Σx⁴
    sy: f64,
    sxy: f64,
    sx2y: f64,
    syy: f64,
}

impl QuadraticRegression {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `(x, y)` observation.
    pub fn add(&mut self, x: f64, y: f64) {
        self.n += 1;
        let mut xp = 1.0;
        for s in self.sx.iter_mut() {
            *s += xp;
            xp *= x;
        }
        self.sy += y;
        self.sxy += x * y;
        self.sx2y += x * x * y;
        self.syy += y * y;
    }

    /// Number of observations so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Computes the fit. Returns `None` with fewer than 3 samples or a
    /// singular design (e.g. all x equal).
    pub fn fit(&self) -> Option<QuadraticFit> {
        if self.n < 3 {
            return None;
        }
        // Normal equations, unknowns ordered [c, b, a].
        let mut m = [
            [self.sx[0], self.sx[1], self.sx[2], self.sy],
            [self.sx[1], self.sx[2], self.sx[3], self.sxy],
            [self.sx[2], self.sx[3], self.sx[4], self.sx2y],
        ];
        // Gaussian elimination with partial pivoting.
        for col in 0..3 {
            let pivot =
                (col..3).max_by(|&i, &j| m[i][col].abs().partial_cmp(&m[j][col].abs()).unwrap())?;
            if m[pivot][col].abs() < 1e-12 {
                return None;
            }
            m.swap(col, pivot);
            for row in 0..3 {
                if row != col {
                    let f = m[row][col] / m[col][col];
                    let pivot_row = m[col];
                    for (k, cell) in m[row].iter_mut().enumerate().skip(col) {
                        *cell -= f * pivot_row[k];
                    }
                }
            }
        }
        let c = m[0][3] / m[0][0];
        let b = m[1][3] / m[1][1];
        let a = m[2][3] / m[2][2];
        // R² from residual sum of squares.
        let n = self.n as f64;
        let syy_c = self.syy - self.sy * self.sy / n;
        let ss_res = (self.syy - 2.0 * (c * self.sy + b * self.sxy + a * self.sx2y)
            + c * c * self.sx[0]
            + 2.0 * c * b * self.sx[1]
            + (b * b + 2.0 * c * a) * self.sx[2]
            + 2.0 * b * a * self.sx[3]
            + a * a * self.sx[4])
            .max(0.0);
        let r_squared = if syy_c <= 0.0 {
            1.0
        } else {
            (1.0 - ss_res / syy_c).clamp(0.0, 1.0)
        };
        Some(QuadraticFit {
            a,
            b,
            c,
            r_squared,
            n: self.n,
        })
    }
}

/// Fits `y = a·x` (no intercept) by least squares: `a = Σxy / Σx²`.
///
/// Returns `None` when fewer than one sample has nonzero `x`. This is the
/// estimator for the plant gain `aᵢ` of Eq. 8, where both `ΔP` and the
/// frequency delta `d` are zero-mean by construction so the origin is the
/// physically correct anchor.
pub fn fit_gain_through_origin(samples: &[(f64, f64)]) -> Option<f64> {
    let (sxy, sxx) = samples
        .iter()
        .fold((0.0, 0.0), |(sxy, sxx), &(x, y)| (sxy + x * y, sxx + x * x));
    if sxx <= 0.0 {
        None
    } else {
        Some(sxy / sxx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let mut reg = LinearRegression::new();
        for i in 0..10 {
            let x = i as f64;
            reg.add(x, 3.0 * x + 1.5);
        }
        let fit = reg.fit().unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept - 1.5).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(fit.n, 10);
    }

    #[test]
    fn noisy_line_fit_is_close_with_high_r2() {
        // Deterministic pseudo-noise.
        let mut reg = LinearRegression::new();
        for i in 0..200 {
            let x = i as f64 / 10.0;
            let noise = ((i * 2654435761u64) % 1000) as f64 / 1000.0 - 0.5;
            reg.add(x, 2.0 * x + 5.0 + noise * 0.2);
        }
        let fit = reg.fit().unwrap();
        assert!((fit.slope - 2.0).abs() < 0.02);
        assert!((fit.intercept - 5.0).abs() < 0.2);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn too_few_samples() {
        let mut reg = LinearRegression::new();
        assert!(reg.fit().is_none());
        reg.add(1.0, 1.0);
        assert!(reg.fit().is_none());
        reg.add(2.0, 2.0);
        assert!(reg.fit().is_some());
    }

    #[test]
    fn vertical_data_has_no_fit() {
        let mut reg = LinearRegression::new();
        reg.add(1.0, 1.0);
        reg.add(1.0, 5.0);
        assert!(reg.fit().is_none());
    }

    #[test]
    fn horizontal_data_fits_perfectly() {
        let mut reg = LinearRegression::new();
        for i in 0..5 {
            reg.add(i as f64, 7.0);
        }
        let fit = reg.fit().unwrap();
        assert_eq!(fit.slope, 0.0);
        assert!((fit.intercept - 7.0).abs() < 1e-12);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn quadratic_recovers_exact_parabola() {
        let mut q = QuadraticRegression::new();
        for i in 0..20 {
            let x = i as f64 / 10.0;
            q.add(x, 2.0 * x * x - 3.0 * x + 0.5);
        }
        let f = q.fit().unwrap();
        assert!((f.a - 2.0).abs() < 1e-9, "a={}", f.a);
        assert!((f.b + 3.0).abs() < 1e-9);
        assert!((f.c - 0.5).abs() < 1e-9);
        assert!((f.r_squared - 1.0).abs() < 1e-9);
        assert!((f.predict(0.7) - (2.0 * 0.49 - 2.1 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn quadratic_fits_line_with_zero_curvature() {
        let mut q = QuadraticRegression::new();
        for i in 0..10 {
            let x = i as f64;
            q.add(x, 4.0 * x + 1.0);
        }
        let f = q.fit().unwrap();
        assert!(f.a.abs() < 1e-9);
        assert!((f.b - 4.0).abs() < 1e-9);
        assert!((f.c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quadratic_outfits_linear_on_convex_data() {
        // The transducer motivation: P(U) convex under voltage scaling.
        let mut lin = LinearRegression::new();
        let mut quad = QuadraticRegression::new();
        for i in 0..50 {
            let x = i as f64 / 50.0;
            let y = 5.0 + 10.0 * x + 12.0 * x * x;
            lin.add(x, y);
            quad.add(x, y);
        }
        let lf = lin.fit().unwrap();
        let qf = quad.fit().unwrap();
        assert!(qf.r_squared > lf.r_squared);
        assert!(qf.r_squared > 0.999);
    }

    #[test]
    fn quadratic_needs_three_samples_and_spread() {
        let mut q = QuadraticRegression::new();
        q.add(1.0, 1.0);
        q.add(2.0, 2.0);
        assert!(q.fit().is_none());
        let mut flat = QuadraticRegression::new();
        for _ in 0..5 {
            flat.add(1.0, 2.0);
        }
        assert!(flat.fit().is_none(), "singular design must be rejected");
    }

    #[test]
    fn gain_through_origin_exact() {
        let samples: Vec<(f64, f64)> = (1..20)
            .map(|i| (i as f64 * 0.1, i as f64 * 0.079))
            .collect();
        let a = fit_gain_through_origin(&samples).unwrap();
        assert!((a - 0.79).abs() < 1e-12);
    }

    #[test]
    fn gain_through_origin_handles_mixed_signs() {
        // d(t) alternates sign, as it does under white-noise DVFS wiggling.
        let samples = [(-1.0, -0.8), (1.0, 0.78), (-0.5, -0.4), (0.5, 0.41)];
        let a = fit_gain_through_origin(&samples).unwrap();
        assert!((a - 0.79).abs() < 0.05, "a = {a}");
    }

    #[test]
    fn gain_requires_nonzero_inputs() {
        assert!(fit_gain_through_origin(&[]).is_none());
        assert!(fit_gain_through_origin(&[(0.0, 1.0), (0.0, -1.0)]).is_none());
    }
}
