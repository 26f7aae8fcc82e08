//! The sanctioned gateway to the host libm.
//!
//! Cold paths (controller gain schedules, policy utility curves, the
//! Gaussian tail in `cpm-rng`) and the accuracy baselines still want the
//! host's transcendentals — they either never touch a golden trajectory
//! or exist precisely to *measure* the deterministic kernels against
//! libm. Routing them through this module keeps the `math-scope` rule
//! simple: a bare `.sin()`/`.exp()`/`.ln()`/`.powf()` in non-test code
//! outside this crate is always a violation (clippy's
//! `disallowed_methods`, from the root `clippy.toml`), and the handful
//! of legitimate libm uses are greppable as `reference::` calls.
//!
//! Nothing here is deterministic across platforms. Do not let a value
//! produced by this module reach a golden digest.

/// Host-libm `sin`. Cold paths and accuracy baselines only.
#[inline]
pub fn sin(x: f64) -> f64 {
    x.sin()
}

/// Host-libm `cos`. Cold paths and accuracy baselines only.
#[inline]
pub fn cos(x: f64) -> f64 {
    x.cos()
}

/// Host-libm `exp`. Cold paths and accuracy baselines only.
#[inline]
pub fn exp(x: f64) -> f64 {
    x.exp()
}

/// Host-libm `ln`. Cold paths and accuracy baselines only.
#[inline]
pub fn ln(x: f64) -> f64 {
    x.ln()
}

/// Host-libm `powf`. Cold paths and accuracy baselines only.
#[inline]
pub fn powf(x: f64, y: f64) -> f64 {
    x.powf(y)
}
