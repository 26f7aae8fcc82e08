//! Deterministic, autovectorizable `sin`/`exp` kernels.
//!
//! Every chip step evaluates one `sin` per core (the workload phase term,
//! in `PhaseBank::advance_into`'s chunk pass) and one `exp` per core
//! (leakage, in the `cpm-power` lane kernels). Through libm those would
//! be serial calls that LLVM cannot vectorize, with bit patterns that
//! depend on the host's libm version — which is exactly what the
//! scenario goldens pin. This crate supplies both as repo-owned kernels
//! that are:
//!
//! * **deterministic across platforms**: pure f64 arithmetic (every
//!   operation IEEE-754-exactly specified, no FMA contraction in Rust),
//!   so the same input produces the same bits on every host, and
//! * **autovectorizable**: no data-dependent branches anywhere in the
//!   hot region — quadrant selection and overflow saturation are bit
//!   masks and clamps, not `if`s — so the `LANES`-chunked variants
//!   compile to SIMD exactly like the arithmetic passes they sit between.
//!
//! # Range reduction (Cody–Waite)
//!
//! Both kernels start by writing the argument as `x = n·C + r` with `n`
//! integral and `|r|` small, where `C` is `π/2` (sin) or `ln 2` (exp).
//! `n` is extracted branch-free with the *magic-shift* trick: for
//! `|t| < 2^51`, `(t + 1.5·2^52) - 1.5·2^52` rounds `t` to the nearest
//! integer using nothing but two additions, and the low mantissa bits of
//! the shifted sum *are* that integer in two's complement — so the
//! quadrant `n mod 4` falls out of `to_bits()` with no float→int cast.
//!
//! The remainder `r = x − n·C` would lose everything to cancellation if
//! `C` were a single f64, so `C` is split into chunks with zeroed low
//! mantissa bits (`n·C_hi` is then *exact* for the magnitudes the chunk
//! widths admit) and subtracted chunk by chunk — three refinement steps
//! for `π/2` (the fdlibm schedule, yielding a double-double `y0 + y1`
//! remainder), one hi/lo pair for `ln 2`. Chunked subtraction keeps the
//! remainder accurate to well below one ulp out to `|x| ≈ 1e8`, far past
//! the simulator's operating domains (phase arguments reach ~1e4 over
//! the longest scenarios; leakage exponents stay within ±1).
//!
//! # Polynomial kernels
//!
//! On the reduced interval the functions are approximated by fixed-degree
//! minimax polynomials (the classic fdlibm coefficient sets, whose kernel
//! error is < 2⁻⁵⁷): degree-13 odd for `sin`, degree-14 even for `cos`
//! (both quadrant halves are always evaluated, then blended by mask), and
//! the degree-5 rational form for `exp`. Every polynomial runs in one
//! fixed Horner order — no early exits, no special-case branches — which
//! is what lets LLVM turn the lane loops into packed multiplies.
//!
//! The observed accuracy, enforced by the property sweeps in
//! `tests/accuracy.rs`, is ≤ 1 ulp against the host libm across all
//! operating domains (the acceptance bound is 2 ulp), with edge cases
//! (±0, subnormals, saturation, ±inf, NaN) matching libm exactly.
//!
//! # Scalar/lane bit-identity by construction
//!
//! [`sin_lanes`]/[`exp_lanes`] do not re-derive the math: each lane
//! applies the *same* `#[inline(always)]` per-element helpers
//! ([`sin_det`]/[`exp_det`] are those helpers applied to one element), in
//! the same evaluation order, over `[f64; L]` stack arrays. Since every
//! f64 operation is exactly specified and lanes never interact, the lane
//! result is bit-identical to `L` scalar calls — structurally, not by
//! testing luck (the tests pin it anyway). The hot paths call the lane
//! forms on their own `LANES`-wide stack chunks; the slice drivers
//! [`sin_into`]/[`exp_into`] chunk a whole column through the lane
//! kernels with a scalar tail, preserving the same guarantee at any
//! length (the `experiments perf` kernel rows and the accuracy sweeps
//! use them).
//!
//! # What this crate is *not*
//!
//! Not a libm. Only the two functions the hot paths need are
//! deterministic kernels; everything else the codebase wants
//! (`ln`, `powf`, `cos` in cold paths, accuracy baselines) goes through
//! [`reference`](mod@reference), which wraps the host libm and is the
//! *only* sanctioned
//! way to call it outside this crate (the `math-scope` lint rule
//! enforces that).

#![allow(clippy::excessive_precision)] // why: coefficients transcribed verbatim from the published fdlibm tables; trimming digits invites transcription error

pub mod reference;

/// Lane width of the chunked drivers ([`sin_into`]/[`exp_into`]) and of
/// `PhaseBank::advance_into`'s chunk pass: eight f64 lanes = two 4-wide
/// (AVX2) or four 2-wide (SSE2/NEON) vectors — the same width as every
/// other lane kernel in the workspace.
pub const LANES: usize = 8;

/// `1.5·2^52`: adding then subtracting this rounds to the nearest
/// integer (ties to even) for `|t| < 2^51`, and leaves that integer in
/// the low mantissa bits of the shifted sum.
const SHIFT: f64 = 6755399441055744.0;

// ---------------------------------------------------------------------
// sin
// ---------------------------------------------------------------------

// The reduction constants are decimal literals (const `f64::from_bits`
// needs Rust 1.83; MSRV is 1.75) — each is the shortest roundtrip form
// of an exact bit pattern, pinned to those bits by `constant_bits` in
// the test module below.

/// `2/π`, correctly rounded (bits `0x3FE45F306DC9C883`).
const TWO_OVER_PI: f64 = std::f64::consts::FRAC_2_PI;
/// `π/2` split into four chunks with zeroed low mantissa bits, so
/// `n·PIO2_k` is exact for the `n` magnitudes the reduction admits.
/// `PIO2_1 + PIO2_2 + PIO2_3 + PIO2_3T ≈ π/2` to ~130 significant bits.
/// Bits: `0x3FF921FB50000000`, `0x3E5110B460000000`, `0x3C91A62630000000`,
/// `0x3AE8A2E03707344A`.
const PIO2_1: f64 = 1.5707963109016418;
const PIO2_2: f64 = 1.5893254712295857e-08;
const PIO2_3: f64 = 6.123233932053594e-17;
const PIO2_3T: f64 = 6.36831716351095e-25;

/// Minimax coefficients for `sin(x)/x` on `|x| ≤ π/4` (the fdlibm
/// `__kernel_sin` set; kernel error < 2⁻⁵⁷·⁷).
const S1: f64 = -1.66666666666666324348e-01;
const S2: f64 = 8.33333333332248946124e-03;
const S3: f64 = -1.98412698298579493134e-04;
const S4: f64 = 2.75573137070700676789e-06;
const S5: f64 = -2.50507602534068634195e-08;
const S6: f64 = 1.58969099521155010221e-10;

/// Minimax coefficients for `cos` on `|x| ≤ π/4` (the fdlibm
/// `__kernel_cos` set).
const C1: f64 = 4.16666666666666019037e-02;
const C2: f64 = -1.38888888888741095749e-03;
const C3: f64 = 2.48015872894767294178e-05;
const C4: f64 = -2.75573143513906633035e-07;
const C5: f64 = 2.08757232129817482790e-09;
const C6: f64 = -1.13596475577881948265e-11;

/// Branch-free `x = n·(π/2) + (y0 + y1)`: the double-double remainder
/// and the raw bits of the magic-shifted quotient (whose low two bits
/// are `n mod 4`, two's-complement, so negative `n` needs no special
/// case).
#[inline(always)]
fn reduce_pio2(x: f64) -> (f64, f64, u64) {
    let big = x * TWO_OVER_PI + SHIFT;
    let q = big.to_bits();
    let n = big - SHIFT;
    // Chunked subtraction: r0 is exact cancellation (n·PIO2_1 carries
    // no rounding for reachable n), then two refinement steps fold in
    // the lower chunks, tracking the error term of each subtraction.
    let r0 = x - n * PIO2_1;
    let w1 = n * PIO2_2;
    let r1 = r0 - w1;
    let w2 = n * PIO2_3;
    let r2 = r1 - w2;
    let w3 = n * PIO2_3T - ((r1 - r2) - w2);
    let y0 = r2 - w3;
    let y1 = (r2 - y0) - w3;
    (y0, y1, q)
}

/// `sin(y0 + y1)` for `|y0| ≤ π/4` — the fdlibm kernel expression, which
/// folds the reduction tail `y1` in at first order so huge-argument
/// results keep sub-ulp accuracy.
#[inline(always)]
fn ksin(x: f64, y: f64) -> f64 {
    let z = x * x;
    let v = z * x;
    let r = S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)));
    x - ((z * (0.5 * y - v * r) - y) - v * S1)
}

/// `cos(y0 + y1)` for `|y0| ≤ π/4` — the fdlibm kernel expression; the
/// `1 − z/2` head is computed in two pieces so its rounding error is
/// reinstated alongside the polynomial tail.
#[inline(always)]
fn kcos(x: f64, y: f64) -> f64 {
    let z = x * x;
    let r = z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6)))));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

/// Quadrant blend, branch-free: bit `0` of `q` picks cos over sin, bit
/// `1` flips the sign — `sin(x) = ±[sin|cos](r)` by quadrant. Masks and
/// xors only, so the lane loop stays a straight-line SIMD body.
#[inline(always)]
fn combine(s: f64, c: f64, q: u64) -> f64 {
    let m = (q & 1).wrapping_neg();
    let picked = (s.to_bits() & !m) | (c.to_bits() & m);
    f64::from_bits(picked ^ ((q & 2) << 62))
}

/// Deterministic `sin(x)`.
///
/// Bit-identical on every platform (pure f64 arithmetic, fixed
/// evaluation order) and to the corresponding lane of [`sin_lanes`] /
/// [`sin_into`] (same inlined per-element expressions). Accuracy is
/// ≤ 1 observed ulp against libm for `|x| ≲ 1e8`; `±0` and subnormals
/// are exact, non-finite inputs return NaN as libm does.
#[inline]
pub fn sin_det(x: f64) -> f64 {
    let (y0, y1, q) = reduce_pio2(x);
    combine(ksin(y0, y1), kcos(y0, y1), q)
}

/// Lane-chunked [`sin_det`]: `out[l] = sin_det(xs[l])`, bit-identical by
/// construction, structured as elementwise passes over stack arrays so
/// LLVM autovectorizes the whole body (reduction, both kernels, blend).
pub fn sin_lanes<const L: usize>(xs: &[f64; L], out: &mut [f64; L]) {
    let mut y0 = [0.0; L];
    let mut y1 = [0.0; L];
    let mut q = [0u64; L];
    for l in 0..L {
        let (a, b, c) = reduce_pio2(xs[l]);
        y0[l] = a;
        y1[l] = b;
        q[l] = c;
    }
    let mut s = [0.0; L];
    let mut c = [0.0; L];
    for l in 0..L {
        s[l] = ksin(y0[l], y1[l]);
        c[l] = kcos(y0[l], y1[l]);
    }
    for l in 0..L {
        out[l] = combine(s[l], c[l], q[l]);
    }
}

/// Column driver: `out[i] = sin_det(xs[i])` over whole slices, chunked
/// through [`sin_lanes`] with a scalar tail. Entry `i` is bit-identical
/// to the scalar call regardless of where the chunk boundary falls.
pub fn sin_into(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "one output slot per input");
    let mut base = 0;
    while base + LANES <= xs.len() {
        let x: &[f64; LANES] = xs[base..base + LANES].try_into().unwrap();
        let o: &mut [f64; LANES] = (&mut out[base..base + LANES]).try_into().unwrap();
        sin_lanes(x, o);
        base += LANES;
    }
    for i in base..xs.len() {
        out[i] = sin_det(xs[i]);
    }
}

// ---------------------------------------------------------------------
// exp
// ---------------------------------------------------------------------

/// `1/ln 2`, correctly rounded (bits `0x3FF71547652B82FE`; decimal
/// literals for the same MSRV reason as the sin constants).
const INV_LN2: f64 = std::f64::consts::LOG2_E;
/// `ln 2` split hi/lo: `LN2_HI` has 26 zeroed low mantissa bits, so
/// `n·LN2_HI` is exact for every reachable `n` (|n| ≤ 1075).
/// Bits: `0x3FE62E42F8000000`, `0x3E4BE8E7BCD5E4F2`.
const LN2_HI: f64 = 0.6931471675634384;
const LN2_LO: f64 = 1.2996506893889889e-08;

/// Minimax coefficients of the fdlibm `exp` rational kernel on
/// `|r| ≤ ln(2)/2`.
const P1: f64 = 1.66666666666666019037e-01;
const P2: f64 = -2.77777777770155933842e-03;
const P3: f64 = 6.61375632143793436117e-05;
const P4: f64 = -1.65339022054652515390e-06;
const P5: f64 = 4.13813679705723846039e-08;

/// The shared per-element `exp` body (see [`exp_det`] for the contract).
#[inline(always)]
fn exp_elem(x: f64) -> f64 {
    // Saturate outside the finite range: exp(709.9) already overflows
    // to +inf and exp(-745.2) underflows past the smallest subnormal,
    // so clamping changes no finite result — it only keeps `n` inside
    // the magic-shift window with no data-dependent branch. NaN passes
    // through `clamp` untouched.
    let x = x.clamp(-745.2, 709.9);
    let big = x * INV_LN2 + SHIFT;
    let n = big - SHIFT;
    // r = x − n·ln2, hi/lo-chunked like the sin reduction; `lo` is kept
    // separate so the kernel can reinstate it at full precision.
    let hi = x - n * LN2_HI;
    let lo = n * LN2_LO;
    let r = hi - lo;
    // fdlibm rational kernel: exp(r) = 1 + r + r·c/(2−c) with c a
    // degree-5 polynomial in r² — shorter than the Taylor chain that
    // reaches the same sub-ulp kernel error.
    let t = r * r;
    let c = r - t * (P1 + t * (P2 + t * (P3 + t * (P4 + t * P5))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    // Scale by 2^n as *two* exact power-of-two factors: n clamps to the
    // normal-exponent range and the remainder goes into a second
    // factor, so results degrade gracefully through the subnormal range
    // down to 0 and up to +inf — no branches, no integer shifts (the
    // exponent bits come from the same magic-shift trick, which SSE2
    // can vectorize; an i64 arithmetic shift cannot).
    let nf1 = n.clamp(-1022.0, 1023.0);
    let nf2 = n - nf1;
    let s1 = f64::from_bits(((nf1 + SHIFT).to_bits().wrapping_add(1023) & 0x7FF) << 52);
    let s2 = f64::from_bits(((nf2 + SHIFT).to_bits().wrapping_add(1023) & 0x7FF) << 52);
    (y * s1) * s2
}

/// Deterministic `exp(x)`.
///
/// Bit-identical on every platform and to the corresponding lane of
/// [`exp_lanes`] / [`exp_into`]. Accuracy is ≤ 1 observed ulp against
/// libm over the finite range; overflow saturates to `+inf`, underflow
/// to `0` through the subnormals, exactly where libm saturates, and NaN
/// propagates.
#[inline]
pub fn exp_det(x: f64) -> f64 {
    exp_elem(x)
}

/// Lane-chunked [`exp_det`]: `out[l] = exp_det(xs[l])`, bit-identical by
/// construction (the body is branch-free, so the loop vectorizes whole).
pub fn exp_lanes<const L: usize>(xs: &[f64; L], out: &mut [f64; L]) {
    for l in 0..L {
        out[l] = exp_elem(xs[l]);
    }
}

/// Column driver: `out[i] = exp_det(xs[i])` over whole slices, chunked
/// through [`exp_lanes`] with a scalar tail (same guarantee as
/// [`sin_into`]).
pub fn exp_into(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "one output slot per input");
    let mut base = 0;
    while base + LANES <= xs.len() {
        let x: &[f64; LANES] = xs[base..base + LANES].try_into().unwrap();
        let o: &mut [f64; LANES] = (&mut out[base..base + LANES]).try_into().unwrap();
        exp_lanes(x, o);
        base += LANES;
    }
    for i in base..xs.len() {
        out[i] = exp_elem(xs[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_bits() {
        // The reduction constants are written as shortest-roundtrip
        // decimal literals (MSRV: const `f64::from_bits` needs 1.83);
        // this pins each literal to the exact bit pattern the kernels
        // were derived for.
        assert_eq!(TWO_OVER_PI.to_bits(), 0x3FE45F306DC9C883);
        assert_eq!(PIO2_1.to_bits(), 0x3FF921FB50000000);
        assert_eq!(PIO2_2.to_bits(), 0x3E5110B460000000);
        assert_eq!(PIO2_3.to_bits(), 0x3C91A62630000000);
        assert_eq!(PIO2_3T.to_bits(), 0x3AE8A2E03707344A);
        assert_eq!(INV_LN2.to_bits(), 0x3FF71547652B82FE);
        assert_eq!(LN2_HI.to_bits(), 0x3FE62E42F8000000);
        assert_eq!(LN2_LO.to_bits(), 0x3E4BE8E7BCD5E4F2);
    }

    #[test]
    fn sin_edge_cases_match_libm_bitwise() {
        for x in [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            1e-9,
            0.5,
            std::f64::consts::FRAC_PI_2,
            std::f64::consts::PI,
            std::f64::consts::TAU,
        ] {
            assert_eq!(
                sin_det(x).to_bits(),
                x.sin().to_bits(),
                "sin_det({x:e}) must match libm exactly"
            );
        }
        assert!(sin_det(f64::NAN).is_nan());
        assert!(sin_det(f64::INFINITY).is_nan());
        assert!(sin_det(f64::NEG_INFINITY).is_nan());
    }

    #[test]
    fn sin_preserves_signed_zero() {
        assert_eq!(sin_det(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(sin_det(0.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn exp_saturation_matches_libm() {
        // Overflow: +inf from the first argument libm overflows at.
        assert_eq!(exp_det(710.0), f64::INFINITY);
        assert_eq!(exp_det(1e9), f64::INFINITY);
        assert_eq!(exp_det(f64::INFINITY), f64::INFINITY);
        // Underflow: through the subnormals to exact zero.
        assert_eq!(exp_det(-745.0).to_bits(), (-745.0f64).exp().to_bits());
        assert_eq!(exp_det(-745.0), 5e-324);
        assert_eq!(exp_det(-746.0), 0.0);
        assert_eq!(exp_det(-1e9), 0.0);
        assert_eq!(exp_det(f64::NEG_INFINITY), 0.0);
        // Identity points.
        assert_eq!(exp_det(0.0), 1.0);
        assert_eq!(exp_det(-0.0), 1.0);
        assert!(exp_det(f64::NAN).is_nan());
    }

    #[test]
    fn lane_kernels_are_bit_identical_to_scalars() {
        // A handful of awkward points through the array path; the dense
        // randomized agreement sweep lives in tests/accuracy.rs.
        let xs = [
            -0.0,
            1.0e8,
            -3.9,
            std::f64::consts::PI,
            707.0,
            -745.1,
            f64::NAN,
            0.3,
        ];
        let mut out = [0.0; 8];
        sin_lanes(&xs, &mut out);
        for l in 0..8 {
            assert_eq!(out[l].to_bits(), sin_det(xs[l]).to_bits(), "sin lane {l}");
        }
        exp_lanes(&xs, &mut out);
        for l in 0..8 {
            assert_eq!(out[l].to_bits(), exp_det(xs[l]).to_bits(), "exp lane {l}");
        }
    }

    #[test]
    fn slice_drivers_match_scalars_at_non_lane_multiple_lengths() {
        for n in [0usize, 1, 5, 7, 8, 9, 13, 16, 33] {
            let xs: Vec<f64> = (0..n).map(|i| (i as f64) * 0.7 - 2.0).collect();
            let mut out = vec![0.0; n];
            sin_into(&xs, &mut out);
            for i in 0..n {
                assert_eq!(
                    out[i].to_bits(),
                    sin_det(xs[i]).to_bits(),
                    "sin[{i}] of {n}"
                );
            }
            exp_into(&xs, &mut out);
            for i in 0..n {
                assert_eq!(
                    out[i].to_bits(),
                    exp_det(xs[i]).to_bits(),
                    "exp[{i}] of {n}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output slot per input")]
    fn sin_into_rejects_length_mismatch() {
        sin_into(&[1.0, 2.0], &mut [0.0]);
    }

    #[test]
    #[should_panic(expected = "one output slot per input")]
    fn exp_into_rejects_length_mismatch() {
        exp_into(&[1.0], &mut []);
    }

    #[test]
    fn reference_wrappers_are_the_host_libm() {
        assert_eq!(reference::sin(0.7).to_bits(), 0.7f64.sin().to_bits());
        assert_eq!(reference::cos(0.7).to_bits(), 0.7f64.cos().to_bits());
        assert_eq!(reference::exp(0.7).to_bits(), 0.7f64.exp().to_bits());
        assert_eq!(reference::ln(0.7).to_bits(), 0.7f64.ln().to_bits());
        assert_eq!(
            reference::powf(0.7, 1.3).to_bits(),
            0.7f64.powf(1.3).to_bits()
        );
    }
}
