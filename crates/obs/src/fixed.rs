//! Fixed-precision decimal rendering straight into a caller's byte
//! buffer.
//!
//! Every number in an exported artifact (JSONL, Chrome, CSV, health and
//! metrics JSON) is printed with a fixed count of decimals, and the
//! scenario goldens pin those bytes. [`push_fixed`] renders exactly what
//! `format!("{x:.prec$}")` renders, without the formatting machinery or
//! a temporary `String`: the value is scaled exactly in integers and
//! rounded half to even, which is what `std` does.
//!
//! An f64 is `m · 2^e` with a 53-bit integer mantissa `m`. When `e ≤ 0`
//! (every |x| < 2^53) the integer part is `m >> -e` and the fraction is
//! `f / 2^-e` with `f = m mod 2^-e`, so the `prec` decimals are
//! `f · 10^prec / 2^-e` rounded half to even — one `u128` product (below
//! 2^53 · 10^17 < 2^110) and one shift. A carry out of the fraction moves
//! into the integer part. The six decimals every event real carries are
//! three independent two-digit table lookups. Larger magnitudes, longer
//! precisions and non-finite values go to `std`, the only path that
//! serves them, written into the same buffer.
//!
//! The renderers append bytes to a `Vec<u8>` and never check UTF-8 per
//! number: everything they append is ASCII digits or the bytes of a
//! `&str`, so the buffer is valid UTF-8 by construction, and
//! [`into_text`] checks it once per document.

use std::io::Write as _;

/// Longest precision the exact path serves; longer ones go to `std`.
const MAX_PREC: usize = 17;

/// Scratch length for one number: a sign, up to 20 integer digits, `.`
/// and `MAX_PREC` decimals.
const BUF: usize = 40;

/// `10^k` for `k ≤ MAX_PREC`.
const POW10: [u64; MAX_PREC + 1] = {
    let mut t = [1u64; MAX_PREC + 1];
    let mut k = 1;
    while k <= MAX_PREC {
        t[k] = t[k - 1] * 10;
        k += 1;
    }
    t
};

/// Appends `x` with `prec` decimals, byte for byte as
/// `format!("{x:.prec$}")` would render it.
pub(crate) fn push_fixed(out: &mut Vec<u8>, x: f64, prec: usize) {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    let (m, e) = if biased == 0 {
        (frac, -1074)
    } else {
        (frac | (1u64 << 52), biased - 1075)
    };
    if biased == 0x7ff || e > 0 || prec > MAX_PREC {
        let _ = write!(out, "{x:.prec$}");
        return;
    }
    let shift = e.unsigned_abs();
    let (mut int, f) = if shift < 64 {
        (m >> shift, m & ((1u64 << shift) - 1))
    } else {
        (0, m)
    };
    let scale = POW10[prec];
    // `f · 10^prec` is below 2^110, so a shift of 128 or more leaves a
    // quotient of 0 and a remainder under half: the decimals round to 0.
    let mut dec = 0u64;
    if shift > 0 && shift < 128 {
        let p = u128::from(f) * u128::from(scale);
        let q = (p >> shift) as u64;
        let r = p & ((1u128 << shift) - 1);
        let half = 1u128 << (shift - 1);
        let last = if prec == 0 { int } else { q };
        dec = q + u64::from(r > half || (r == half && last & 1 == 1));
    }
    if prec == 0 {
        int += dec;
    } else if dec == scale {
        int += 1;
        dec = 0;
    }
    // Sign, integer digits, `.` and decimals go into one stack buffer,
    // right to left, and reach `out` in one append.
    let mut buf = [b'0'; BUF];
    let mut i = BUF;
    if prec == 6 {
        // `dec < 10^6`: three lookups that do not wait on each other.
        let d = dec as usize;
        buf[BUF - 6..BUF - 4].copy_from_slice(pair(d / 10_000));
        buf[BUF - 4..BUF - 2].copy_from_slice(pair(d / 100 % 100));
        buf[BUF - 2..].copy_from_slice(pair(d % 100));
        i = BUF - 7;
        buf[i] = b'.';
    } else if prec > 0 {
        i = put_digits(&mut buf, i, dec, prec) - 1;
        buf[i] = b'.';
    }
    i = put_digits(&mut buf, i, int, 1);
    if bits >> 63 == 1 {
        i -= 1;
        buf[i] = b'-';
    }
    out.extend_from_slice(&buf[i..]);
}

/// Appends `x` with `prec` decimals; non-finite values render as `0.0`
/// so the output stays valid JSON.
pub(crate) fn push_num(out: &mut Vec<u8>, x: f64, prec: usize) {
    if x.is_finite() {
        push_fixed(out, x, prec);
    } else {
        out.extend_from_slice(b"0.0");
    }
}

/// An artifact number: `x` with `prec` decimals, byte for byte as
/// `format!("{x:.prec$}")` renders it, and `0.0` for non-finite values so
/// the output stays valid JSON.
pub fn json_num(x: f64, prec: usize) -> String {
    let mut s = Vec::with_capacity(16);
    push_num(&mut s, x, prec);
    into_text(s)
}

/// Appends the decimal digits of `v`.
pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [b'0'; BUF];
    let i = put_digits(&mut buf, BUF, v, 1);
    out.extend_from_slice(&buf[i..]);
}

/// A rendered document as text: the one UTF-8 check of its bytes.
///
/// The renderers append only ASCII and the bytes of `&str`s, so the check
/// always passes; were a renderer to break that, the lossy decoding keeps
/// the document readable, with U+FFFD marking the bad bytes, instead of
/// failing the export.
pub(crate) fn into_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// `"00" "01" … "99"`: two digits per table lookup halves the dependent
/// divisions.
const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// The two digits of `v < 100`.
fn pair(v: usize) -> &'static [u8] {
    &PAIRS[2 * v..2 * v + 2]
}

/// Writes the decimal digits of `v` into `buf` so that they end at `end`,
/// zero-padded to at least `width` (the bytes before `end` must be
/// `b'0'`), and returns where they start.
fn put_digits(buf: &mut [u8; BUF], end: usize, mut v: u64, width: usize) -> usize {
    let mut i = end;
    while v >= 100 {
        i -= 2;
        buf[i..i + 2].copy_from_slice(pair((v % 100) as usize));
        v /= 100;
    }
    if v >= 10 {
        i -= 2;
        buf[i..i + 2].copy_from_slice(pair(v as usize));
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    i.min(end - width)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(x: f64, prec: usize) -> String {
        let mut s = Vec::new();
        push_fixed(&mut s, x, prec);
        into_text(s)
    }

    fn assert_same(x: f64) {
        for prec in [0, 1, 3, 6, 9, MAX_PREC, MAX_PREC + 1] {
            assert_eq!(
                fixed(x, prec),
                format!("{x:.prec$}"),
                "x = {x:e} (bits {:#018x}), prec {prec}",
                x.to_bits()
            );
        }
    }

    /// SplitMix64: a seeded stream local to the sweep, so the crate keeps
    /// its zero dependencies.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draw `i` of the sweep: alternately a random bit pattern (every
    /// exponent, subnormals and non-finite values included) and a value
    /// at the magnitudes the exporters print (watts, seconds, µs, small
    /// PID terms), sometimes on an exact 3- or 6-decimal tie.
    fn draw(state: &mut u64, i: u64) -> f64 {
        let r = splitmix(state);
        match i % 4 {
            0 => f64::from_bits(r),
            1 => {
                let mag = (r >> 11) as f64 / (1u64 << 53) as f64;
                let exp = (splitmix(state) % 40) as i32 - 20;
                let x = mag * 10f64.powi(exp);
                if r & 1 == 1 {
                    -x
                } else {
                    x
                }
            }
            2 => {
                // k + 1/2 ulp of the last printed digit: an exact tie
                // whenever it is representable.
                let k = (r % 2_000_000_000) as f64 - 1e9;
                let prec = if r & (1 << 40) == 0 { 3 } else { 6 };
                (k + 0.5) / 10f64.powi(prec)
            }
            _ => (r % 1_000_000_000) as f64 / 2f64.powi((splitmix(state) % 64) as i32),
        }
    }

    fn sweep(seed: u64, n: u64) {
        let mut state = seed;
        let mut a = Vec::new();
        for i in 0..n {
            let x = draw(&mut state, i);
            for prec in [3, 6] {
                a.clear();
                push_fixed(&mut a, x, prec);
                assert_eq!(
                    a,
                    format!("{x:.prec$}").as_bytes(),
                    "x = {x:e}, prec {prec}, draw {i}"
                );
            }
        }
    }

    #[test]
    fn edge_cases_match_std() {
        let two53 = 9_007_199_254_740_992.0_f64;
        for x in [
            0.0,
            -0.0,
            -1e-9,
            1e-9,
            0.5,
            1.5,
            2.5,
            -2.5,
            0.0005,
            0.0015,
            0.0025,
            0.125,
            0.375,
            0.0000005,
            0.0000015,
            0.0000025,
            0.1234565,
            999_999.999_999_5,
            999.9995,
            9.9999995,
            1e15,
            -1e15,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            -(two53 + 2.0),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_same(x);
        }
        assert_eq!(fixed(-1e-9, 6), "-0.000000");
        // Exact binary ties at the third decimal go to the even digit.
        assert_eq!(fixed(0.0625, 3), "0.062");
        assert_eq!(fixed(0.1875, 3), "0.188");
    }

    #[test]
    fn exact_ties_round_half_to_even() {
        // k/2^10 has at most ten decimals, so the k/1024 grid holds exact
        // 3-decimal ties (k·1000/1024 with remainder 512) and ties deep
        // in the 6-decimal range.
        for k in 0..=4096u32 {
            assert_same(f64::from(k) / 1024.0);
            assert_same(-f64::from(k) / 1024.0);
            assert_same(f64::from(k) / 2_097_152.0 + 1.0);
        }
    }

    #[test]
    fn num_renders_non_finite_as_zero() {
        assert_eq!(json_num(f64::NAN, 6), "0.0");
        assert_eq!(json_num(f64::NEG_INFINITY, 6), "0.0");
        assert_eq!(json_num(-0.042_187_5, 6), "-0.042188");
    }

    #[test]
    fn json_num_at_precision_three() {
        assert_eq!(json_num(1234.5, 3), "1234.500");
        assert_eq!(json_num(0.0625, 3), "0.062");
        assert_eq!(json_num(-2.0, 3), "-2.000");
        assert_eq!(json_num(f64::INFINITY, 3), "0.0");
        assert_eq!(json_num(f64::NAN, 3), "0.0");
        for x in [0.0005, 1e-9, 17.25, 98_765.432_1] {
            assert_eq!(json_num(x, 3), format!("{x:.3}"));
        }
    }

    #[test]
    fn integers_render_in_full() {
        for v in [0, 7, 10, 99, 100, 1_152_921_508_901_814_272, u64::MAX] {
            let mut s = Vec::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string().as_bytes());
        }
    }

    #[test]
    fn seeded_sweep_matches_std() {
        sweep(0x5EED_F1E1D, 100_000);
    }

    /// The 10 M-value sweep, run in release by CI
    /// (`cargo test --release -p cpm-obs -- --ignored`).
    #[test]
    #[ignore = "10 M values; run in release"]
    fn large_seeded_sweep_matches_std() {
        sweep(0xC0FF_EE00_D15C_0DE5, 10_000_000);
    }
}
