//! A small deterministic property-test harness.
//!
//! The workspace's replacement for `proptest`: each property runs a fixed
//! number of cases, every case gets its own [`Xoshiro256pp`] child stream
//! (so failures reproduce exactly from the printed case index), and the
//! property body draws its inputs from that stream with the generator
//! helpers on the RNG itself.
//!
//! ```
//! use cpm_rng::check;
//!
//! check::forall("abs is nonnegative", |rng| {
//!     let x = rng.f64_in(-100.0, 100.0);
//!     assert!(x.abs() >= 0.0);
//! });
//! ```
//!
//! Assertion failures panic with the case index in the payload, so a
//! failing run prints `property 'name' failed at case k` and rerunning is
//! bit-identical — no shrink files, no persistence, no flakes.

use crate::Xoshiro256pp;

/// Default number of cases per property.
pub const DEFAULT_CASES: usize = 256;

/// Root seed for all properties; fixed so CI and local runs agree.
pub const ROOT_SEED: u64 = 0xC0FF_EE00_BEEF_CAFE;

/// Runs `body` for [`DEFAULT_CASES`] deterministic cases.
pub fn forall(name: &str, body: impl Fn(&mut Xoshiro256pp)) {
    forall_cases(name, DEFAULT_CASES, body);
}

/// Runs `body` for `cases` deterministic cases, each on its own stream.
#[allow(clippy::panic)] // the harness reports a failing case by panicking with it
pub fn forall_cases(name: &str, cases: usize, body: impl Fn(&mut Xoshiro256pp)) {
    // Fold the property name into the seed so two properties in one test
    // binary never see identical input streams.
    let name_hash = name
        .bytes()
        .fold(ROOT_SEED, |h, b| crate::SplitMix64::mix(h ^ b as u64));
    for case in 0..cases {
        let mut rng = Xoshiro256pp::child(name_hash, case as u64);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            let detail = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property '{name}' failed at case {case}/{cases}: {detail}");
        }
    }
}

/// Draws a `Vec<f64>` with length in `[min_len, max_len)` and elements in
/// `[lo, hi)` — the most common proptest strategy in the old suites.
pub fn vec_f64(
    rng: &mut Xoshiro256pp,
    lo: f64,
    hi: f64,
    min_len: usize,
    max_len: usize,
) -> Vec<f64> {
    let n = rng.usize_in(min_len, max_len);
    (0..n).map(|_| rng.f64_in(lo, hi)).collect()
}

/// Draws a `Vec<u64>` with length in `[min_len, max_len)` and elements in
/// `[0, below)`.
pub fn vec_u64(rng: &mut Xoshiro256pp, below: u64, min_len: usize, max_len: usize) -> Vec<u64> {
    let n = rng.usize_in(min_len, max_len);
    (0..n).map(|_| rng.below(below)).collect()
}

/// Picks one element of a slice.
pub fn pick<'a, T>(rng: &mut Xoshiro256pp, options: &'a [T]) -> &'a T {
    &options[rng.usize_in(0, options.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forall_runs_every_case() {
        let count = std::cell::Cell::new(0usize);
        forall_cases("counting", 37, |_| count.set(count.get() + 1));
        assert_eq!(count.get(), 37);
    }

    #[test]
    fn cases_see_distinct_inputs() {
        let seen = std::cell::RefCell::new(std::collections::HashSet::new());
        forall_cases("distinct", 64, |rng| {
            assert!(seen.borrow_mut().insert(rng.next_u64()));
        });
    }

    #[test]
    fn failures_carry_the_case_index() {
        let err = std::panic::catch_unwind(|| {
            forall_cases("always-fails", 8, |_| panic!("boom"));
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("failed at case 0/8"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn same_property_name_reruns_identically() {
        let a = std::cell::RefCell::new(Vec::new());
        forall_cases("stable-stream", 16, |rng| {
            a.borrow_mut().push(rng.next_u64())
        });
        let b = std::cell::RefCell::new(Vec::new());
        forall_cases("stable-stream", 16, |rng| {
            b.borrow_mut().push(rng.next_u64())
        });
        assert_eq!(*a.borrow(), *b.borrow());
    }

    #[test]
    fn vec_helpers_respect_bounds() {
        forall_cases("vec-bounds", 64, |rng| {
            let v = vec_f64(rng, -2.0, 3.0, 1, 17);
            assert!((1..17).contains(&v.len()));
            assert!(v.iter().all(|&x| (-2.0..3.0).contains(&x)));
            let u = vec_u64(rng, 10, 2, 5);
            assert!((2..5).contains(&u.len()));
            assert!(u.iter().all(|&x| x < 10));
        });
    }
}
