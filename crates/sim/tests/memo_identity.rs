//! The calibration memo cache must be *bit-identical* to recomputation.
//!
//! The sweep's byte-determinism gate (workers=1 vs workers=4 stdout diff)
//! only survives memoization if a cached value is indistinguishable from a
//! fresh computation down to the last bit — `MeasuredRates` is compared
//! with `f64 ==` throughout, so any divergence fails these tests exactly.

use cpm_sim::{calibration, CmpConfig};
use cpm_workloads::parsec;

#[test]
fn memoized_calibration_is_bit_identical_for_every_parsec_profile() {
    let cache = CmpConfig::paper_default().cache;
    for profile in parsec::all() {
        // First call may hit or miss depending on what else ran in this
        // process — either way the contract is the same: the returned
        // value equals the memo-free path exactly.
        let memoized = calibration::calibrate(&profile, &cache, 99);
        let direct = calibration::calibrate_uncached(&profile, &cache, 99);
        assert_eq!(memoized, direct, "{}: memo != direct", profile.name);
        // Second call is a guaranteed cache hit; still bit-identical.
        let again = calibration::calibrate(&profile, &cache, 99);
        assert_eq!(again, direct, "{}: cached != direct", profile.name);
    }
}
