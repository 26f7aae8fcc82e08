//! A prober that panics while holding a calibration memo lock must not
//! wedge the process: the caches are only ever mutated by whole-entry
//! inserts of finished values, so later lookups recover the poisoned lock
//! and keep serving bit-identical results.

use cpm_sim::{calibration, CmpConfig};
use cpm_workloads::parsec;

#[test]
fn poisoned_private_memo_recovers_and_stays_bit_identical() {
    let cache = CmpConfig::paper_default().cache;
    let profile = parsec::blackscholes();

    let before = calibration::calibrate(&profile, &cache, 7);
    calibration::poison_memo_caches_for_tests();
    // The poisoned lock must be recovered, the cached entry must survive,
    // and the value must still equal the memo-free path exactly.
    let after = calibration::calibrate(&profile, &cache, 7);
    assert_eq!(before, after, "cache entry lost or corrupted by poisoning");
    let direct = calibration::calibrate_uncached(&profile, &cache, 7);
    assert_eq!(after, direct, "post-poison lookup != memo-free path");
}
