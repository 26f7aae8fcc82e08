//! Property-based tests for the simulator substrate, on the in-tree
//! `cpm_rng::check` harness.

use cpm_rng::check;
use cpm_sim::cache::Cache;
use cpm_sim::stats::TimeSeries;
use cpm_units::Seconds;

#[test]
fn cache_accounting_is_exact() {
    check::forall_cases("cache accounting", 64, |rng| {
        let addrs = check::vec_u64(rng, 1_000_000, 1, 2000);
        let mut c = Cache::new(16 * 1024, 2, 64);
        for &a in &addrs {
            c.access(a);
        }
        assert_eq!(c.hits() + c.misses(), addrs.len() as u64);
    });
}

#[test]
fn cache_is_deterministic() {
    check::forall_cases("cache determinism", 64, |rng| {
        let addrs = check::vec_u64(rng, 100_000, 1, 500);
        let mut a = Cache::new(4096, 4, 64);
        let mut b = Cache::new(4096, 4, 64);
        for &addr in &addrs {
            assert_eq!(a.access(addr), b.access(addr));
        }
    });
}

#[test]
fn resident_set_always_hits_after_warmup() {
    check::forall_cases("resident set hits", 64, |rng| {
        // 32 distinct lines over 128 sets: each line maps to its own set,
        // so after one touch everything hits.
        let lines = check::vec_u64(rng, 32, 1, 200);
        let mut c = Cache::new(16 * 1024, 2, 64);
        for l in 0u64..32 {
            c.access(l * 64);
        }
        c.reset_stats();
        for &l in &lines {
            c.access(l * 64);
        }
        assert_eq!(c.misses(), 0);
    });
}

#[test]
fn timeseries_mean_bounded_by_min_max() {
    check::forall_cases("timeseries mean bounds", 64, |rng| {
        let vals = check::vec_f64(rng, -100.0, 100.0, 1, 200);
        let ts: TimeSeries = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (Seconds::from_ms(i as f64), v))
            .collect();
        let mean = ts.mean().unwrap();
        assert!(mean >= ts.min().unwrap() - 1e-9);
        assert!(mean <= ts.max().unwrap() + 1e-9);
    });
}

#[test]
fn chunk_averaging_preserves_the_mean_on_exact_multiples() {
    check::forall_cases("chunk averaging mean", 64, |rng| {
        let vals = check::vec_f64(rng, -50.0, 50.0, 4, 40);
        let chunk = rng.usize_in(2, 4);
        let n = (vals.len() / chunk) * chunk;
        if n == 0 {
            return;
        }
        let ts: TimeSeries = vals[..n]
            .iter()
            .enumerate()
            .map(|(i, &v)| (Seconds::from_ms(i as f64), v))
            .collect();
        let avg = ts.averaged_chunks(chunk);
        assert!((avg.mean().unwrap() - ts.mean().unwrap()).abs() < 1e-9);
    });
}
