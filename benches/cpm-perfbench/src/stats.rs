//! Order statistics over op timings.
//!
//! The benchmark gates on low order statistics of many small ops (see
//! `NOTES.md`): the fastest op of a run, the median op, and — for the
//! `scenarios` workload, whose catalogue entries differ in size by 25× —
//! each statistic taken per entry and summed over one catalogue pass.

/// The smallest sample. Panics on an empty slice: every statistic the
/// benchmark reports is taken over at least one op.
pub fn min(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "min of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median, averaging the two middle samples of an even count (the
/// convention of Python's `statistics.median`).
pub fn p50(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// `stat` taken over each entry's samples, summed over the entries — the
/// cost of one pass in which every entry runs once.
pub fn sum_per_entry(entries: &[Vec<f64>], stat: fn(&[f64]) -> f64) -> f64 {
    entries.iter().map(|xs| stat(xs)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_median_of_known_inputs() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(p50(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(p50(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(p50(&[7.0]), 7.0);
    }

    #[test]
    fn per_entry_sums_take_the_statistic_per_entry() {
        let entries = vec![vec![2.0, 1.0, 3.0], vec![10.0, 30.0]];
        assert_eq!(sum_per_entry(&entries, min), 11.0);
        assert_eq!(sum_per_entry(&entries, p50), 22.0);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn an_empty_median_is_a_bug() {
        p50(&[]);
    }
}
