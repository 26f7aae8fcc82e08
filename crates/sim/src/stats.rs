//! Time-series recording and reduction over chip snapshots.
//!
//! Experiments record a [`TimeSeries`] of per-interval samples and reduce
//! it to the paper's reporting metrics: tracking error, overshoot relative
//! to a target, averages, and per-island traces.

use cpm_units::Seconds;

/// One `(time, value)` sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Timestamp (end of the interval the value covers).
    pub time: Seconds,
    /// The recorded value.
    pub value: f64,
}

/// A named sequence of samples.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty series with room for `capacity` samples: a recorder that
    /// knows how many samples it will push sizes the buffer once instead
    /// of growing it push by push.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            samples: Vec::with_capacity(capacity),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, time: Seconds, value: f64) {
        self.samples.push(Sample { time, value });
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The values only.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|s| s.value)
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.values().sum::<f64>() / self.len() as f64)
    }

    /// Largest value; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values()
            .fold(None, |m, v| Some(m.map_or(v, |x: f64| x.max(v))))
    }

    /// Smallest value; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.values()
            .fold(None, |m, v| Some(m.map_or(v, |x: f64| x.min(v))))
    }

    /// Largest positive excursion above `target`, as a fraction of
    /// `target` — the paper's "maximum overshoot" against a power budget.
    pub fn max_overshoot_vs(&self, target: f64) -> Option<f64> {
        assert!(target != 0.0);
        self.values()
            .map(|v| ((v - target) / target.abs()).max(0.0))
            .fold(None, |m, v| Some(m.map_or(v, |x: f64| x.max(v))))
    }

    /// Reduces the series to per-chunk means: every `n` consecutive
    /// samples collapse into one sample stamped with the chunk's last
    /// timestamp. A trailing partial chunk is dropped. This is how a power
    /// meter sampling at a coarser period (e.g. the GPM interval) would
    /// report the same trace.
    pub fn averaged_chunks(&self, n: usize) -> TimeSeries {
        self.chunk_means(n).collect()
    }

    /// The samples of [`TimeSeries::averaged_chunks`], computed lazily
    /// (nothing is allocated).
    pub fn chunk_means(&self, n: usize) -> impl Iterator<Item = (Seconds, f64)> + '_ {
        assert!(n > 0, "chunk size must be positive");
        self.samples.chunks_exact(n).map(move |c| {
            (
                c[n - 1].time,
                c.iter().map(|s| s.value).sum::<f64>() / n as f64,
            )
        })
    }

    /// The mean of the final `n` samples (steady-state window); `None`
    /// when fewer than `n` samples exist.
    pub fn tail_mean(&self, n: usize) -> Option<f64> {
        if self.len() < n || n == 0 {
            return None;
        }
        Some(
            self.samples[self.len() - n..]
                .iter()
                .map(|s| s.value)
                .sum::<f64>()
                / n as f64,
        )
    }
}

impl FromIterator<(Seconds, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (Seconds, f64)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut ts = Self::with_capacity(iter.size_hint().0);
        for (t, v) in iter {
            ts.push(t, v);
        }
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[f64]) -> TimeSeries {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| (Seconds::from_ms(i as f64), v))
            .collect()
    }

    #[test]
    fn empty_series_reductions_are_none() {
        let s = TimeSeries::new();
        assert!(s.mean().is_none());
        assert!(s.max().is_none());
        assert!(s.min().is_none());
        assert!(s.tail_mean(1).is_none());
    }

    #[test]
    fn basic_reductions() {
        let s = series(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.tail_mean(2), Some(3.5));
    }

    #[test]
    fn overshoot_ignores_undershoot() {
        let s = series(&[70.0, 82.0, 78.0, 84.0]);
        // Max overshoot vs 80: (84-80)/80 = 5 %.
        assert!((s.max_overshoot_vs(80.0).unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn never_above_target_is_zero_overshoot() {
        let s = series(&[70.0, 75.0, 79.9]);
        assert_eq!(s.max_overshoot_vs(80.0), Some(0.0));
    }

    #[test]
    fn averaged_chunks_reduces_resolution() {
        let s = series(&[1.0, 3.0, 5.0, 7.0, 9.0]);
        let a = s.averaged_chunks(2);
        assert_eq!(a.len(), 2); // trailing partial chunk dropped
        let vals: Vec<f64> = a.values().collect();
        assert_eq!(vals, vec![2.0, 6.0]);
        // Timestamp of each chunk is its last sample's.
        assert_eq!(a.samples()[0].time, Seconds::from_ms(1.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn averaged_chunks_rejects_zero() {
        series(&[1.0]).averaged_chunks(0);
    }

    #[test]
    fn tail_mean_needs_enough_samples() {
        let s = series(&[1.0, 2.0]);
        assert!(s.tail_mean(3).is_none());
        assert!(s.tail_mean(0).is_none());
    }
}
