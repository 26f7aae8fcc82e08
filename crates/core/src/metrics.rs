//! Controller-quality metrics: the paper's three robustness measures
//! (§II-A) computed from recorded traces.
//!
//! The paper quotes overshoot "within 4 % of the target" — i.e. relative to
//! the target *level*, not to the size of the reference step — and settling
//! as the number of PIC invocations until the response stays near the
//! target. Both conventions are implemented here.

use cpm_sim::TimeSeries;

/// Aggregate tracking quality of a power trace against its target(s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackingSummary {
    /// Largest excursion above target, percent of the target level.
    pub max_overshoot_percent: f64,
    /// Largest excursion below target, percent of the target level.
    pub max_undershoot_percent: f64,
    /// Mean |error|, percent of the target level, over the *compared*
    /// samples only.
    pub mean_abs_error_percent: f64,
    /// Samples that entered the error statistics.
    pub compared_samples: usize,
    /// Samples excluded because their target was non-positive (a relative
    /// error against a zero target is undefined). A large count means the
    /// summary describes only a sliver of the run — check before trusting
    /// a "perfect" score.
    pub skipped_samples: usize,
}

impl TrackingSummary {
    /// Quality against a constant target (chip budget tracking, Fig. 10).
    pub fn against_constant(actual: &TimeSeries, target: f64) -> Self {
        Self::against_constant_values(actual.values(), target)
    }

    /// [`TrackingSummary::against_constant`] over bare values, so a caller
    /// can feed a lazily reduced trace without materializing it.
    pub(crate) fn against_constant_values(values: impl Iterator<Item = f64>, target: f64) -> Self {
        assert!(target > 0.0, "target must be positive");
        let mut over: f64 = 0.0;
        let mut under: f64 = 0.0;
        let mut abs_sum = 0.0;
        let mut len = 0usize;
        for v in values {
            let e = (v - target) / target;
            over = over.max(e);
            under = under.max(-e);
            abs_sum += e.abs();
            len += 1;
        }
        assert!(len > 0, "empty trace");
        Self {
            max_overshoot_percent: over * 100.0,
            max_undershoot_percent: under * 100.0,
            mean_abs_error_percent: abs_sum / len as f64 * 100.0,
            compared_samples: len,
            skipped_samples: 0,
        }
    }

    /// Quality against a paired, time-varying target (island tracking of
    /// GPM allocations, Fig. 8). Samples whose target is non-positive
    /// cannot contribute a relative error; they are excluded from the
    /// statistics and *counted* in [`TrackingSummary::skipped_samples`]
    /// so a mostly-zero target series cannot masquerade as perfect
    /// tracking. The mean is taken over the compared samples only.
    pub fn against_series(actual: &TimeSeries, target: &TimeSeries) -> Self {
        assert_eq!(actual.len(), target.len(), "paired series must align");
        assert!(!actual.is_empty(), "empty trace");
        let mut over: f64 = 0.0;
        let mut under: f64 = 0.0;
        let mut abs_sum = 0.0;
        let mut compared = 0usize;
        let mut skipped = 0usize;
        for (a, t) in actual.samples().iter().zip(target.samples()) {
            if t.value <= 0.0 {
                skipped += 1;
                continue;
            }
            compared += 1;
            let e = (a.value - t.value) / t.value;
            over = over.max(e);
            under = under.max(-e);
            abs_sum += e.abs();
        }
        Self {
            max_overshoot_percent: over * 100.0,
            max_undershoot_percent: under * 100.0,
            mean_abs_error_percent: if compared > 0 {
                abs_sum / compared as f64 * 100.0
            } else {
                0.0
            },
            compared_samples: compared,
            skipped_samples: skipped,
        }
    }
}

/// PIC transient quality within one GPM segment (Fig. 9): the response to
/// one target step, observed over the PIC invocations until the next GPM
/// invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentMetrics {
    /// Peak excursion above the target, as a fraction of the target level.
    pub overshoot: f64,
    /// First invocation index from which the response stays within the
    /// band; `None` if it never settles within the segment.
    pub settling: Option<usize>,
    /// |last sample − target| / target.
    pub steady_state_error: f64,
}

/// Computes [`SegmentMetrics`] for one GPM segment.
///
/// * `trace` — island power at each PIC invocation within the segment,
/// * `target` — the allocation in force,
/// * `band` — settling band as a fraction of the target (e.g. 0.05).
pub fn segment_metrics(trace: &[f64], target: f64, band: f64) -> SegmentMetrics {
    assert!(!trace.is_empty() && target > 0.0);
    let peak = trace.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let overshoot = ((peak - target) / target).max(0.0);
    let tol = band * target;
    let settling = match trace.iter().rposition(|&v| (v - target).abs() > tol) {
        None => Some(0),
        Some(last_bad) if last_bad + 1 < trace.len() => Some(last_bad + 1),
        Some(_) => None,
    };
    SegmentMetrics {
        overshoot,
        settling,
        steady_state_error: (trace[trace.len() - 1] - target).abs() / target,
    }
}

/// Settling under the *mean* criterion: the first invocation `k` such that
/// the average of `trace[k..]` lies within `band` of the target. With a
/// quantized DVFS actuator the steady state is a duty cycle between two
/// adjacent operating points, so the pointwise trace never enters a narrow
/// band — but its mean does, which is what "the steady state error is
/// reduced to almost 0 within 5-6 controller invocations" (§IV) measures on
/// a real power meter.
pub fn mean_settling(trace: &[f64], target: f64, band: f64) -> Option<usize> {
    assert!(!trace.is_empty() && target > 0.0);
    let tol = band * target;
    let mut suffix_sum = 0.0;
    let mut best = None;
    // Walk backwards accumulating suffix means.
    for k in (0..trace.len()).rev() {
        suffix_sum += trace[k];
        let mean = suffix_sum / (trace.len() - k) as f64;
        if (mean - target).abs() <= tol {
            best = Some(k);
        } else {
            // A farther-back start that includes this bad prefix can still
            // be fine, so keep scanning; `best` keeps the earliest k whose
            // suffix qualifies.
        }
    }
    best
}

/// The paper's §II-A robustness triple for one controlled run, computed at
/// the island level across all GPM segments and all islands: the worst
/// overshoot, the worst mean-criterion settling time, and the worst
/// steady-state (segment-mean) error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessSummary {
    /// Largest per-segment overshoot across islands, fraction of target.
    pub max_overshoot: f64,
    /// Largest mean-criterion settling time (PIC invocations); `None` when
    /// any segment never settles in the mean.
    pub max_settling: Option<usize>,
    /// Largest |segment mean − target| / target across segments.
    pub max_steady_state_error: f64,
}

/// Computes the [`RobustnessSummary`] over paired per-island actual/target
/// traces (PIC resolution), using `band` for the settling criterion.
pub fn robustness_summary(
    actuals: &[TimeSeries],
    targets: &[TimeSeries],
    pics_per_gpm: usize,
    band: f64,
) -> RobustnessSummary {
    assert_eq!(actuals.len(), targets.len());
    assert!(!actuals.is_empty());
    let mut out = RobustnessSummary {
        max_overshoot: 0.0,
        max_settling: Some(0),
        max_steady_state_error: 0.0,
    };
    for (actual, target) in actuals.iter().zip(targets) {
        let a: Vec<f64> = actual.values().collect();
        let t: Vec<f64> = target.values().collect();
        for (ca, ct) in a
            .chunks_exact(pics_per_gpm)
            .zip(t.chunks_exact(pics_per_gpm))
        {
            let m = segment_metrics(ca, ct[0], band);
            out.max_overshoot = out.max_overshoot.max(m.overshoot);
            out.max_settling = match (out.max_settling, mean_settling(ca, ct[0], band)) {
                (Some(w), Some(s)) => Some(w.max(s)),
                _ => None,
            };
            let mean = ca.iter().sum::<f64>() / ca.len() as f64;
            out.max_steady_state_error =
                out.max_steady_state_error.max((mean - ct[0]).abs() / ct[0]);
        }
    }
    out
}

/// Splits a full-run island trace into its GPM segments and reports the
/// worst-case segment metrics — the paper's headline controller numbers
/// (max overshoot across all segments, max settling time).
pub fn worst_segment_metrics(
    actual: &TimeSeries,
    target: &TimeSeries,
    pics_per_gpm: usize,
    band: f64,
) -> SegmentMetrics {
    assert_eq!(actual.len(), target.len());
    assert!(pics_per_gpm > 0 && actual.len() >= pics_per_gpm);
    let mut worst = SegmentMetrics {
        overshoot: 0.0,
        settling: Some(0),
        steady_state_error: 0.0,
    };
    let a: Vec<f64> = actual.values().collect();
    let t: Vec<f64> = target.values().collect();
    for (ca, ct) in a
        .chunks_exact(pics_per_gpm)
        .zip(t.chunks_exact(pics_per_gpm))
    {
        let m = segment_metrics(ca, ct[0], band);
        worst.overshoot = worst.overshoot.max(m.overshoot);
        worst.settling = match (worst.settling, m.settling) {
            (Some(w), Some(s)) => Some(w.max(s)),
            _ => None,
        };
        worst.steady_state_error = worst.steady_state_error.max(m.steady_state_error);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_units::Seconds;

    fn series(vals: &[f64]) -> TimeSeries {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| (Seconds::from_ms(i as f64 * 0.5), v))
            .collect()
    }

    #[test]
    fn constant_target_summary() {
        let s = series(&[76.0, 82.0, 80.0, 79.0]);
        let t = TrackingSummary::against_constant(&s, 80.0);
        assert!((t.max_overshoot_percent - 2.5).abs() < 1e-9);
        assert!((t.max_undershoot_percent - 5.0).abs() < 1e-9);
        assert!(t.mean_abs_error_percent > 0.0);
    }

    #[test]
    fn paired_target_summary() {
        let a = series(&[10.0, 22.0, 30.0]);
        let t = series(&[10.0, 20.0, 30.0]);
        let s = TrackingSummary::against_series(&a, &t);
        assert!((s.max_overshoot_percent - 10.0).abs() < 1e-9);
        assert_eq!(s.max_undershoot_percent, 0.0);
        assert_eq!(s.compared_samples, 3);
        assert_eq!(s.skipped_samples, 0);
    }

    #[test]
    fn skipped_targets_are_counted_and_excluded_from_the_mean() {
        // Three zero-target samples and one real 10 % miss. The old code
        // divided by the full length, diluting the mean to 2.5 % and saying
        // nothing about the zeros.
        let a = series(&[5.0, 5.0, 5.0, 22.0]);
        let t = series(&[0.0, 0.0, -1.0, 20.0]);
        let s = TrackingSummary::against_series(&a, &t);
        assert_eq!(s.skipped_samples, 3);
        assert_eq!(s.compared_samples, 1);
        assert!((s.mean_abs_error_percent - 10.0).abs() < 1e-9);
    }

    #[test]
    fn all_targets_skipped_is_not_perfect_tracking() {
        let a = series(&[5.0, 5.0]);
        let t = series(&[0.0, 0.0]);
        let s = TrackingSummary::against_series(&a, &t);
        assert_eq!(s.compared_samples, 0);
        assert_eq!(s.skipped_samples, 2, "the zeros must be visible");
        assert_eq!(s.mean_abs_error_percent, 0.0);
    }

    #[test]
    fn segment_metrics_basic() {
        // Step to 20: rises, overshoots to 21, settles from index 4.
        let trace = [16.0, 19.0, 21.0, 20.5, 20.1, 20.0, 19.9, 20.0, 20.0, 20.0];
        let m = segment_metrics(&trace, 20.0, 0.02);
        assert!((m.overshoot - 0.05).abs() < 1e-12);
        assert_eq!(m.settling, Some(4));
        assert_eq!(m.steady_state_error, 0.0);
    }

    #[test]
    fn segment_that_never_settles() {
        let trace = [25.0, 15.0, 25.0, 15.0];
        let m = segment_metrics(&trace, 20.0, 0.02);
        assert_eq!(m.settling, None);
    }

    #[test]
    fn mean_settling_handles_duty_cycling() {
        // Alternates 17.5/20.7 around target 19.6: pointwise never settles,
        // but the mean does almost immediately.
        let trace = [24.0, 22.0, 17.5, 20.7, 17.5, 20.7, 17.5, 20.7, 20.7, 17.5];
        let m = segment_metrics(&trace, 19.6, 0.05);
        assert_eq!(m.settling, None, "pointwise criterion cannot settle");
        let k = mean_settling(&trace, 19.6, 0.05).expect("mean settles");
        assert!(k <= 3, "mean-settled at {k}");
    }

    #[test]
    fn mean_settling_rejects_biased_trace() {
        let trace = [30.0; 8];
        assert_eq!(mean_settling(&trace, 20.0, 0.05), None);
    }

    #[test]
    fn worst_segment_takes_maxima() {
        // Two segments of 5: first overshoots 10 %, second 25 %.
        let actual = series(&[
            20.0, 22.0, 20.0, 20.0, 20.0, //
            20.0, 25.0, 20.0, 20.0, 20.0,
        ]);
        let target = series(&[20.0; 10]);
        let w = worst_segment_metrics(&actual, &target, 5, 0.02);
        assert!((w.overshoot - 0.25).abs() < 1e-12);
        assert_eq!(w.settling, Some(2));
    }

    #[test]
    fn robustness_summary_aggregates_worst_cases() {
        // Two islands, two segments of 3 each. Island 1 is clean; island 2
        // overshoots 20 % in its second segment.
        let a1 = series(&[10.0, 10.0, 10.0, 10.0, 10.0, 10.0]);
        let t1 = series(&[10.0; 6]);
        let a2 = series(&[20.0, 20.0, 20.0, 24.0, 20.0, 20.0]);
        let t2 = series(&[20.0; 6]);
        let r = robustness_summary(&[a1, a2], &[t1, t2], 3, 0.05);
        assert!((r.max_overshoot - 0.2).abs() < 1e-12);
        assert!(r.max_settling.is_some());
        // Island 2 segment 2 mean = 21.33 → sse 6.7 %.
        assert!((r.max_steady_state_error - (64.0 / 3.0 - 20.0) / 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn unpaired_series_panics() {
        TrackingSummary::against_series(&series(&[1.0]), &series(&[1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_target_panics() {
        TrackingSummary::against_constant(&series(&[1.0]), 0.0);
    }
}
