//! Order statistics for the report: medians, nearest-rank percentiles,
//! and the "highest percentile the sample supports" rule.

/// Percentile levels the report may name, highest first, each with the
/// share of the sample beyond it in thousandths (integers, so that 10 000
/// samples support p99.9 exactly).
const TAIL_LEVELS: [(f64, usize); 4] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)];

/// A latency sample reduced to what the report prints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// The tail value at [`Summary::tail_level`].
    pub tail: f64,
    /// Which percentile `tail` is (50.0 when the sample supports nothing higher).
    pub tail_level: f64,
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], level: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((level / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile with at least ten samples beyond it; the median
/// when the sample is too small for any tail level.
pub fn tail_level(n: usize) -> f64 {
    TAIL_LEVELS
        .into_iter()
        .find(|(_, beyond)| n * beyond >= 10 * 1000)
        .map_or(50.0, |(level, _)| level)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

/// Mean of a sample (0 for an empty one, so absent layers read as idle).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Reduces a sample to its summary.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let level = tail_level(sorted.len());
    Summary {
        n: sorted.len(),
        mean: mean(&sorted),
        p50: percentile_sorted(&sorted, 50.0),
        tail: percentile_sorted(&sorted, level),
        tail_level: level,
    }
}

/// A fixed percentile of an unsorted sample.
pub fn percentile(values: &[f64], level: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, level)
}

/// A percentile made robust against a machine that stalls for tens of
/// milliseconds now and then: the phase is cut into `windows` equal spans
/// of time (by `at`, any unit), the percentile is taken in each, and the
/// median of those is returned — a stall moves one window, not the result.
pub fn windowed_percentile(at: &[f64], values: &[f64], windows: usize, level: f64) -> f64 {
    median(&per_window(at, values, windows, |w| percentile(w, level)))
}

fn per_window(
    at: &[f64],
    values: &[f64],
    windows: usize,
    reduce: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    assert_eq!(at.len(), values.len());
    let (lo, hi) = at.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &t| (lo.min(t), hi.max(t)));
    let span = ((hi - lo) / windows as f64).max(f64::MIN_POSITIVE);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for (&t, &v) in at.iter().zip(values) {
        buckets[(((t - lo) / span) as usize).min(windows - 1)].push(v);
    }
    buckets.iter().filter(|b| !b.is_empty()).map(|b| reduce(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_level(160), 90.0); // 16 beyond p90, 8 beyond p95
        assert_eq!(tail_level(200), 95.0);
        assert_eq!(tail_level(1_000), 99.0);
        assert_eq!(tail_level(10_000), 99.9);
        assert_eq!(tail_level(99), 50.0); // 9.9 beyond p90: not enough
        assert_eq!(tail_level(7), 50.0);
    }

    #[test]
    fn a_stall_in_one_window_does_not_move_the_windowed_tail() {
        let at: Vec<f64> = (0..1000).map(f64::from).collect();
        let mut values = vec![1.0; 1000];
        assert_eq!(windowed_percentile(&at, &values, 10, 99.0), 1.0);
        for v in &mut values[300..360] {
            *v = 50.0; // a stall: 6% of the samples, all in one window
        }
        assert_eq!(percentile(&values, 99.0), 50.0);
        assert_eq!(windowed_percentile(&at, &values, 10, 99.0), 1.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let s = summarize(&v);
        assert_eq!((s.n, s.p50, s.tail_level, s.tail), (100, 50.0, 90.0, 90.0));
    }
}
