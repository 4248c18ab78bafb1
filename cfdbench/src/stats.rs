//! Latency summaries: nearest-rank percentiles with their sample counts.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `sorted`, which
/// must be in ascending order: the smallest value with at least `p`% of the
/// samples at or below it. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median and 90th percentile of one sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
}

impl Summary {
    /// Summarizes `values` (any order); `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0)?,
            p90: percentile(&sorted, 90.0)?,
        })
    }

    /// Whether the 90th percentile has at least ten samples above it, the
    /// least a tail figure needs to mean anything.
    pub fn p90_supported(&self) -> bool {
        self.n >= 100
    }
}

/// The median of `values` (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 10.0]).expect("non-empty");
        assert_eq!(s.n, 4);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p90, 10.0);
        assert!(!s.p90_supported());
        assert!(Summary::of(&[]).is_none());
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        let s = Summary::of(&hundred).expect("non-empty");
        assert_eq!((s.n, s.p50, s.p90), (100, 49.0, 89.0));
        assert!(s.p90_supported());
    }

    #[test]
    fn median_of_even_sample_is_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
