//! Order statistics used by every reported timing.

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `p` is clamped to `(0, 100]`; an empty
/// sample has no percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let p = p.clamp(f64::MIN_POSITIVE, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts a copy of `xs` and takes its nearest-rank percentile (0 when
/// empty, so an idle layer reads as no work).
pub fn pct(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p).unwrap_or(0.0)
}

/// Nearest-rank median.
pub fn median(xs: &[f64]) -> f64 {
    pct(xs, 50.0)
}

/// Arithmetic mean (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.5), Some(1.0));
        // Ranks round up: 10 samples, p95 is the 10th, p90 the 9th.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 95.0), Some(10.0));
        assert_eq!(percentile(&ten, 90.0), Some(9.0));
        assert_eq!(percentile(&ten, 91.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        // Out-of-range p clamps instead of indexing out of bounds.
        assert_eq!(percentile(&ten, 0.0), Some(1.0));
        assert_eq!(percentile(&ten, 250.0), Some(10.0));
    }

    #[test]
    fn pct_sorts_and_median_is_a_sample() {
        assert_eq!(pct(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(pct(&[], 99.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
