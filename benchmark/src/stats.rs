//! Order statistics for timing samples.

/// Samples a tail percentile must leave beyond it before it is reported as
/// supported by the data.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9% of 10 000 at rank 9 990: in floating point
    // the product comes out a hair above it.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank `p`-th percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest ladder percentile that leaves at least [`MIN_BEYOND`]
/// samples beyond it, if any does.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Sorts a sample in place (NaN-free inputs only) and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spread this program reports matches the one an outside checker
/// computes from the same values. Needs at least two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(supported_tail(9), None);
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        // 200 samples put exactly 10 beyond p95; one fewer does not.
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 100.0);
        assert_eq!(percentile(&s, 95.0), 190.0);
        assert_eq!(percentile(&s, 100.0), 200.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 4], n=4) == [1.0, 4.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
