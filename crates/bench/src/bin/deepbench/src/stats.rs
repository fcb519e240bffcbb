//! Order statistics for the report: medians, quartiles and the percentile
//! picker ("highest percentile with at least ten samples beyond it").

/// Sort a copy ascending (total order, so NaN cannot poison a report).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` gives them (exclusive method) — the rule
/// the acceptance check uses, so `--selfcheck` reads the same spread.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Value at `bp` basis points (5000 = the median, 9900 = p99) of an ascending
/// slice: the smallest sample with at least that share of the samples at or
/// below it. Basis points keep the rank arithmetic in integers.
pub fn percentile_of_sorted(sorted: &[u64], bp: u64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[rank(n, bp) - 1],
    }
}

/// Nearest-rank position (1-based) of `bp` basis points in `n ≥ 1` samples.
fn rank(n: usize, bp: u64) -> usize {
    ((n as u64 * bp).div_ceil(10_000) as usize).clamp(1, n)
}

/// Samples strictly above `bp` basis points in a sample of `n`.
pub fn samples_beyond(n: usize, bp: u64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, bp)
    }
}

/// The percentile ladder the picker climbs, in basis points.
const LADDER: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Highest percentile of the ladder (in basis points) that still has at
/// least ten samples beyond it in a sample of `n`; `None` below 20 samples.
pub fn highest_percentile(n: usize) -> Option<u64> {
    LADDER
        .iter()
        .copied()
        .rfind(|bp| samples_beyond(n, *bp) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
        assert_eq!(median(&[4.0, 1.0, 9.0, 5.0]), 4.5);
    }

    #[test]
    fn picker_wants_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(5_000));
        assert_eq!(highest_percentile(99), Some(5_000));
        assert_eq!(highest_percentile(100), Some(9_000));
        assert_eq!(highest_percentile(999), Some(9_000));
        assert_eq!(highest_percentile(1_000), Some(9_900));
        assert_eq!(highest_percentile(10_000), Some(9_990));
        assert_eq!(highest_percentile(24_000), Some(9_990));
        assert_eq!(highest_percentile(100_000), Some(9_999));
        assert_eq!(samples_beyond(24_000, 9_900), 240);
        assert_eq!(samples_beyond(0, 9_900), 0);
    }

    #[test]
    fn percentile_picks_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_of_sorted(&v, 5_000), 50);
        assert_eq!(percentile_of_sorted(&v, 9_900), 99);
        assert_eq!(percentile_of_sorted(&v, 10_000), 100);
        assert_eq!(percentile_of_sorted(&[], 5_000), 0);
    }
}
