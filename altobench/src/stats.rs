//! Order statistics over per-cell samples and per-round values.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method), so a spread printed here reads the same
/// as one computed from the printed values. Needs two values; fewer give
/// `(v, v)` for the single value, or zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. With 100 samples, p90 is the 90th
/// smallest and leaves 10 samples beyond it.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p90 = nearest_rank(&v, 90.0);
        assert_eq!(p90, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[], 90.0), 0.0);
    }

    #[test]
    fn median_and_iqr_over_five_rounds() {
        // Python: statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let rounds = [4.0, 1.0, 5.0, 3.0, 2.0];
        assert_eq!(median(&rounds), 3.0);
        assert_eq!(quartiles(&rounds), (1.5, 4.5));
        assert_eq!(iqr(&rounds), 3.0);
        // Python: statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        assert_eq!(quartiles(&[80.0, 10.0, 40.0, 20.0]), (12.5, 70.0));
        assert_eq!(median(&[80.0, 10.0, 40.0, 20.0]), 30.0);
        // One noisy round out of five moves the median not at all.
        assert_eq!(median(&[30.0, 31.0, 29.0, 30.5, 90.0]), 30.5);
        assert_eq!(iqr(&[7.0]), 0.0);
        assert_eq!(median(&[]), 0.0);
    }
}
