//! Sample statistics: exact percentiles over kept samples, the percentile
//! picker, and the quartile spread `compare` uses.

/// Percentiles a timing may be reported at, ascending, in tenths of a
/// percent (whole numbers, so that "ten samples beyond" is exact).
const LADDER: [usize; 5] = [500, 900, 950, 990, 999];

/// Samples beyond a percentile for it to be reportable.
const MIN_BEYOND: usize = 10;

/// Sort a sample set ascending (NaN-free by construction: every sample is
/// a measured duration or a count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// Nearest-rank percentile of an ascending sample set (0 when empty, so an
/// idle layer reads as 0 rather than failing the run).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of an unsorted sample set.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    percentile(&sorted(values.to_vec()), p)
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of an unsorted set of run results (mean of the two middle values
/// when the count is even, as Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest ladder percentile with at least ten samples beyond it.
/// Below twenty samples not even the median qualifies; it is returned
/// anyway because a run must report something, and the sample count
/// printed beside every metric shows how little it rests on.
pub fn highest_supported(n: usize) -> f64 {
    let per_mille = LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n * (1000 - p) / 1000 >= MIN_BEYOND)
        .unwrap_or(LADDER[0]);
    per_mille as f64 / 10.0
}

/// Distance between the first and third quartile as a share of the median
/// (exclusive method, as Python's `statistics.quantiles(values, n=4)`).
/// `None` below four values, where quartiles are undefined.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let s = sorted(values.to_vec());
    let quantile = |q: f64| {
        let pos = q * (s.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, s.len());
        let hi = (lo + 1).min(s.len());
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        s[lo - 1] + frac * (s[hi - 1] - s[lo - 1])
    };
    let med = median(&s);
    (med != 0.0).then(|| (quantile(0.75) - quantile(0.25)).abs() / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_takes_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported(5), 50.0);
        assert_eq!(highest_supported(20), 50.0);
        assert_eq!(highest_supported(99), 50.0);
        assert_eq!(highest_supported(100), 90.0);
        assert_eq!(highest_supported(199), 90.0);
        assert_eq!(highest_supported(200), 95.0);
        assert_eq!(highest_supported(1000), 99.0);
        assert_eq!(highest_supported(10_000), 99.9);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartile_spread_matches_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - 1.0).abs() < 1e-12, "{spread}");
        assert!(quartile_spread(&[1.0, 2.0, 3.0]).is_none());
    }
}
