//! Order statistics and regression bounds used by the benchmark and by
//! `perf compare`.

/// Fewest samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `pct`% of the sample at or below it. 0 for an empty
/// sample (a layer the workload never exercised).
pub fn nearest_rank(sorted: &[f64], pct: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of the `pct`th percentile among `n` samples,
/// in integer arithmetic so that e.g. p99 of 3,200 is exactly rank 3,168.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n)
}

/// The `pct`th nearest-rank percentile, refused unless at least
/// [`MIN_BEYOND`] samples lie beyond it; the error says why.
pub fn tail(sorted: &[f64], pct: u32) -> Result<f64, String> {
    let n = sorted.len();
    let beyond = n - rank(n.max(1), pct).min(n);
    if n == 0 || beyond < MIN_BEYOND {
        let needed = (MIN_BEYOND * 100).div_ceil(100 - pct.min(99) as usize);
        return Err(format!(
            "p{pct} of {n} samples leaves {beyond} beyond it; \
             at least {MIN_BEYOND} are needed, i.e. about {needed} samples"
        ));
    }
    Ok(nearest_rank(sorted, pct))
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads read the same here as
/// in any script that checks them. One value gives that value twice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return (0.0, 0.0),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, failures).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// How much worse `new` is than `base` (negative when better).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    }
}

/// Whether moving from `base` to `new` worsens by more than `bound`, a
/// share of the base value. A zero bound regresses on any worsening.
pub fn regressed(base: f64, new: f64, better: Better, bound: f64) -> bool {
    worsening(base, new, better) > bound * base.abs()
}

/// Whether moving from `base` to `new` improves by more than `bound`.
pub fn improved(base: f64, new: f64, better: Better, bound: f64) -> bool {
    -worsening(base, new, better) > bound * base.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let v = ascending(100);
        assert_eq!(nearest_rank(&v, 50), 50.0);
        assert_eq!(nearest_rank(&v, 99), 99.0);
        assert_eq!(nearest_rank(&v, 100), 100.0);
        assert_eq!(nearest_rank(&ascending(3_200), 99), 3_168.0);
        assert_eq!(nearest_rank(&[7.0], 50), 7.0);
        assert_eq!(nearest_rank(&[], 50), 0.0);
        // Never interpolates: p50 of two values is the lower one.
        assert_eq!(nearest_rank(&[1.0, 2.0], 50), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 3,200 calls leaves 32 beyond; p90 of 120 leaves 12;
        // p75 of 40 leaves exactly 10.
        assert_eq!(tail(&ascending(3_200), 99), Ok(3_168.0));
        assert_eq!(tail(&ascending(120), 90), Ok(108.0));
        assert_eq!(tail(&ascending(40), 75), Ok(30.0));
        let err = tail(&ascending(39), 75).unwrap_err();
        assert!(err.contains("leaves 9 beyond"), "{err}");
        assert!(err.contains("about 40 samples"), "{err}");
        assert!(tail(&ascending(999), 99).is_err());
        assert!(tail(&ascending(1_000), 99).is_ok());
        assert!(tail(&[], 50).is_err());
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v = ascending(10);
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn bounds_respect_direction_and_zero_tolerance() {
        // Throughput: higher is better.
        assert!(regressed(100.0, 89.0, Better::Higher, 0.10));
        assert!(!regressed(100.0, 91.0, Better::Higher, 0.10));
        assert!(improved(100.0, 111.0, Better::Higher, 0.10));
        assert!(!improved(100.0, 109.0, Better::Higher, 0.10));
        // Latency: lower is better.
        assert!(regressed(10.0, 11.5, Better::Lower, 0.10));
        assert!(!regressed(10.0, 10.5, Better::Lower, 0.10));
        assert!(improved(10.0, 8.0, Better::Lower, 0.10));
        // A zero bound (the share of failed calls): any increase, even
        // from zero.
        assert!(regressed(0.0, 1e-6, Better::Lower, 0.0));
        assert!(!regressed(0.0, 0.0, Better::Lower, 0.0));
        assert!(!regressed(0.01, 0.005, Better::Lower, 0.0));
        assert!(improved(0.01, 0.005, Better::Lower, 0.0));
        assert_eq!(Better::parse("higher"), Some(Better::Higher));
        assert_eq!(Better::parse("up"), None);
    }
}
