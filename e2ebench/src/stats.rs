//! Sample statistics with the benchmark's reporting rules.
//!
//! Every percentile is taken over the pooled raw samples of one run (never
//! an average of per-series percentiles), and a percentile is only reported
//! when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`q` in `(0, 100]`): the smallest
/// sample with at least `q`% of all samples at or below it. `None` for an
/// empty input.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let rank = nearest_rank(samples.len(), q)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of the `q`-th percentile among `n` samples.
fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (q / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// How many of `n` samples lie strictly beyond the `q`-th percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    nearest_rank(n, q).map_or(0, |rank| n - rank)
}

/// Whether `n` samples support reporting the `q`-th percentile.
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// Pool several sample series and take one percentile over the union.
pub fn pooled_percentile(series: &[&[f64]], q: f64) -> Option<f64> {
    let pooled: Vec<f64> = series.iter().flat_map(|s| s.iter().copied()).collect();
    percentile(&pooled, q)
}

/// Median of `samples` (the nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Quartiles `[q1, q2, q3]` by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method).
/// `None` for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median of the quartiles.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    Some((q3 - q1) / q2)
}

/// Metric and workload names: 1 to 64 characters of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}
