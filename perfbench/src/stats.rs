//! Sample summaries: medians, supported tail percentiles and means.

/// Nearest-rank quantile `q` in `[0, 1]` of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest percentile, at most the 99th, that leaves at least ten
/// samples above it, as `(percentile, value)`: the tail a sample of
/// this size supports. Fewer than 20 samples support only the median.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let pct = if n < 20.0 {
        50.0
    } else {
        (100.0 * (1.0 - 10.0 / n)).floor().min(99.0)
    };
    (pct, quantile(samples, pct / 100.0))
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
