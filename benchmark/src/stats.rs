//! Order statistics for reporting timings: the median, quartiles computed
//! exactly as Python's `statistics.quantiles(values, n=4)` does, and the
//! tail rule — report the highest percentile with at least ten samples
//! beyond it.

/// The median (mean of the middle two for an even count).
///
/// # Panics
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of no values");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles` (its default).
///
/// # Panics
/// With fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// The percentiles the tail rule chooses from, highest first.
const TAIL_LEVELS: [f64; 3] = [99.0, 90.0, 50.0];

/// The highest of p99, p90 and p50 that has at least ten of `n` samples
/// beyond it, or `None` when even the median has fewer (n < 20).
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .into_iter()
        .find(|q| (n as f64) * (100.0 - q) / 100.0 >= 10.0)
}

/// The nearest-rank `q`-th percentile of an ascending slice.
///
/// # Panics
/// On an empty slice.
pub fn percentile(ascending: &[f64], q: f64) -> f64 {
    assert!(!ascending.is_empty(), "percentile of no values");
    let rank = ((q / 100.0) * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

/// A latency sample summarized by the tail rule.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile reported, or 100 (the maximum) when the sample is too
    /// small for the rule to pick one.
    pub level: f64,
    pub value: f64,
}

/// The tail of a sample by [`tail_level`], falling back to the maximum.
///
/// # Panics
/// On an empty slice.
pub fn tail(values: &[f64]) -> Tail {
    let s = sorted(values);
    let level = tail_level(s.len()).unwrap_or(100.0);
    Tail {
        level,
        value: percentile(&s, level),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(99), Some(50.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(999), Some(90.0));
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(tail_level(1_000_000), Some(99.0));
    }

    #[test]
    fn tail_falls_back_to_the_maximum() {
        let few = [5.0, 1.0, 9.0, 3.0];
        let t = tail(&few);
        assert_eq!((t.level, t.value), (100.0, 9.0));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&many);
        assert_eq!((t.level, t.value), (99.0, 990.0));
        assert_eq!(percentile(&many, 50.0), 500.0);
    }
}
