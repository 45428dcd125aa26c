//! Streaming descriptive statistics and quantiles.
//!
//! The data cleaners and generators need column means and standard
//! deviations; the Knorr–Ng baseline's λ suggestion needs a sample quantile;
//! both live here. The running accumulator uses Welford's algorithm so a
//! single pass is numerically stable regardless of the magnitude of the data.

/// Single-pass accumulator for count / mean / variance / min / max.
///
/// NaN observations are skipped, so datasets with missing values (encoded
/// as NaN) can be summarized directly.
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation. NaN is skipped.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of non-NaN observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or `None` if no finite observation was pushed.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Unbiased sample variance (n − 1 denominator); `None` for fewer than
    /// two observations.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Sample standard deviation.
    pub fn sd(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Minimum, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl FromIterator<f64> for Accumulator {
    /// Builds an accumulator from an iterator of observations.
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = Self::new();
        for x in iter {
            acc.push(x);
        }
        acc
    }
}

/// Sample quantile with linear interpolation (R type-7, the default of R,
/// NumPy and Julia): for sorted data `x[0..n]` and probability `p`,
/// `h = (n − 1)·p`, result `x[⌊h⌋] + (h − ⌊h⌋)·(x[⌊h⌋+1] − x[⌊h⌋])`.
///
/// `values` need not be sorted; NaNs are filtered out. Returns `None` when no
/// finite value remains or `p` is outside `[0, 1]`.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    if !(0.0..=1.0).contains(&p) {
        return None;
    }
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaNs were filtered"));
    let h = (v.len() - 1) as f64 * p;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    Some(v[lo] + (h - lo as f64) * (v[hi] - v[lo]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_basic_moments() {
        let acc = Accumulator::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(acc.count(), 8);
        assert!((acc.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((acc.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(acc.min(), Some(2.0));
        assert_eq!(acc.max(), Some(9.0));
    }

    #[test]
    fn accumulator_empty_and_single() {
        let acc = Accumulator::new();
        assert_eq!(acc.mean(), None);
        assert_eq!(acc.variance(), None);
        assert_eq!(acc.min(), None);
        let acc = Accumulator::from_iter([3.5]);
        assert_eq!(acc.mean(), Some(3.5));
        assert_eq!(acc.variance(), None);
    }

    #[test]
    fn accumulator_skips_nan() {
        let acc = Accumulator::from_iter([1.0, f64::NAN, 3.0, f64::NAN]);
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.mean(), Some(2.0));
    }

    #[test]
    fn quantile_type7_reference() {
        // R: quantile(c(1,2,3,4), c(0, .25, .5, .75, 1)) = 1, 1.75, 2.5, 3.25, 4.
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.25), Some(1.75));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&v, 0.75), Some(3.25));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
    }

    #[test]
    fn quantile_unsorted_and_nan() {
        let v = [9.0, f64::NAN, 1.0, 5.0];
        assert_eq!(quantile(&v, 0.5), Some(5.0));
        assert_eq!(quantile(&[f64::NAN], 0.5), None);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], 2.0), None);
        assert_eq!(quantile(&[1.0], -0.5), None);
    }
}
