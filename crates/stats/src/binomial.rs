//! The binomial distribution.
//!
//! Under the paper's uniformity assumption (§1.3), the occupancy of a
//! k-dimensional cube is `Binomial(N, f^k)` with `f = 1/φ`. Eq. 1 replaces it
//! with a normal via the central limit theorem; this module provides the
//! *exact* distribution so the library can report honest tail probabilities
//! when `N·f^k` is small (exactly the regime §2.4 worries about), and so the
//! quality of the CLT approximation can be tested rather than assumed.

use crate::gamma::ln_choose;
use crate::normal::Normal;

/// A binomial distribution `Binomial(n, p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates a binomial distribution with `n` trials and success
    /// probability `p`.
    ///
    /// Returns `None` unless `0 <= p <= 1`.
    pub fn new(n: u64, p: f64) -> Option<Self> {
        if (0.0..=1.0).contains(&p) {
            Some(Self { n, p })
        } else {
            None
        }
    }

    /// Number of trials.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Distribution mean `n·p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Distribution variance `n·p·(1-p)`.
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    /// Standard deviation.
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Natural log of the probability mass `ln P[X = k]`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return f64::NEG_INFINITY;
        }
        if self.p == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if self.p == 1.0 {
            return if k == self.n { 0.0 } else { f64::NEG_INFINITY };
        }
        ln_choose(self.n, k)
            + k as f64 * self.p.ln()
            + (self.n - k) as f64 * (1.0 - self.p).ln_1p_safe()
    }

    /// Probability mass `P[X = k]`.
    ///
    /// ```
    /// use hdoutlier_stats::Binomial;
    /// let b = Binomial::new(10, 0.5).unwrap();
    /// assert!((b.pmf(5) - 252.0 / 1024.0).abs() < 1e-12);
    /// ```
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// Lower tail `P[X <= k]`.
    ///
    /// Exact at the edges: `1` for `k >= n` or `p = 0`, `0` for `p = 1`.
    /// Otherwise it sums the tail on the count's side of the mean:
    /// `P[X <= k]` directly when `k <= np`, else `1 − P[X > k]`. Each sum
    /// reads one PMF term and walks the ratio recurrence away from the mean
    /// until the terms stop mattering, a few standard deviations' worth of
    /// terms, not `O(n)`.
    ///
    /// Accuracy is that of the boundary term's [`ln_choose`]: about 1e-11
    /// relative for `n ≤ 10⁴`, and about 1e-9 near `n = 10⁶`, where the
    /// Lanczos values it subtracts reach ~1e7 (worst seen against an exact
    /// oracle: 3.2e-11 and 4.0e-9).
    ///
    /// [`ln_choose`]: crate::gamma::ln_choose
    pub fn cdf(&self, k: u64) -> f64 {
        if k >= self.n || self.p == 0.0 {
            return 1.0;
        }
        if self.p == 1.0 {
            return 0.0;
        }
        if k as f64 <= self.mean() {
            self.tail(k, true).min(1.0)
        } else {
            (1.0 - self.tail(k + 1, false)).max(0.0)
        }
    }

    /// The one tail evaluator: `Σ P[X = i]` from `i = start` away from the
    /// mean, down to 0 when `below`, else up to `n`. The boundary term is
    /// read once through [`Binomial::ln_pmf`]; each next term follows from
    /// the ratio `P(i−1)/P(i) = i(1−p) / ((n−i+1)p)` (or its inverse going
    /// up). Away from the mean the terms shrink, so the walk stops at the
    /// first term too small to change the running sum (below ε/2 of it).
    ///
    /// Requires `0 < p < 1` and `start` on the tail's side of the mean.
    fn tail(&self, start: u64, below: bool) -> f64 {
        let odds = (1.0 - self.p) / self.p;
        let mut term = self.ln_pmf(start).exp();
        let mut sum = 0.0;
        let mut i = start;
        while sum + term != sum {
            sum += term;
            if below {
                if i == 0 {
                    break;
                }
                term *= i as f64 * odds / (self.n - i + 1) as f64;
                i -= 1;
            } else {
                if i == self.n {
                    break;
                }
                term *= (self.n - i) as f64 / ((i + 1) as f64 * odds);
                i += 1;
            }
        }
        sum
    }

    /// The normal approximation `N(np, np(1-p))` the paper's Eq. 1 uses.
    ///
    /// Returns `None` when the variance is zero (`p` in `{0, 1}` or `n = 0`).
    pub fn normal_approximation(&self) -> Option<Normal> {
        Normal::new(self.mean(), self.sd())
    }

    /// Worst absolute CDF error of the normal approximation over all `k`,
    /// i.e. the Kolmogorov distance between the exact and the CLT law.
    ///
    /// Used by the test-suite and by `repro params` to show where Eq. 1's
    /// approximation is trustworthy. Costs `O(n)`; intended for analysis, not
    /// hot paths.
    pub fn clt_kolmogorov_distance(&self) -> f64 {
        let mut worst = 0.0f64;
        match self.normal_approximation() {
            None => {
                // Degenerate: exact law is a point mass; CLT is undefined.
                f64::NAN
            }
            Some(approx) => {
                let mut exact = 0.0;
                for k in 0..=self.n {
                    exact += self.pmf(k);
                    let e = (exact.min(1.0) - approx.cdf(k as f64 + 0.5)).abs();
                    worst = worst.max(e);
                }
                worst
            }
        }
    }
}

/// Small extension trait so `ln(1-p)` is written once, correctly, for `p`
/// close to zero.
trait Ln1pSafe {
    fn ln_1p_safe(self) -> f64;
}

impl Ln1pSafe for f64 {
    /// `self` is already `1 - p`; take its log but route tiny `p` through
    /// `ln_1p` for precision. `self = 1 - p  ⇒  ln(self) = ln_1p(-p)`.
    fn ln_1p_safe(self) -> f64 {
        let p = 1.0 - self;
        (-p).ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(10u64, 0.3), (25, 0.5), (100, 0.01), (7, 0.99)] {
            let b = Binomial::new(n, p).unwrap();
            let total: f64 = (0..=n).map(|k| b.pmf(k)).sum();
            assert!((total - 1.0).abs() < 1e-12, "sum for ({n},{p}) = {total}");
        }
    }

    #[test]
    fn pmf_known_values() {
        // Binomial(10, 0.5): P[X=5] = 252/1024.
        let b = Binomial::new(10, 0.5).unwrap();
        assert!((b.pmf(5) - 252.0 / 1024.0).abs() < 1e-13);
        // Binomial(4, 0.25): P[X=0] = (3/4)^4.
        let b = Binomial::new(4, 0.25).unwrap();
        assert!((b.pmf(0) - 0.75f64.powi(4)).abs() < 1e-14);
    }

    #[test]
    fn cdf_is_the_pmf_sum_on_both_sides_of_the_mean() {
        // Mean 10: k <= 10 sums the lower tail, k > 10 subtracts the upper.
        let b = Binomial::new(50, 0.2).unwrap();
        let mut partial = 0.0;
        for k in 0..50 {
            partial += b.pmf(k);
            let c = b.cdf(k);
            assert!(
                (c - partial).abs() < 1e-12,
                "cdf({k}) = {c}, pmf sum {partial}"
            );
        }
        assert_eq!(b.cdf(50), 1.0);
        assert_eq!(b.cdf(u64::MAX), 1.0);
    }

    #[test]
    fn degenerate_p() {
        let b = Binomial::new(5, 0.0).unwrap();
        assert_eq!(b.pmf(0), 1.0);
        assert_eq!(b.pmf(1), 0.0);
        assert_eq!(b.cdf(0), 1.0);
        let b = Binomial::new(5, 1.0).unwrap();
        assert_eq!(b.pmf(5), 1.0);
        assert_eq!(b.cdf(4), 0.0);
        assert_eq!(b.cdf(5), 1.0);
    }

    #[test]
    fn invalid_p_rejected() {
        assert!(Binomial::new(5, -0.1).is_none());
        assert!(Binomial::new(5, 1.1).is_none());
        assert!(Binomial::new(5, f64::NAN).is_none());
    }

    #[test]
    fn moments() {
        let b = Binomial::new(40, 0.25).unwrap();
        assert_eq!(b.mean(), 10.0);
        assert_eq!(b.variance(), 7.5);
    }

    #[test]
    fn clt_quality_improves_with_n() {
        // The CLT error should shrink roughly like 1/sqrt(n·p·(1-p)).
        let small = Binomial::new(10, 0.5).unwrap().clt_kolmogorov_distance();
        let large = Binomial::new(1000, 0.5).unwrap().clt_kolmogorov_distance();
        assert!(large < small / 5.0, "small {small}, large {large}");
    }

    #[test]
    fn clt_is_bad_in_the_sparse_regime() {
        // The very phenomenon paper §2.4 warns about: with N·f^k ≈ 0.1 the
        // CLT's *tail* probabilities are off by orders of magnitude even
        // though the continuity-corrected Kolmogorov distance looks small.
        // Exact P[X >= 3] ≈ 1.5e-4; the normal approximation says Φ̄(7.6) ≈ 1e-14.
        let b = Binomial::new(1000, 0.0001).unwrap();
        let exact_tail = 1.0 - b.cdf(2);
        let approx_tail = 1.0 - b.normal_approximation().unwrap().cdf(2.5);
        assert!(exact_tail > 1e-4);
        assert!(
            approx_tail < exact_tail / 1e6,
            "approx {approx_tail} vs exact {exact_tail}"
        );
    }
}
