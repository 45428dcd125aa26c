//! The normal (Gaussian) distribution.
//!
//! The paper's Eq. 1 approximates cube occupancy — a Binomial(N, f^k)
//! variable — by a normal, and §1.3 notes that "normal distribution tables
//! can be used to quantify the probabilistic level of significance" of a
//! sparsity coefficient. This module is that table.

use crate::erf::erfc;

const SQRT_2: f64 = std::f64::consts::SQRT_2;
#[allow(clippy::excessive_precision)]
const SQRT_2PI: f64 = 2.506_628_274_631_000_5;

/// Standard normal cumulative distribution function `Φ(z)`.
///
/// ```
/// use hdoutlier_stats::normal::standard_cdf;
/// assert!((standard_cdf(0.0) - 0.5).abs() < 1e-15);
/// // The "-3 sigma is 99.9 % significant" rule of thumb from paper §2.4:
/// assert!((standard_cdf(-3.0) - 0.001349898031630095).abs() < 1e-12);
/// ```
pub fn standard_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / SQRT_2)
}

/// Standard normal probability density `φ(z)`.
pub fn standard_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / SQRT_2PI
}

/// Standard normal quantile `Φ⁻¹(p)` for `p` in `(0, 1)`.
///
/// Peter Acklam's rational approximation (relative error < 1.15e-9) refined
/// with one Halley step against the exact [`standard_cdf`], which brings the
/// result to full double precision.
pub fn standard_quantile(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    #[allow(clippy::excessive_precision)]
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let mut x = if p < P_LOW {
        // Lower tail.
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        // Central region.
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        // Upper tail, by symmetry.
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step: u = (Φ(x) - p) / φ(x); x ← x - u / (1 + x·u/2).
    let e = standard_cdf(x) - p;
    let u = e / standard_pdf(x);
    x -= u / (1.0 + x * u / 2.0);
    x
}

/// A normal distribution with arbitrary mean and standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// Returns `None` unless `sd` is finite and strictly positive and `mean`
    /// is finite.
    pub fn new(mean: f64, sd: f64) -> Option<Self> {
        if mean.is_finite() && sd.is_finite() && sd > 0.0 {
            Some(Self { mean, sd })
        } else {
            None
        }
    }

    /// Distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Distribution standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Z-score of `x` under this distribution.
    pub fn z_score(&self, x: f64) -> f64 {
        (x - self.mean) / self.sd
    }

    /// Cumulative probability `P[X <= x]`.
    pub fn cdf(&self, x: f64) -> f64 {
        standard_cdf(self.z_score(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_reference_values() {
        // Φ(1) and Φ(2) from standard tables (15 digits).
        assert!((standard_cdf(1.0) - 0.841344746068543).abs() < 1e-13);
        assert!((standard_cdf(2.0) - 0.977249868051821).abs() < 1e-13);
        assert!((standard_cdf(-1.96) - 0.024997895148220).abs() < 1e-12);
    }

    #[test]
    fn cdf_symmetry() {
        let mut z = 0.0;
        while z <= 6.0 {
            let s = standard_cdf(z) + standard_cdf(-z);
            assert!((s - 1.0).abs() < 1e-13, "symmetry broken at {z}");
            z += 0.1;
        }
    }

    #[test]
    fn cdf_left_tail_precision() {
        // P[Z < -10] = P[Z > 10] = 7.619853024160527e-24 (mpmath).
        let got = standard_cdf(-10.0);
        let want = 7.619_853_024_160_527e-24;
        assert!(((got - want) / want).abs() < 1e-10, "got {got}");
    }

    #[test]
    fn quantile_round_trips() {
        for &p in &[1e-15, 1e-9, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-9] {
            let z = standard_quantile(p);
            let back = standard_cdf(z);
            assert!(
                (back - p).abs() < 1e-12 * p.max(1e-3),
                "cdf(quantile({p})) = {back}"
            );
        }
        hdoutlier_rng::for_each_case(0x9a55_0001, 256, |rng| {
            let p = hdoutlier_rng::Rng::gen_range(rng, 1e-6..0.999_999);
            let back = standard_cdf(standard_quantile(p));
            assert!((back - p).abs() < 1e-11, "cdf(quantile({p})) = {back}");
        });
    }

    #[test]
    fn quantile_known_points() {
        assert!((standard_quantile(0.5)).abs() < 1e-14);
        // Φ⁻¹(0.975) = 1.959963984540054.
        assert!((standard_quantile(0.975) - 1.959963984540054).abs() < 1e-11);
        // Φ⁻¹(0.001349898031630095) = -3 (the paper's s = -3 reference point).
        assert!((standard_quantile(0.001349898031630095) + 3.0).abs() < 1e-10);
    }

    #[test]
    fn quantile_edges() {
        assert_eq!(standard_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(standard_quantile(1.0), f64::INFINITY);
        assert!(standard_quantile(-0.1).is_nan());
        assert!(standard_quantile(1.1).is_nan());
        assert!(standard_quantile(f64::NAN).is_nan());
    }

    #[test]
    fn scaled_normal_behaves() {
        let n = Normal::new(10.0, 2.0).unwrap();
        assert!((n.cdf(10.0) - 0.5).abs() < 1e-14);
        assert!((n.cdf(12.0) - standard_cdf(1.0)).abs() < 1e-14);
        assert!((1.0 - n.cdf(14.0) - (1.0 - standard_cdf(2.0))).abs() < 1e-15);
        assert_eq!(n.z_score(14.0), 2.0);
    }

    #[test]
    fn invalid_normals_rejected() {
        assert!(Normal::new(0.0, 0.0).is_none());
        assert!(Normal::new(0.0, -1.0).is_none());
        assert!(Normal::new(f64::NAN, 1.0).is_none());
        assert!(Normal::new(0.0, f64::INFINITY).is_none());
    }
}
