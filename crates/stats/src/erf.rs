//! The complementary error function, the primitive under the normal CDF.
//!
//! Built on the regularized incomplete gamma functions in [`crate::gamma`]
//! via `erfc(x) = Q(1/2, x^2)` and `erfc(-x) = 1 + P(1/2, x^2)` for
//! `x >= 0`. That route gives ~1e-13 relative accuracy everywhere,
//! including the deep right tail where the detector converts very negative
//! sparsity coefficients into significance levels.

use crate::gamma::{gamma_p, gamma_q};

/// The complementary error function
/// `erfc(x) = 1 - erf(x) = 2/sqrt(pi) * ∫_x^∞ exp(-t^2) dt`.
///
/// Decreasing, with `erfc(-x) = 2 - erfc(x)`. Computed directly (not as
/// `1 - erf`) so the right tail keeps full relative precision: `erfc(10)`
/// is about `2.1e-45` and would round to zero through the subtraction.
///
/// ```
/// use hdoutlier_stats::erf::erfc;
/// assert_eq!(erfc(0.0), 1.0);
/// assert!((erfc(1.0) - 0.1572992070502851).abs() < 1e-13);
/// assert!((erfc(-1.0) - 1.8427007929497149).abs() < 1e-13);
/// ```
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x == 0.0 {
        return 1.0;
    }
    // erfc(40) < 1e-695 underflows f64; saturate before x² can overflow.
    if x.abs() > 40.0 {
        return if x > 0.0 { 0.0 } else { 2.0 };
    }
    if x > 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

#[cfg(test)]
#[allow(clippy::excessive_precision)] // reference values quoted at full published precision
mod tests {
    use super::*;

    /// Reference values computed with mpmath at 50 digits.
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.1, 0.1124629160182848922033),
        (0.25, 0.2763263901682369017206),
        (0.5, 0.5204998778130465376827),
        (1.0, 0.8427007929497148693412),
        (1.5, 0.9661051464753107270669),
        (2.0, 0.9953222650189527341621),
        (3.0, 0.9999779095030014145586),
        (4.0, 0.9999999845827420997200),
        (5.0, 0.9999999999984625402056),
    ];

    const ERFC_TABLE: &[(f64, f64)] = &[
        (0.5, 0.4795001221869534623173),
        (1.0, 0.1572992070502851306588),
        (2.0, 0.004677734981063094173),
        (3.0, 2.209049699858544137280e-5),
        (4.0, 1.541725790028001885216e-8),
        (5.0, 1.537459794428034850188e-12),
        (6.0, 2.151973671249891311659e-17),
        (8.0, 1.122429717298292707997e-29),
        (10.0, 2.088487583762544757001e-45),
    ];

    #[test]
    fn erfc_matches_one_minus_the_erf_reference() {
        for &(x, erf) in ERF_TABLE {
            let got = erfc(x);
            assert!((got - (1.0 - erf)).abs() <= 1e-13, "erfc({x}) = {got}");
            let mirrored = erfc(-x);
            assert!(
                (mirrored - (1.0 + erf)).abs() <= 1e-13,
                "erfc(-{x}) = {mirrored}"
            );
        }
    }

    #[test]
    fn erfc_matches_reference_with_relative_precision() {
        for &(x, want) in ERFC_TABLE {
            let got = erfc(x);
            let rel = ((got - want) / want).abs();
            assert!(rel <= 1e-11, "erfc({x}) = {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn erfc_negative_arguments() {
        assert!((erfc(-1.0) - (2.0 - erfc(1.0))).abs() < 1e-13);
        assert!((erfc(-5.0) - 2.0).abs() < 1e-11);
    }

    #[test]
    fn erfc_extremes() {
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert!((erfc(f64::NEG_INFINITY) - 2.0).abs() < 1e-15);
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    fn erfc_is_decreasing_on_grid() {
        let mut prev = erfc(-6.0);
        let mut x = -6.0;
        while x <= 6.0 {
            let v = erfc(x);
            assert!(v <= prev, "erfc not decreasing at {x}");
            prev = v;
            x += 0.01;
        }
    }

    #[test]
    fn erfc_reflects_about_one() {
        let check = |x: f64| {
            let s = erfc(x) + erfc(-x);
            assert!((s - 2.0).abs() < 1e-12, "erfc({x}) + erfc({}) = {s}", -x);
        };
        let mut x = -5.0;
        while x <= 5.0 {
            check(x);
            x += 0.037;
        }
        hdoutlier_rng::for_each_case(0xe7f0_0001, 256, |rng| {
            check(hdoutlier_rng::Rng::gen_range(rng, -6.0..6.0));
        });
    }
}
