//! Log-gamma and regularized incomplete gamma functions.
//!
//! These are the numeric workhorses of the crate: `erf`/`erfc` are thin
//! wrappers over `P(1/2, x^2)` / `Q(1/2, x^2)`, and the exact binomial
//! occupancy tails use `ln_gamma` through `ln_choose`.

/// Natural log of the absolute value of the gamma function, `ln|Γ(x)|`.
///
/// Lanczos approximation (g = 7, 9 terms), with the reflection formula for
/// `x < 0.5`. Accurate to about 1e-13 relative over the positive axis.
///
/// ```
/// use hdoutlier_stats::gamma::ln_gamma;
/// assert!((ln_gamma(1.0)).abs() < 1e-12);          // Γ(1) = 1
/// assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-11); // Γ(5) = 24
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients are quoted at full published precision.
    #[allow(clippy::excessive_precision)]
    const G: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_59,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.5 {
        if x <= 0.0 && x == x.floor() {
            return f64::INFINITY; // poles at non-positive integers
        }
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx).
        let s = (std::f64::consts::PI * x).sin();
        return std::f64::consts::PI.ln() - s.abs().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = G[0];
    let t = x + 7.5;
    for (i, &g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `ln(n choose k)` as `ln Γ(n+1) − ln Γ(k+1) − ln Γ(n−k+1)`.
///
/// Finite for any `n`, but the three Lanczos values it subtracts grow like
/// `n ln n`, and their rounding is the result's absolute error: about 1e-11
/// for `n ≤ 10⁴` and about 1e-9 near `n = 10⁶` (where `ln Γ(n+1) ≈ 1.3e7`).
/// Through `exp` that is the same relative error in a binomial PMF.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

const MAX_ITER: usize = 500;
const EPS: f64 = 1e-16;
const FPMIN: f64 = f64::MIN_POSITIVE / EPS;

/// Regularized lower incomplete gamma `P(a, x) = γ(a, x) / Γ(a)`.
///
/// `P(a, 0) = 0`, `P(a, ∞) = 1`, monotone increasing in `x`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    if a.is_nan() || a <= 0.0 || x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 - P(a, x)`.
///
/// Computed directly in the right tail so tiny values keep relative precision.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    if a.is_nan() || a <= 0.0 || x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series representation of `P(a, x)`, efficient for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut term = 1.0 / a;
    let mut sum = term;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued-fraction (modified Lentz) representation of `Q(a, x)`,
/// efficient for `x >= a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    let log_prefactor = -x + a * x.ln() - ln_gamma(a);
    if log_prefactor < -745.0 {
        return 0.0; // underflow: the tail really is below f64::MIN_POSITIVE
    }
    log_prefactor.exp() * h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_integer_factorials() {
        let mut fact = 1.0f64;
        for n in 1..20u32 {
            if n > 1 {
                fact *= (n - 1) as f64;
            }
            let got = ln_gamma(n as f64);
            let want = fact.ln();
            assert!(
                (got - want).abs() <= 1e-10 * want.abs().max(1.0),
                "ln_gamma({n}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn ln_gamma_half_integers() {
        // Γ(1/2) = sqrt(π), Γ(3/2) = sqrt(π)/2, Γ(5/2) = 3 sqrt(π)/4.
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!((ln_gamma(0.5) - sqrt_pi.ln()).abs() < 1e-12);
        assert!((ln_gamma(1.5) - (sqrt_pi / 2.0).ln()).abs() < 1e-12);
        assert!((ln_gamma(2.5) - (3.0 * sqrt_pi / 4.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_reflection_region() {
        // Γ(-0.5) = -2 sqrt(π); ln|Γ| = ln(2 sqrt(π)).
        let want = (2.0 * std::f64::consts::PI.sqrt()).ln();
        assert!((ln_gamma(-0.5) - want).abs() < 1e-11);
    }

    #[test]
    fn ln_gamma_poles() {
        assert_eq!(ln_gamma(0.0), f64::INFINITY);
        assert_eq!(ln_gamma(-1.0), f64::INFINITY);
        assert_eq!(ln_gamma(-2.0), f64::INFINITY);
    }

    #[test]
    fn ln_choose_small_cases() {
        assert!((ln_choose(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((ln_choose(10, 5) - 252f64.ln()).abs() < 1e-12);
        assert!((ln_choose(4, 0)).abs() < 1e-12);
        assert!((ln_choose(4, 4)).abs() < 1e-12);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn ln_choose_large_is_finite_and_symmetric() {
        let a = ln_choose(1_000_000, 1234);
        let b = ln_choose(1_000_000, 1_000_000 - 1234);
        assert!(a.is_finite());
        assert!((a - b).abs() < 1e-6 * a.abs());
    }

    #[test]
    fn gamma_p_q_sum_to_one() {
        let check = |a: f64, x: f64, tol: f64| {
            let (p, q) = (gamma_p(a, x), gamma_q(a, x));
            assert!((0.0..=1.0 + 1e-12).contains(&p), "P({a}, {x}) = {p}");
            assert!((0.0..=1.0 + 1e-12).contains(&q), "Q({a}, {x}) = {q}");
            assert!((p + q - 1.0).abs() < tol, "P+Q at a={a}, x={x} = {}", p + q);
        };
        for &a in &[0.5, 1.0, 2.5, 10.0, 100.0] {
            for &x in &[0.01, 0.5, 1.0, 5.0, 50.0, 200.0] {
                check(a, x, 1e-12);
            }
        }
        hdoutlier_rng::for_each_case(0x6a3a_0001, 256, |rng| {
            use hdoutlier_rng::Rng;
            check(rng.gen_range(0.1..50.0), rng.gen_range(0.0..100.0), 1e-11);
        });
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // P(1, x) = 1 - exp(-x).
        for &x in &[0.1f64, 0.5, 1.0, 2.0, 5.0] {
            let want = 1.0 - (-x).exp();
            assert!((gamma_p(1.0, x) - want).abs() < 1e-13);
        }
    }

    #[test]
    fn gamma_q_chi_square_tail() {
        // Q(1/2, x) = erfc(sqrt(x)); check against a reference value:
        // erfc(2) = 0.004677734981063094173...
        let got = gamma_q(0.5, 4.0);
        let want = 0.004_677_734_981_063_094;
        assert!(((got - want) / want).abs() < 1e-11, "got {got}");
    }

    #[test]
    fn gamma_edge_cases() {
        assert_eq!(gamma_p(2.0, 0.0), 0.0);
        assert_eq!(gamma_q(2.0, 0.0), 1.0);
        assert!(gamma_p(-1.0, 1.0).is_nan());
        assert!(gamma_p(1.0, -1.0).is_nan());
        assert!(gamma_p(1.0, f64::NAN).is_nan());
    }

    #[test]
    fn gamma_p_is_monotone_in_x() {
        for &a in &[0.5, 3.0, 20.0] {
            let mut prev = 0.0;
            let mut x = 0.0;
            while x < 60.0 {
                let v = gamma_p(a, x);
                assert!(v + 1e-15 >= prev, "P({a}, {x}) decreased");
                prev = v;
                x += 0.25;
            }
        }
    }

    #[test]
    fn gamma_q_deep_tail_underflows_to_zero_gracefully() {
        let v = gamma_q(0.5, 800.0);
        assert!((0.0..1e-300).contains(&v));
    }
}
