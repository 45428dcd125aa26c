//! The sparsity coefficient (paper Eq. 1) and the projection-parameter
//! selection rule (paper Eq. 2, §2.4).
//!
//! For a k-dimensional cube `D` in a grid with `φ` equi-depth ranges per
//! dimension, each range holds a fraction `f = 1/φ` of the `N` records. Under
//! attribute independence the occupancy `n(D)` is `Binomial(N, f^k)`, and the
//! sparsity coefficient standardizes it:
//!
//! ```text
//! S(D) = (n(D) − N·f^k) / sqrt(N·f^k·(1 − f^k))          (Eq. 1)
//! ```
//!
//! Strongly negative `S(D)` identifies cubes whose emptiness randomness
//! cannot justify; points inside such cubes are the paper's outliers.

use crate::binomial::Binomial;
use crate::normal::standard_cdf;

/// The (N, φ, k) triple every sparsity computation needs, validated once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparsityParams {
    /// Total number of records in the database.
    pub n_records: u64,
    /// Number of equi-depth grid ranges per dimension (`φ`).
    pub phi: u32,
    /// Dimensionality of the projections being scored (`k`).
    pub k: u32,
}

impl SparsityParams {
    /// Creates validated parameters.
    ///
    /// Returns `None` when any of the three is zero, or when `φ^k` overflows
    /// the range where `f^k` is representable (`φ^k` cannot exceed ~1e300).
    pub fn new(n_records: u64, phi: u32, k: u32) -> Option<Self> {
        if n_records == 0 || phi == 0 || k == 0 {
            return None;
        }
        // f^k = φ^{-k}; guard against underflow to exactly 0.
        let ln_fk = -(k as f64) * (phi as f64).ln();
        if ln_fk < -700.0 {
            return None;
        }
        Some(Self { n_records, phi, k })
    }

    /// The per-cube inclusion probability `f^k = φ^{-k}`.
    pub fn cell_probability(&self) -> f64 {
        (phi_f(self.phi)).powi(self.k as i32)
    }

    /// Expected cube occupancy `N·f^k`.
    pub fn expected_count(&self) -> f64 {
        self.n_records as f64 * self.cell_probability()
    }

    /// Standard deviation of cube occupancy, `sqrt(N·f^k·(1 − f^k))`.
    pub fn count_sd(&self) -> f64 {
        let fk = self.cell_probability();
        (self.n_records as f64 * fk * (1.0 - fk)).sqrt()
    }

    /// The sparsity coefficient `S(D)` of a cube containing `count` points.
    pub fn sparsity(&self, count: u64) -> f64 {
        (count as f64 - self.expected_count()) / self.count_sd()
    }

    /// The sparsity coefficient of an empty cube,
    /// `−sqrt(N·f^k / (1 − f^k)) = −sqrt(N / (φ^k − 1))` (paper §2.4).
    pub fn empty_cube_sparsity(&self) -> f64 {
        let phik = (self.phi as f64).powi(self.k as i32);
        -((self.n_records as f64) / (phik - 1.0)).sqrt()
    }

    /// The exact occupancy law `Binomial(N, f^k)` that Eq. 1 approximates.
    pub fn occupancy_law(&self) -> Binomial {
        Binomial::new(self.n_records, self.cell_probability())
            .expect("cell probability is always in [0, 1]")
    }

    /// Exact level of significance of a cube occupancy under the
    /// independence null: `P[Binomial(N, f^k) <= count]`.
    ///
    /// The paper's §1.3 reads significance off normal tables via Eq. 1;
    /// that reading is unreliable in the deep tail and in the starved
    /// `N·f^k ≲ 1` regime (see `repro params`). This is the honest number.
    pub fn exact_significance(&self, count: u64) -> f64 {
        self.occupancy_law().cdf(count)
    }

    /// Number of distinct k-dimensional cubes, `C(d, k)·φ^k`, for a
    /// d-dimensional dataset — the size of the brute-force search space
    /// (paper §3: d=20, k=4, φ=10 gives ≈ 7·10⁷).
    ///
    /// Returns `f64::INFINITY` when the count exceeds `f64::MAX`.
    pub fn search_space_size(&self, d: u32) -> f64 {
        if self.k > d {
            return 0.0;
        }
        let ln = crate::gamma::ln_choose(d as u64, self.k as u64)
            + self.k as f64 * (self.phi as f64).ln();
        if ln > 709.0 {
            f64::INFINITY
        } else {
            ln.exp()
        }
    }
}

fn phi_f(phi: u32) -> f64 {
    1.0 / phi as f64
}

/// Free-function form of Eq. 1 for callers that do not want to build a
/// [`SparsityParams`]:
/// `S = (count − N·f^k) / sqrt(N·f^k·(1 − f^k))` with `f = 1/φ`.
///
/// ```
/// use hdoutlier_stats::sparsity_coefficient;
/// // 10,000 points, φ = 10, k = 2: expected 100 per cube, sd ≈ 9.9499.
/// let s = sparsity_coefficient(70, 10_000, 10, 2);
/// assert!((s - (70.0 - 100.0) / (100.0f64 * (1.0 - 0.01)).sqrt()).abs() < 1e-12);
/// assert!(s < -3.0);
/// ```
pub fn sparsity_coefficient(count: u64, n_records: u64, phi: u32, k: u32) -> f64 {
    match SparsityParams::new(n_records, phi, k) {
        Some(p) => p.sparsity(count),
        None => f64::NAN,
    }
}

/// Expected occupancy `N·f^k` of a k-dimensional cube.
pub fn expected_count(n_records: u64, phi: u32, k: u32) -> f64 {
    match SparsityParams::new(n_records, phi, k) {
        Some(p) => p.expected_count(),
        None => f64::NAN,
    }
}

/// The sparsity coefficient of an empty cube, `−sqrt(N / (φ^k − 1))`.
pub fn empty_cube_coefficient(n_records: u64, phi: u32, k: u32) -> f64 {
    match SparsityParams::new(n_records, phi, k) {
        Some(p) => p.empty_cube_sparsity(),
        None => f64::NAN,
    }
}

/// Probabilistic level of significance of a sparsity coefficient under the
/// paper's normal-approximation reading: the probability that a cube drawn
/// from uniform data would be at least this sparse, `Φ(s)`.
///
/// A sparsity coefficient of −3 maps to ≈ 0.00135, i.e. the "99.9 % level of
/// significance" quoted in §2.4.
pub fn significance_of(sparsity: f64) -> f64 {
    standard_cdf(sparsity)
}

/// Eq. 2 / §2.4: the recommended projection dimensionality
/// `k* = ⌊log_φ(N/s² + 1)⌋` for a target empty-cube sparsity `s` (e.g. −3).
///
/// This is the largest `k` at which even an *empty* cube is still `|s|`
/// standard deviations below expectation; beyond it, high dimensionality
/// makes every cube sparse by default and the coefficient loses its meaning.
///
/// Returns `None` if the inputs are degenerate (`φ < 2`, `s == 0`, `N == 0`)
/// or the formula yields `k* < 1` (the dataset is too small for any
/// significant projection at this `φ` — the situation §2.4 illustrates with
/// `N < 10,000`, `φ = 10`, `k = 4`).
pub fn recommended_k(n_records: u64, phi: u32, target_sparsity: f64) -> Option<u32> {
    if n_records == 0 || phi < 2 {
        return None;
    }
    let s2 = target_sparsity * target_sparsity;
    if s2.is_nan() || s2 <= 0.0 {
        return None;
    }
    let arg = n_records as f64 / s2 + 1.0;
    let k = arg.ln() / (phi as f64).ln();
    let k = k.floor();
    if k < 1.0 {
        None
    } else {
        Some(k as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_count_and_sd() {
        let p = SparsityParams::new(10_000, 10, 2).unwrap();
        assert!((p.expected_count() - 100.0).abs() < 1e-12);
        let want_sd = (10_000.0f64 * 0.01 * 0.99).sqrt();
        assert!((p.count_sd() - want_sd).abs() < 1e-12);
    }

    #[test]
    fn sparsity_sign_convention() {
        let p = SparsityParams::new(10_000, 10, 2).unwrap();
        assert!(p.sparsity(0) < 0.0);
        assert!(p.sparsity(100).abs() < 1e-9); // exactly expected
        assert!(p.sparsity(200) > 0.0);
        // More points ⇒ larger (less negative) coefficient.
        assert!(p.sparsity(10) > p.sparsity(5));
    }

    #[test]
    fn empty_cube_formula_matches_eq1_at_zero() {
        let check = |n: u64, phi: u32, k: u32, tol: f64| {
            let p = SparsityParams::new(n, phi, k).unwrap();
            let direct = p.sparsity(0);
            let formula = p.empty_cube_sparsity();
            assert!(
                (direct - formula).abs() < tol,
                "({n},{phi},{k}): {direct} vs {formula}"
            );
        };
        for &(n, phi, k) in &[(10_000u64, 10u32, 3u32), (452, 5, 2), (1_000_000, 8, 4)] {
            check(n, phi, k, 1e-9);
        }
        hdoutlier_rng::for_each_case(0x5a25_0001, 256, |rng| {
            use hdoutlier_rng::Rng;
            check(
                rng.gen_range(10..100_000),
                rng.gen_range(2..12),
                rng.gen_range(1..5),
                1e-8,
            );
        });
    }

    #[test]
    fn significance_reference_point() {
        // §2.4: s = −3 ⇒ 99.9 % significance (i.e. lower-tail mass ≈ 0.00135).
        let sig = significance_of(-3.0);
        assert!((sig - 0.001349898031630095).abs() < 1e-12);
        assert!((significance_of(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn recommended_k_matches_closed_form() {
        // k* = floor(log_φ(N/s² + 1)).
        // N = 10^6, φ = 10, s = −3: log10(111112.1) ≈ 5.045 ⇒ k* = 5.
        assert_eq!(recommended_k(1_000_000, 10, -3.0), Some(5));
        // N = 10,000, φ = 10, s = −3: log10(1112.1) ≈ 3.046 ⇒ k* = 3.
        assert_eq!(recommended_k(10_000, 10, -3.0), Some(3));
        // N = 452 (arrhythmia), φ = 5, s = −3: log5(51.2) ≈ 2.446 ⇒ k* = 2.
        assert_eq!(recommended_k(452, 5, -3.0), Some(2));
    }

    #[test]
    fn recommended_k_degenerate_inputs() {
        assert_eq!(recommended_k(0, 10, -3.0), None);
        assert_eq!(recommended_k(100, 1, -3.0), None);
        assert_eq!(recommended_k(100, 10, 0.0), None);
        // Tiny N at large φ: no k ≥ 1 is significant.
        assert_eq!(recommended_k(5, 100, -3.0), None);
    }

    #[test]
    fn recommended_k_is_the_largest_significant_k() {
        // At k = k*, an empty cube is at least |s| sds below expectation;
        // at k* + 1 it is not.
        for &(n, phi) in &[(10_000u64, 10u32), (452, 5), (250_000, 7)] {
            let s = -3.0;
            let k = recommended_k(n, phi, s).unwrap();
            let at_k = empty_cube_coefficient(n, phi, k);
            let past_k = empty_cube_coefficient(n, phi, k + 1);
            assert!(at_k <= s, "({n},{phi}): empty at k*={k} gives {at_k}");
            assert!(past_k > s, "({n},{phi}): empty at k*+1 gives {past_k}");
        }
    }

    #[test]
    fn search_space_size_matches_paper_example() {
        // §3: d = 20, k = 4, φ = 10 ⇒ C(20,4)·10⁴ = 4845·10⁴ ≈ 4.8·10⁷
        // (the paper rounds to "7·10⁷" counting implementation constants; we
        // check the exact combinatorial count).
        let p = SparsityParams::new(10_000, 10, 4).unwrap();
        let size = p.search_space_size(20);
        assert!((size - 4845.0e4).abs() / 4845.0e4 < 1e-9, "size = {size}");
        // k > d ⇒ zero.
        assert_eq!(p.search_space_size(3), 0.0);
    }

    #[test]
    fn search_space_explodes_with_dimensionality() {
        let p = SparsityParams::new(10_000, 10, 4).unwrap();
        assert!(p.search_space_size(160) > 1e10); // the musk regime
                                                  // C(160,4)/C(20,4) ≈ 5.4e3: three extra orders of magnitude from d alone.
        assert!(p.search_space_size(160) > p.search_space_size(20) * 1e3);
    }

    #[test]
    fn params_validation() {
        assert!(SparsityParams::new(0, 10, 2).is_none());
        assert!(SparsityParams::new(10, 0, 2).is_none());
        assert!(SparsityParams::new(10, 10, 0).is_none());
        // φ^k overflow guard.
        assert!(SparsityParams::new(10, 10, 1000).is_none());
    }

    #[test]
    fn occupancy_law_agrees_with_eq1_moments() {
        let p = SparsityParams::new(5_000, 8, 3).unwrap();
        let law = p.occupancy_law();
        assert!((law.mean() - p.expected_count()).abs() < 1e-9);
        assert!((law.sd() - p.count_sd()).abs() < 1e-9);
    }

    #[test]
    fn free_functions_match_params() {
        let p = SparsityParams::new(2_000, 6, 2).unwrap();
        assert_eq!(sparsity_coefficient(7, 2_000, 6, 2), p.sparsity(7));
        assert_eq!(expected_count(2_000, 6, 2), p.expected_count());
        assert_eq!(empty_cube_coefficient(2_000, 6, 2), p.empty_cube_sparsity());
        assert!(sparsity_coefficient(7, 0, 6, 2).is_nan());
    }
}
