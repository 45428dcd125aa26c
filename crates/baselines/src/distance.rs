//! Minkowski distance metrics.
//!
//! The paper's critique of full-dimensional L_p norms (§1) is exactly about
//! these functions: in high dimension their values concentrate and stop
//! discriminating. They are implemented here because the baselines need
//! them — and the benchmark harness uses them to *demonstrate* the
//! concentration.

/// Which L_p norm the baselines use.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Metric {
    /// L1 (Manhattan).
    Manhattan,
    /// L2 (Euclidean) — the default everywhere in the paper's comparators.
    #[default]
    Euclidean,
    /// L_p for arbitrary `p >= 1`.
    Minkowski(f64),
    /// L_∞ (Chebyshev).
    Chebyshev,
}

impl Metric {
    /// Distance between two equal-length vectors.
    ///
    /// # Panics
    /// Panics (debug) on length mismatch; NaNs propagate.
    #[inline]
    pub fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "vector length mismatch");
        match self {
            Metric::Manhattan => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum(),
            Metric::Euclidean => self.squared(a, b).sqrt(),
            Metric::Minkowski(p) => {
                debug_assert!(*p >= 1.0, "Minkowski order must be >= 1");
                a.iter()
                    .zip(b)
                    .map(|(x, y)| (x - y).abs().powf(*p))
                    .sum::<f64>()
                    .powf(1.0 / p)
            }
            Metric::Chebyshev => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max),
        }
    }

    /// Squared Euclidean distance (cheaper for comparisons); for other
    /// metrics this is `distance²`.
    #[inline]
    pub fn squared(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            Metric::Euclidean => a
                .iter()
                .zip(b)
                .map(|(x, y)| {
                    let d = x - y;
                    d * d
                })
                .sum(),
            other => {
                let d = other.distance(a, b);
                d * d
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 3] = [1.0, 2.0, 3.0];
    const B: [f64; 3] = [4.0, 6.0, 3.0];

    #[test]
    fn euclidean() {
        // sqrt(9 + 16 + 0) = 5.
        assert!((Metric::Euclidean.distance(&A, &B) - 5.0).abs() < 1e-12);
        assert!((Metric::Euclidean.squared(&A, &B) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn manhattan() {
        assert!((Metric::Manhattan.distance(&A, &B) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn chebyshev() {
        assert!((Metric::Chebyshev.distance(&A, &B) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn minkowski_interpolates() {
        // p = 1 matches Manhattan, p = 2 matches Euclidean.
        assert!(
            (Metric::Minkowski(1.0).distance(&A, &B) - Metric::Manhattan.distance(&A, &B)).abs()
                < 1e-12
        );
        assert!(
            (Metric::Minkowski(2.0).distance(&A, &B) - Metric::Euclidean.distance(&A, &B)).abs()
                < 1e-12
        );
        // Large p approaches Chebyshev.
        let p100 = Metric::Minkowski(100.0).distance(&A, &B);
        assert!((p100 - 4.0).abs() < 0.1, "{p100}");
    }

    const METRICS: [Metric; 4] = [
        Metric::Manhattan,
        Metric::Euclidean,
        Metric::Minkowski(3.0),
        Metric::Chebyshev,
    ];

    /// Three random points in `±50³`.
    fn random_points(rng: &mut hdoutlier_rng::rngs::StdRng) -> [[f64; 3]; 3] {
        use hdoutlier_rng::Rng;
        [(); 3].map(|_| [(); 3].map(|_| rng.gen_range(-50.0..50.0)))
    }

    #[test]
    fn identity_and_symmetry() {
        let check = |a: &[f64], b: &[f64]| {
            for m in METRICS {
                assert_eq!(m.distance(a, a), 0.0, "{m:?} at {a:?}");
                assert!(
                    (m.distance(a, b) - m.distance(b, a)).abs() < 1e-12,
                    "{m:?} at {a:?}, {b:?}"
                );
                assert!(m.distance(a, b) > 0.0, "{m:?} at {a:?}, {b:?}");
            }
        };
        check(&A, &B);
        hdoutlier_rng::for_each_case(0xba5e_0001, 64, |rng| {
            let [a, b, _] = random_points(rng);
            check(&a, &b);
        });
    }

    #[test]
    fn triangle_inequality() {
        let c = [0.0, -1.0, 7.0];
        let ab = Metric::Euclidean.distance(&A, &B);
        let bc = Metric::Euclidean.distance(&B, &c);
        let ac = Metric::Euclidean.distance(&A, &c);
        assert!(ac <= ab + bc + 1e-12);
        // Every metric, on random points.
        hdoutlier_rng::for_each_case(0xba5e_0002, 64, |rng| {
            let [a, b, c] = random_points(rng);
            for m in METRICS {
                assert!(
                    m.distance(&a, &c) <= m.distance(&a, &b) + m.distance(&b, &c) + 1e-9,
                    "{m:?} at {a:?}, {b:?}, {c:?}"
                );
            }
        });
    }
}
