//! Seeded synthesis helpers the custom packs share: correlated factor-group
//! rows, matching the construction in `hdoutlier_data::generators` and
//! drawn from its Box–Muller sampler.

use hdoutlier_data::generators::standard_normal;
use hdoutlier_rng::Rng;

/// One row of the correlated factor-group model: dimensions are covered by
/// consecutive groups of `group_size`, each sharing a latent factor with
/// loading `strength(group)`; marginals stay N(0, 1).
pub fn factor_row<R: Rng>(
    rng: &mut R,
    n_dims: usize,
    group_size: usize,
    strength: impl Fn(usize) -> f64,
) -> Vec<f64> {
    let n_groups = n_dims.div_ceil(group_size);
    let factors: Vec<f64> = (0..n_groups).map(|_| standard_normal(rng)).collect();
    (0..n_dims)
        .map(|j| {
            let g = j / group_size;
            let s = strength(g);
            let eps = standard_normal(rng);
            s * factors[g] + (1.0 - s * s).sqrt() * eps
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_rng::rngs::StdRng;
    use hdoutlier_rng::SeedableRng;

    #[test]
    fn strong_groups_correlate_and_weak_groups_do_not() {
        let mut rng = StdRng::seed_from_u64(11);
        let rows: Vec<Vec<f64>> = (0..4000)
            .map(|_| factor_row(&mut rng, 4, 2, |g| if g == 0 { 0.9 } else { 0.0 }))
            .collect();
        let corr = |a: usize, b: usize| {
            let n = rows.len() as f64;
            let ma = rows.iter().map(|r| r[a]).sum::<f64>() / n;
            let mb = rows.iter().map(|r| r[b]).sum::<f64>() / n;
            let cov: f64 = rows.iter().map(|r| (r[a] - ma) * (r[b] - mb)).sum::<f64>() / n;
            let va: f64 = rows.iter().map(|r| (r[a] - ma).powi(2)).sum::<f64>() / n;
            let vb: f64 = rows.iter().map(|r| (r[b] - mb).powi(2)).sum::<f64>() / n;
            cov / (va.sqrt() * vb.sqrt())
        };
        assert!(corr(0, 1) > 0.7, "strong pair {}", corr(0, 1));
        assert!(corr(2, 3).abs() < 0.1, "weak pair {}", corr(2, 3));
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            factor_row(&mut rng, 6, 3, |_| 0.8)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
