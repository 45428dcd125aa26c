//! Mutation operators (paper Fig. 6).
//!
//! Two types, applied independently per string each generation:
//!
//! - **Type I** (probability `p1`): swap a star with a non-star — convert a
//!   random star position to a random range `1..=φ` and a random non-star
//!   position to `*`. The projection's dimensionality is preserved.
//! - **Type II** (probability `p2`): re-randomize the range of one non-star
//!   position.
//!
//! The paper uses `p1 = p2`; both are configurable for the ablation bench.

use crate::projection::{Projection, STAR};
use hdoutlier_rng::Rng;

/// Mutation configuration.
#[derive(Debug, Clone, Copy)]
pub struct MutationConfig {
    /// Probability of a Type-I (star/non-star swap) mutation.
    pub p1: f64,
    /// Probability of a Type-II (range re-randomization) mutation.
    pub p2: f64,
    /// Number of grid ranges (`φ`); new range values are uniform in `0..phi`.
    pub phi: u32,
}

impl MutationConfig {
    /// The paper's setting: equal Type-I and Type-II rates.
    pub fn symmetric(p: f64, phi: u32) -> Self {
        Self { p1: p, p2: p, phi }
    }
}

/// Applies Fig. 6 to one projection in place.
///
/// Positions are picked by their rank among the stars or the constrained
/// positions, found by scanning the genes; the random draws are the rank
/// of the star to fill, the rank of the position to clear, then the range.
pub fn mutate<R: Rng>(projection: &mut Projection, config: &MutationConfig, rng: &mut R) {
    debug_assert!(config.phi > 0);
    let d = projection.d();
    // Type I: swap a star with a non-star (no-op if either set is empty).
    if rng.gen::<f64>() < config.p1 {
        let k = projection.k();
        if k < d && k > 0 {
            let to_fill = nth_position(projection, true, rng.gen_range(0..d - k));
            let to_clear = nth_position(projection, false, rng.gen_range(0..k));
            projection.set_gene(to_fill, rng.gen_range(0..config.phi) as u16);
            projection.set_gene(to_clear, STAR);
        }
    }
    // Type II: re-randomize one constrained position.
    if rng.gen::<f64>() < config.p2 {
        let k = projection.k();
        if k > 0 {
            let pos = nth_position(projection, false, rng.gen_range(0..k));
            projection.set_gene(pos, rng.gen_range(0..config.phi) as u16);
        }
    }
}

/// The position of the `n`-th (0-based) star, or of the `n`-th constrained
/// gene when `star` is false.
fn nth_position(projection: &Projection, star: bool, n: usize) -> usize {
    projection
        .genes()
        .iter()
        .enumerate()
        .filter(|&(_, &g)| (g == STAR) == star)
        .nth(n)
        .expect("n is below the number of such positions")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_rng::rngs::StdRng;
    use hdoutlier_rng::SeedableRng;

    fn positions(p: &Projection) -> Vec<u32> {
        p.pairs().map(|(pos, _)| pos).collect()
    }

    #[test]
    fn preserves_dimensionality() {
        let mut rng = StdRng::seed_from_u64(31);
        let config = MutationConfig::symmetric(1.0, 5);
        for _ in 0..200 {
            let mut p = Projection::random(8, 3, 5, &mut rng);
            mutate(&mut p, &config, &mut rng);
            assert_eq!(p.k(), 3, "mutation changed dimensionality: {p}");
            assert!(p.pairs().all(|(_, g)| g < 5), "{p}");
        }
    }

    #[test]
    fn zero_probability_is_identity() {
        let mut rng = StdRng::seed_from_u64(32);
        let config = MutationConfig::symmetric(0.0, 5);
        let p0 = Projection::random(8, 3, 5, &mut rng);
        let mut p = p0.clone();
        for _ in 0..50 {
            mutate(&mut p, &config, &mut rng);
        }
        assert_eq!(p, p0);
    }

    #[test]
    fn type1_moves_constrained_positions() {
        // With only Type I enabled, the set of constrained positions must
        // eventually change, while k stays fixed.
        let mut rng = StdRng::seed_from_u64(33);
        let config = MutationConfig {
            p1: 1.0,
            p2: 0.0,
            phi: 4,
        };
        let p0 = Projection::random(10, 2, 4, &mut rng);
        let mut p = p0.clone();
        let mut moved = false;
        for _ in 0..20 {
            mutate(&mut p, &config, &mut rng);
            assert_eq!(p.k(), 2);
            if positions(&p) != positions(&p0) {
                moved = true;
            }
        }
        assert!(moved, "Type I never moved a position in 20 tries");
    }

    #[test]
    fn type2_changes_values_not_positions() {
        let mut rng = StdRng::seed_from_u64(34);
        let config = MutationConfig {
            p1: 0.0,
            p2: 1.0,
            phi: 9,
        };
        let p0 = Projection::random(10, 3, 9, &mut rng);
        let mut p = p0.clone();
        let mut changed = false;
        for _ in 0..30 {
            mutate(&mut p, &config, &mut rng);
            assert_eq!(positions(&p), positions(&p0), "Type II moved a position");
            if p != p0 {
                changed = true;
            }
        }
        assert!(changed, "Type II never changed a value");
    }

    #[test]
    fn degenerate_projections_survive() {
        let mut rng = StdRng::seed_from_u64(35);
        let config = MutationConfig::symmetric(1.0, 3);
        // All-star: no constrained position to swap or re-randomize.
        let mut p = Projection::all_star(4);
        mutate(&mut p, &config, &mut rng);
        assert_eq!(p, Projection::all_star(4));
        // Fully constrained: no star to swap into.
        let mut p = Projection::from_genes(vec![0, 1, 2, 0]);
        mutate(&mut p, &config, &mut rng);
        assert_eq!(p.k(), 4);
    }
}
