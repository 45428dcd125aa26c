//! De Jong's convergence criterion (paper §2.1).
//!
//! "Dejong defined convergence of a *gene* as the stage at which 95 % of the
//! population had the same value for that gene. The population is said to
//! have converged when all genes have converged."
//!
//! Genomes are viewed as slices of discrete gene values (`u32`); the
//! generation loop in [`crate::evolutionary`] maps each projection string's
//! k constrained slots onto that view.

use std::collections::HashMap;

/// Fraction of the population sharing the most common value for each gene
/// position. Positions range over the *shortest* genome if lengths differ
/// (length disagreement means the population certainly has not converged,
/// and [`population_converged`] treats it so).
pub fn gene_convergence(population: &[Vec<u32>]) -> Vec<f64> {
    let len = population.iter().map(Vec::len).min().unwrap_or(0);
    let p = population.len() as f64;
    (0..len)
        .map(|g| {
            let mut counts: HashMap<u32, usize> = HashMap::new();
            for genome in population {
                *counts.entry(genome[g]).or_insert(0) += 1;
            }
            counts.values().copied().max().unwrap_or(0) as f64 / p
        })
        .collect()
}

/// De Jong's termination test: whether every gene position has converged
/// at `threshold` (De Jong used 0.95), returned beside the smallest
/// per-gene agreement it decided from (1 when there are no genes).
/// Populations with genomes of unequal length never converge; empty
/// populations are vacuously converged.
pub fn population_converged(population: &[Vec<u32>], threshold: f64) -> (bool, f64) {
    let shares = gene_convergence(population);
    let equal_lengths = population.windows(2).all(|w| w[0].len() == w[1].len());
    let converged = equal_lengths && shares.iter().all(|&f| f >= threshold);
    (converged, shares.into_iter().fold(1.0, f64::min))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_identical_population_is_converged() {
        let pop = vec![vec![1, 2, 3]; 20];
        assert_eq!(population_converged(&pop, 0.95), (true, 1.0));
        assert_eq!(gene_convergence(&pop), vec![1.0, 1.0, 1.0]);
        // Any genome, any population size, any threshold.
        hdoutlier_rng::for_each_case(0xc0a7_0001, 256, |rng| {
            use hdoutlier_rng::Rng;
            let len = rng.gen_range(0..8);
            let genome: Vec<u32> = (0..len).map(|_| rng.gen_range(0..9)).collect();
            let pop = vec![genome; rng.gen_range(1..20)];
            let threshold = rng.gen_range(0.05..1.0);
            assert!(
                population_converged(&pop, threshold).0,
                "{pop:?} at {threshold}"
            );
        });
    }

    #[test]
    fn exactly_at_threshold_converges() {
        // 19 of 20 share each gene: 0.95 exactly.
        let mut pop = vec![vec![1, 1]; 19];
        pop.push(vec![2, 2]);
        assert_eq!(population_converged(&pop, 0.95), (true, 0.95));
        assert!(!population_converged(&pop, 0.96).0);
    }

    #[test]
    fn one_diverse_gene_blocks_convergence() {
        // Gene 0 identical; gene 1 split 50/50.
        let mut pop = vec![vec![7, 0]; 10];
        pop.extend(vec![vec![7, 1]; 10]);
        let conv = gene_convergence(&pop);
        assert_eq!(conv[0], 1.0);
        assert_eq!(conv[1], 0.5);
        assert_eq!(population_converged(&pop, 0.95), (false, 0.5));
    }

    #[test]
    fn unequal_lengths_never_converge() {
        // The shared positions agree fully; the lengths still differ.
        let pop = vec![vec![1, 2], vec![1, 2, 3]];
        assert_eq!(population_converged(&pop, 0.5), (false, 1.0));
    }

    #[test]
    fn empty_population_is_vacuously_converged() {
        assert_eq!(population_converged(&[], 0.95), (true, 1.0));
        assert!(gene_convergence(&[]).is_empty());
    }

    #[test]
    fn single_member_population_is_converged() {
        assert!(population_converged(&[vec![3, 1, 4]], 0.95).0);
    }

    #[test]
    fn zero_length_genomes_are_converged() {
        let pop = vec![vec![], vec![]];
        assert!(population_converged(&pop, 0.95).0);
    }
}
