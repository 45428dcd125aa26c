//! De Jong's convergence criterion (paper §2.1).
//!
//! "Dejong defined convergence of a *gene* as the stage at which 95 % of the
//! population had the same value for that gene. The population is said to
//! have converged when all genes have converged."
//!
//! Genomes are viewed as slices of discrete gene values (`u32`); the
//! problem adapter in `hdoutlier-core` maps projection strings onto that
//! view.

use std::collections::HashMap;

/// Fraction of the population sharing the most common value for each gene
/// position. Positions range over the *shortest* genome if lengths differ
/// (length disagreement means the population certainly has not converged,
/// and the engine treats it so).
pub fn gene_convergence(population: &[Vec<u32>]) -> Vec<f64> {
    let Some(first) = population.first() else {
        return Vec::new();
    };
    let len = population.iter().map(Vec::len).min().unwrap_or(0);
    let _ = first;
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

/// Whether every gene position has converged at `threshold` (De Jong used
/// 0.95). Populations with genomes of unequal length never converge; empty
/// populations are vacuously converged.
pub fn population_converged(population: &[Vec<u32>], threshold: f64) -> bool {
    if population.is_empty() {
        return true;
    }
    let len = population[0].len();
    if population.iter().any(|g| g.len() != len) {
        return false;
    }
    gene_convergence(population).iter().all(|&f| f >= threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_identical_population_is_converged() {
        let pop = vec![vec![1, 2, 3]; 20];
        assert!(population_converged(&pop, 0.95));
        assert_eq!(gene_convergence(&pop), vec![1.0, 1.0, 1.0]);
        // Any genome, any population size, any threshold.
        hdoutlier_rng::for_each_case(0xc0a7_0001, 256, |rng| {
            use hdoutlier_rng::Rng;
            let len = rng.gen_range(0..8);
            let genome: Vec<u32> = (0..len).map(|_| rng.gen_range(0..9)).collect();
            let pop = vec![genome; rng.gen_range(1..20)];
            let threshold = rng.gen_range(0.05..1.0);
            assert!(
                population_converged(&pop, threshold),
                "{pop:?} at {threshold}"
            );
        });
    }

    #[test]
    fn exactly_at_threshold_converges() {
        // 19 of 20 share each gene: 0.95 exactly.
        let mut pop = vec![vec![1, 1]; 19];
        pop.push(vec![2, 2]);
        assert!(population_converged(&pop, 0.95));
        assert!(!population_converged(&pop, 0.96));
    }

    #[test]
    fn one_diverse_gene_blocks_convergence() {
        // Gene 0 identical; gene 1 split 50/50.
        let mut pop = vec![vec![7, 0]; 10];
        pop.extend(vec![vec![7, 1]; 10]);
        let conv = gene_convergence(&pop);
        assert_eq!(conv[0], 1.0);
        assert_eq!(conv[1], 0.5);
        assert!(!population_converged(&pop, 0.95));
    }

    #[test]
    fn unequal_lengths_never_converge() {
        let pop = vec![vec![1, 2], vec![1, 2, 3]];
        assert!(!population_converged(&pop, 0.5));
    }

    #[test]
    fn empty_population_is_vacuously_converged() {
        assert!(population_converged(&[], 0.95));
        assert!(gene_convergence(&[]).is_empty());
    }

    #[test]
    fn single_member_population_is_converged() {
        assert!(population_converged(&[vec![3, 1, 4]], 0.95));
    }

    #[test]
    fn zero_length_genomes_are_converged() {
        let pop = vec![vec![], vec![]];
        assert!(population_converged(&pop, 0.95));
    }
}
