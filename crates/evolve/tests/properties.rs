//! Seeded property tests for the evolutionary-search substrate: selection
//! schemes and convergence detection. All run on
//! [`hdoutlier_rng::for_each_case`]; a failing case prints the seed that
//! replays it alone.

use hdoutlier_evolve::{gene_convergence, population_converged, SelectionScheme};
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{for_each_case, Rng};

fn fitness(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<f64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect()
}

fn population(
    rng: &mut StdRng,
    size: std::ops::Range<usize>,
    genes: usize,
    alleles: u32,
) -> Vec<Vec<u32>> {
    let n = rng.gen_range(size);
    (0..n)
        .map(|_| (0..genes).map(|_| rng.gen_range(0..alleles)).collect())
        .collect()
}

#[test]
fn selection_returns_one_valid_index_per_member() {
    for_each_case(0xe70e_0001, 256, |rng| {
        let fitness = fitness(rng, 1..40);
        for scheme in [
            SelectionScheme::RankRoulette,
            SelectionScheme::FitnessProportional,
            SelectionScheme::Tournament { size: 3 },
        ] {
            let selected = scheme.select(&fitness, rng);
            assert_eq!(selected.len(), fitness.len(), "{scheme:?}");
            assert!(selected.iter().all(|&i| i < fitness.len()), "{scheme:?}");
        }
    });
}

/// Rank roulette weights the string of 1-based rank `r` by `p − r` (Fig. 4),
/// so the worst string, the one with the largest fitness, gets weight zero.
#[test]
fn rank_roulette_never_selects_the_unique_worst() {
    for_each_case(0xe70e_0002, 256, |rng| {
        let mut fitness = fitness(rng, 2..30);
        let max = fitness.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let worst = fitness.iter().position(|&f| f == max).unwrap();
        fitness[worst] = max + 1.0;
        for _ in 0..20 {
            let selected = SelectionScheme::RankRoulette.select(&fitness, rng);
            assert!(
                !selected.contains(&worst),
                "picked the worst, {worst}, of {fitness:?}"
            );
        }
    });
}

#[test]
fn convergence_at_a_strict_threshold_implies_it_at_a_loose_one() {
    for_each_case(0xe70e_0003, 256, |rng| {
        let pop = population(rng, 1..30, 5, 4);
        let (t1, t2) = (rng.gen_range(0.1..1.0), rng.gen_range(0.1..1.0));
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        if population_converged(&pop, hi) {
            assert!(population_converged(&pop, lo), "{pop:?}: {hi} but not {lo}");
        }
    });
}

#[test]
fn gene_convergence_lies_between_one_member_and_all() {
    for_each_case(0xe70e_0004, 256, |rng| {
        let pop = population(rng, 1..40, 4, 6);
        let conv = gene_convergence(&pop);
        assert_eq!(conv.len(), 4);
        let min_share = 1.0 / pop.len() as f64;
        for &c in &conv {
            assert!(
                c >= min_share - 1e-12 && c <= 1.0 + 1e-12,
                "{conv:?} of {pop:?}"
            );
        }
    });
}
