//! Seeded property tests for the detector's genetic operators, fitness and
//! verdict rule: crossover and mutation keep exactly k non-star genes and
//! build children from parent material only, selection returns valid
//! parents, De Jong convergence is monotone in its threshold, infeasible
//! strings never score, and a fitted model matches records by one rule
//! wherever it is applied. All run on [`hdoutlier_rng::for_each_case`]; a
//! failing case prints the seed that replays it alone.

use hdoutlier_core::convergence::GeneView;
use hdoutlier_core::crossover::{optimized, two_point, two_point_at};
use hdoutlier_core::fitness::SparsityFitness;
use hdoutlier_core::mutation::{mutate, MutationConfig};
use hdoutlier_core::projection::{Projection, STAR};
use hdoutlier_core::{FittedModel, ScoredProjection, SelectionScheme};
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_data::generators::uniform;
use hdoutlier_data::GridSpec;
use hdoutlier_index::BitmapCounter;
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{for_each_case, Rng};
use hdoutlier_stream::OnlineScorer;

const D: usize = 8;
const PHI: u32 = 4;

/// A bitmap counter over 400 uniform rows, the grid the fitness reads.
fn fixture() -> BitmapCounter {
    let ds = uniform(400, D, 1234);
    BitmapCounter::new(&Discretized::new(&ds, PHI, DiscretizeStrategy::EquiDepth).unwrap())
}

#[test]
fn mutation_keeps_exactly_k_non_stars() {
    for_each_case(0xc04e_0001, 64, |rng| {
        let k = rng.gen_range(1..D);
        let config = MutationConfig {
            p1: rng.gen_range(0.0..1.0),
            p2: rng.gen_range(0.0..1.0),
            ..MutationConfig::symmetric(1.0, PHI)
        };
        let mut q = Projection::random(D, k, PHI, rng);
        for _ in 0..5 {
            mutate(&mut q, &config, rng);
            assert_eq!(q.k(), k, "{q} after mutation with {config:?}");
            assert!(q.pairs().all(|(_, g)| g < PHI as u16), "{q}");
        }
    });
}

#[test]
fn two_point_children_partition_the_parents_genes() {
    for_each_case(0xc04e_0002, 64, |rng| {
        let a = Projection::random(D, 3, PHI, rng);
        let b = Projection::random(D, 3, PHI, rng);
        let (c, d) = two_point(&a, &b, rng);
        for pos in 0..D {
            // At each position, {c, d} carry exactly {a, b}'s genes.
            let mut got = [c.gene(pos), d.gene(pos)];
            let mut want = [a.gene(pos), b.gene(pos)];
            got.sort();
            want.sort();
            assert_eq!(got, want, "position {pos} of {a} × {b}");
        }
    });
}

#[test]
fn two_point_at_is_an_involution() {
    for_each_case(0xc04e_0003, 64, |rng| {
        let a = Projection::random(D, 2, PHI, rng);
        let b = Projection::random(D, 2, PHI, rng);
        let lo = rng.gen_range(0..D - 1);
        let hi = (lo + rng.gen_range(1usize..4)).min(D);
        let (c, d) = two_point_at(&a, &b, lo, hi);
        let (a2, b2) = two_point_at(&c, &d, lo, hi);
        assert_eq!(a2, a, "cut {lo}..{hi}");
        assert_eq!(b2, b, "cut {lo}..{hi}");
    });
}

#[test]
fn optimized_crossover_keeps_k_and_uses_only_parent_material() {
    let counter = fixture();
    for_each_case(0xc04e_0004, 64, |rng| {
        let k = rng.gen_range(1..5);
        let fitness = SparsityFitness::new(&counter, k);
        let a = Projection::random(D, k, PHI, rng);
        let b = Projection::random(D, k, PHI, rng);
        let (c, d) = optimized(&a, &b, &fitness, rng);
        for child in [&c, &d] {
            assert_eq!(child.k(), k, "child {child} of {a} × {b} infeasible");
            for pos in 0..D {
                let g = child.gene(pos);
                assert!(
                    g.is_none() || g == a.gene(pos) || g == b.gene(pos),
                    "child {child} of {a} × {b}: position {pos} is new material"
                );
            }
        }
    });
}

#[test]
fn infeasible_strings_score_infinity() {
    let counter = fixture();
    let fitness = SparsityFitness::new(&counter, 3);
    for_each_case(0xc04e_0005, 64, |rng| {
        let k = rng.gen_range(0..=D);
        let p = Projection::random(D, k, PHI, rng);
        if k == 3 {
            assert!(fitness.evaluate(&p).is_finite(), "{p}");
        } else {
            assert_eq!(fitness.evaluate(&p), f64::INFINITY, "{p}");
        }
    });
}

#[test]
fn projection_display_parses_back() {
    for_each_case(0xc04e_0006, 64, |rng| {
        let p = Projection::random(D, 3, PHI, rng);
        // Display for φ <= 9 is one character per position: `*` or the
        // 1-based range.
        let genes: Vec<u16> = p
            .to_string()
            .chars()
            .map(|c| match c {
                '*' => STAR,
                c => c.to_digit(10).unwrap() as u16 - 1,
            })
            .collect();
        assert_eq!(Projection::from_genes(genes), p);
    });
}

/// `FittedModel::match_cells` on random models (k ≤ 3, tied sparsities,
/// `-0.0` beside `0.0`) and random rows with missing attributes: it equals
/// the naive filter-then-fold reference bit for bit, never matches a
/// projection on a missing attribute it constrains, and allocates nothing
/// when nothing matches; `OnlineScorer::score_record` reports the same
/// matches and score under consecutive arrival indices.
#[test]
fn match_cells_is_the_filter_then_fold_rule() {
    const TIED: [f64; 6] = [-4.0, -2.5, -2.5, -1.0, -0.0, 0.0];
    for_each_case(0xc04e_0007, 64, |rng| {
        let uppers = (0..D).map(|_| (1..PHI).map(f64::from).collect()).collect();
        let names = (0..D).map(|j| format!("x{j}")).collect();
        let grid = GridSpec::from_parts(uppers, PHI, names).unwrap();
        let projections = (0..rng.gen_range(0..12))
            .map(|_| ScoredProjection {
                projection: Projection::random(D, rng.gen_range(1..=3), PHI, rng),
                sparsity: TIED[rng.gen_range(0..TIED.len())],
                count: 0,
            })
            .collect();
        let model = FittedModel::new(grid, projections);
        let all = model.projections();
        let mut scorer = OnlineScorer::new(model.clone()).unwrap();
        for t in 0..32 {
            // Values on and between the boundaries; half the rows are laid
            // into one projection's cube so that matches are common.
            let mut row: Vec<f64> = (0..D)
                .map(|_| f64::from(rng.gen_range(0..=2 * PHI)) / 2.0)
                .collect();
            if !all.is_empty() && rng.gen_range(0..2) == 0 {
                let p = &all[rng.gen_range(0..all.len())].projection;
                for (pos, value) in row.iter_mut().enumerate() {
                    if let Some(range) = p.gene(pos) {
                        *value = f64::from(range) + 0.5;
                    }
                }
            }
            for value in &mut row {
                if rng.gen_range(0..6) == 0 {
                    *value = f64::NAN;
                }
            }
            let cells = model.grid().assign_row(&row).unwrap();
            let want: Vec<usize> = (0..all.len())
                .filter(|&i| all[i].projection.covers(&cells))
                .collect();
            let want_score = want.iter().map(|&i| all[i].sparsity).reduce(f64::min);

            let (matched, score) = model.match_cells(&cells);
            assert_eq!(matched, want, "{row:?}");
            assert_eq!(score.map(f64::to_bits), want_score.map(f64::to_bits));
            for &i in &matched {
                let p = &all[i].projection;
                assert!(
                    p.pairs().all(|(pos, _)| !row[pos as usize].is_nan()),
                    "{p} on {row:?}"
                );
            }
            if matched.is_empty() {
                assert_eq!(matched.capacity(), 0, "an empty match allocated");
            }
            let verdict = scorer.score_record(&row).unwrap();
            assert_eq!(verdict.index, t);
            assert_eq!(verdict.matched, matched, "{row:?}");
            assert_eq!(verdict.score.map(f64::to_bits), score.map(f64::to_bits));
            assert_eq!(verdict.outlier, !matched.is_empty());
        }
    });
}

fn random_fitness(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<f64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect()
}

fn random_population(
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

fn gene_view(population: &[Vec<u32>]) -> GeneView {
    let mut view = GeneView::default();
    for genome in population {
        view.push(genome.iter().copied());
    }
    view
}

#[test]
fn selection_returns_one_valid_index_per_member() {
    for_each_case(0xe70e_0001, 256, |rng| {
        let fitness = random_fitness(rng, 1..40);
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
        let mut fitness = random_fitness(rng, 2..30);
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
        let pop = random_population(rng, 1..30, 5, 4);
        let (t1, t2) = (rng.gen_range(0.1..1.0), rng.gen_range(0.1..1.0));
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let mut view = gene_view(&pop);
        if view.converged(hi).0 {
            assert!(view.converged(lo).0, "{pop:?}: {hi} but not {lo}");
        }
    });
}

#[test]
fn gene_convergence_lies_between_one_member_and_all() {
    for_each_case(0xe70e_0004, 256, |rng| {
        let pop = random_population(rng, 1..40, 4, 6);
        let conv = gene_view(&pop).gene_convergence();
        assert_eq!(conv.len(), 4);
        let min_share = 1.0 / pop.len() as f64;
        for (slot, &c) in conv.iter().enumerate() {
            assert!(
                c >= min_share - 1e-12 && c <= 1.0 + 1e-12,
                "{conv:?} of {pop:?}"
            );
            // The most common value's share, counted value by value.
            let most = (0..6)
                .map(|v| pop.iter().filter(|genome| genome[slot] == v).count())
                .max()
                .unwrap();
            assert_eq!(c, most as f64 / pop.len() as f64, "slot {slot} of {pop:?}");
        }
    });
}
