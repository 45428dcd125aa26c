//! The evolutionary outlier search (paper Fig. 3).
//!
//! Adapts the projection-string problem onto the generic engine of
//! `hdoutlier-evolve`: rank-roulette selection (Fig. 4), optimized or
//! two-point crossover (Fig. 5), Type I/II mutation (Fig. 6), De Jong
//! convergence, and a deduplicated best-m set maintained across the whole
//! run ("the m best projection solutions were kept track of at each stage").

use crate::crossover::{recombine, CrossoverKind};
use crate::fitness::SparsityFitness;
use crate::mutation::{mutate, MutationConfig};
use crate::projection::Projection;
use crate::report::ScoredProjection;
use hdoutlier_evolve::{Engine, EngineConfig, EvolutionaryProblem, SelectionScheme};
use hdoutlier_index::CubeCounter;
use hdoutlier_rng::rngs::StdRng;

/// Configuration of one evolutionary run.
#[derive(Debug, Clone)]
pub struct EvolutionaryConfig {
    /// Number of best projections to report (`m`).
    pub m: usize,
    /// Population size (`p`).
    pub population: usize,
    /// Which crossover mechanism to use (Table 1 compares both).
    pub crossover: CrossoverKind,
    /// Type-I mutation probability (`p1`). The paper sets `p1 = p2`.
    pub p1: f64,
    /// Type-II mutation probability (`p2`).
    pub p2: f64,
    /// Selection scheme; the paper's is rank roulette.
    pub selection: SelectionScheme,
    /// De Jong convergence threshold (0.95 in the paper).
    pub convergence_threshold: f64,
    /// Safety cap on generations.
    pub max_generations: usize,
    /// Only report projections covering at least one record.
    pub require_nonempty: bool,
    /// Harvest the candidate cubes the optimized crossover evaluates
    /// internally into the best-set (default), not just population members.
    /// The paper's Fig. 3 tracks only population members; the internal
    /// candidates come for free (their counts are already computed) and
    /// measurably improve the best-m — `repro ablation` quantifies the gap.
    pub track_internal_candidates: bool,
    /// RNG seed.
    pub seed: u64,
    /// Ignored: the search scores fitness on the calling thread. Kept only
    /// so existing struct literals still compile; nothing reads it.
    pub threads: usize,
}

impl Default for EvolutionaryConfig {
    fn default() -> Self {
        Self {
            m: 20,
            population: 100,
            crossover: CrossoverKind::Optimized,
            p1: 0.15,
            p2: 0.15,
            selection: SelectionScheme::RankRoulette,
            convergence_threshold: 0.95,
            max_generations: 500,
            require_nonempty: true,
            track_internal_candidates: true,
            seed: 0,
            threads: 1,
        }
    }
}

/// Result of one evolutionary run.
#[derive(Debug, Clone)]
pub struct EvolutionaryOutcome {
    /// The deduplicated best projections, most negative sparsity first.
    pub best: Vec<ScoredProjection>,
    /// Generations executed.
    pub generations: usize,
    /// Total fitness evaluations.
    pub evaluations: u64,
    /// Whether the run ended by De Jong convergence (vs. the generation cap).
    pub converged: bool,
}

struct ProjectionProblem<'a, C: CubeCounter> {
    fitness: &'a SparsityFitness<'a, C>,
    d: usize,
    k: usize,
    phi: u32,
    crossover: CrossoverKind,
    mutation: MutationConfig,
}

impl<C: CubeCounter> EvolutionaryProblem for ProjectionProblem<'_, C> {
    type Genome = Projection;

    fn random_genome(&self, rng: &mut StdRng) -> Projection {
        Projection::random(self.d, self.k, self.phi, rng)
    }

    fn fitness(&self, genome: &Projection) -> f64 {
        // Feasible genomes are recorded by the fitness's tracker; infeasible
        // ones score +inf and are never candidates.
        self.fitness.evaluate(genome)
    }

    fn crossover(
        &self,
        a: &Projection,
        b: &Projection,
        rng: &mut StdRng,
    ) -> (Projection, Projection) {
        recombine(self.crossover, a, b, self.fitness, rng)
    }

    fn mutate(&self, genome: &mut Projection, rng: &mut StdRng) {
        mutate(genome, &self.mutation, rng);
    }

    fn gene_view(&self, genome: &Projection) -> Vec<u32> {
        // De Jong convergence must be checked on the k constrained slots,
        // not the raw d-position string: with k ≪ d every raw position is
        // ≥ 95 % star in any population, so the raw view "converges" on the
        // seed generation. Encoding slot i as its i-th (dim, range) pair
        // makes convergence mean what it should: the population agrees on
        // the projection itself.
        genome
            .constrained_positions()
            .into_iter()
            .map(|pos| pos as u32 * (self.phi + 1) + genome.gene(pos).expect("constrained") as u32)
            .collect()
    }
}

/// Runs the evolutionary outlier search of Fig. 3.
///
/// # Panics
/// Panics if the population size or `m` is zero.
pub fn evolutionary_search<C: CubeCounter>(
    fitness: &SparsityFitness<'_, C>,
    config: &EvolutionaryConfig,
) -> EvolutionaryOutcome {
    assert!(config.m > 0, "m must be positive");
    if config.track_internal_candidates {
        fitness.enable_tracking();
    }
    let problem = ProjectionProblem {
        fitness,
        d: fitness.counter().n_dims(),
        k: fitness.k(),
        phi: fitness.counter().phi(),
        crossover: config.crossover,
        mutation: MutationConfig {
            p1: config.p1,
            p2: config.p2,
            phi: fitness.counter().phi(),
        },
    };
    let engine = Engine::new(
        &problem,
        EngineConfig {
            population: config.population,
            selection: config.selection,
            convergence_threshold: config.convergence_threshold,
            max_generations: config.max_generations,
            seed: config.seed,
        },
    );
    // Without internal tracking, collect population-level evaluations only
    // (the literal Fig. 3 BestSet semantics) through the observer.
    let population_seen: std::cell::RefCell<std::collections::HashMap<Projection, f64>> =
        std::cell::RefCell::new(std::collections::HashMap::new());
    let stats = engine.run(|genome, f| {
        if !config.track_internal_candidates && f.is_finite() {
            population_seen
                .borrow_mut()
                .entry(genome.clone())
                .or_insert(f);
        }
    });

    // Assemble the deduplicated best-m from every full-k cube the fitness
    // scored during the run (population members and, by default, the
    // candidates the optimized crossover examined internally).
    let d = fitness.counter().n_dims();
    let tracked: std::collections::HashMap<hdoutlier_index::Cube, f64> =
        if config.track_internal_candidates {
            fitness.take_tracked()
        } else {
            population_seen
                .into_inner()
                .into_iter()
                .filter_map(|(p, f)| p.to_cube().map(|c| (c, f)))
                .collect()
        };
    let mut scored: Vec<ScoredProjection> = tracked
        .into_iter()
        .map(|(cube, sparsity)| {
            let count = fitness.counter().count(&cube);
            ScoredProjection {
                projection: Projection::from_cube(&cube, d),
                sparsity,
                count,
            }
        })
        .filter(|s| !config.require_nonempty || s.count > 0)
        .collect();
    // Total order: sparsity first, genes as the tiebreak — `seen` is a
    // HashMap, and without the tiebreak equal-sparsity projections would be
    // reported in nondeterministic order.
    scored.sort_by(|a, b| {
        a.sparsity
            .partial_cmp(&b.sparsity)
            .expect("finite sparsity only")
            .then_with(|| a.projection.genes().cmp(b.projection.genes()))
    });
    scored.truncate(config.m);

    EvolutionaryOutcome {
        best: scored,
        generations: stats.generations_run,
        evaluations: stats.evaluations,
        converged: stats.converged,
    }
}

/// Configuration for [`multi_restart_search`].
#[derive(Debug, Clone)]
pub struct MultiRestartConfig {
    /// Per-restart GA settings; restart `i` runs with `base.seed + i`.
    pub base: EvolutionaryConfig,
    /// Number of restarts.
    pub restarts: u64,
    /// Ban each restart's reported cubes before the next restart (tabu),
    /// pushing the population toward regions not yet harvested. With this
    /// off the function is a plain seed sweep.
    pub ban_found: bool,
    /// Keep only projections at or below this sparsity in the final union
    /// (`None` keeps everything the restarts reported).
    pub threshold: Option<f64>,
}

/// Union of one run per restart.
#[derive(Debug, Clone)]
pub struct MultiRestartOutcome {
    /// Distinct projections found, most negative sparsity first.
    pub found: Vec<ScoredProjection>,
    /// Total fitness evaluations across restarts.
    pub evaluations: u64,
    /// Restarts executed.
    pub restarts: u64,
}

/// Restarted evolutionary search with an optional tabu on already-found
/// cubes — an engineering extension of the paper's method for workloads
/// (like the §3.1 arrhythmia experiment) that ask for *all* sparse
/// projections rather than the best m. One converged GA run harvests one
/// region of the projection space; banning its finds forces the next
/// restart to look elsewhere.
///
/// Bans are cleared before returning so the fitness can be reused.
pub fn multi_restart_search<C: CubeCounter>(
    fitness: &SparsityFitness<'_, C>,
    config: &MultiRestartConfig,
) -> MultiRestartOutcome {
    let mut union: std::collections::HashMap<Projection, ScoredProjection> =
        std::collections::HashMap::new();
    let mut evaluations = 0u64;
    for restart in 0..config.restarts {
        let out = evolutionary_search(
            fitness,
            &EvolutionaryConfig {
                seed: config.base.seed.wrapping_add(restart),
                ..config.base.clone()
            },
        );
        evaluations += out.evaluations;
        for s in out.best {
            if config.threshold.is_none_or(|t| s.sparsity <= t) {
                if config.ban_found {
                    if let Some(cube) = s.projection.to_cube() {
                        fitness.ban(cube);
                    }
                }
                union.entry(s.projection.clone()).or_insert(s);
            }
        }
    }
    fitness.clear_bans();
    let mut found: Vec<ScoredProjection> = union.into_values().collect();
    found.sort_by(|a, b| {
        a.sparsity
            .partial_cmp(&b.sparsity)
            .expect("finite sparsity")
            .then_with(|| a.projection.genes().cmp(b.projection.genes()))
    });
    MultiRestartOutcome {
        found,
        evaluations,
        restarts: config.restarts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{brute_force_search_incremental_parallel, BruteForceConfig};
    use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
    use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
    use hdoutlier_index::BitmapCounter;

    fn planted_counter(
        n_dims: usize,
        seed: u64,
    ) -> (BitmapCounter, hdoutlier_data::generators::PlantedOutliers) {
        let planted = planted_outliers(&PlantedConfig {
            n_rows: 1500,
            n_dims,
            n_outliers: 5,
            seed,
            ..PlantedConfig::default()
        });
        let disc = Discretized::new(&planted.dataset, 5, DiscretizeStrategy::EquiDepth).unwrap();
        (BitmapCounter::new(&disc), planted)
    }

    #[test]
    fn finds_planted_outliers() {
        let (counter, planted) = planted_counter(10, 41);
        let fitness = SparsityFitness::new(&counter, 2);
        let out = evolutionary_search(
            &fitness,
            &EvolutionaryConfig {
                m: 10,
                seed: 7,
                ..EvolutionaryConfig::default()
            },
        );
        assert!(!out.best.is_empty());
        // The best set as a whole must surface planted outliers (the exact
        // top-1 can be any singleton cube — they all tie on Eq. 1).
        let covered: Vec<usize> = out
            .best
            .iter()
            .flat_map(|s| fitness.rows(&s.projection))
            .collect();
        assert!(
            covered.iter().any(|&r| planted.is_outlier(r)),
            "best projections cover {covered:?}, none planted"
        );
        assert!(out.best[0].sparsity < -3.0);
    }

    #[test]
    fn best_set_is_deduplicated_and_sorted() {
        let (counter, _) = planted_counter(8, 42);
        let fitness = SparsityFitness::new(&counter, 2);
        let out = evolutionary_search(
            &fitness,
            &EvolutionaryConfig {
                m: 15,
                seed: 1,
                ..EvolutionaryConfig::default()
            },
        );
        let mut seen = std::collections::HashSet::new();
        for s in &out.best {
            assert!(
                seen.insert(s.projection.clone()),
                "duplicate {}",
                s.projection
            );
            assert!(s.count > 0);
            assert!(s.projection.is_feasible(2));
        }
        for w in out.best.windows(2) {
            assert!(w[0].sparsity <= w[1].sparsity);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (counter, _) = planted_counter(8, 43);
        let fitness = SparsityFitness::new(&counter, 2);
        let config = EvolutionaryConfig {
            m: 5,
            seed: 9,
            max_generations: 30,
            ..EvolutionaryConfig::default()
        };
        let a = evolutionary_search(&fitness, &config);
        let b = evolutionary_search(&fitness, &config);
        assert_eq!(a.generations, b.generations);
        assert_eq!(
            a.best
                .iter()
                .map(|s| s.projection.clone())
                .collect::<Vec<_>>(),
            b.best
                .iter()
                .map(|s| s.projection.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn optimized_crossover_matches_brute_force_quality() {
        // The paper's headline claim (Table 1): Gen° reaches (close to) the
        // brute-force optimum.
        let (counter, _) = planted_counter(10, 44);
        let fitness = SparsityFitness::new(&counter, 2);
        let brute = brute_force_search_incremental_parallel(
            &counter,
            2,
            &BruteForceConfig {
                m: 5,
                ..BruteForceConfig::default()
            },
            1,
        );
        let evo = evolutionary_search(
            &fitness,
            &EvolutionaryConfig {
                m: 5,
                population: 120,
                seed: 3,
                ..EvolutionaryConfig::default()
            },
        );
        let brute_best = brute.best[0].sparsity;
        let evo_best = evo.best[0].sparsity;
        assert!(
            evo_best <= brute_best * 0.95 + 1e-9,
            "evolutionary {evo_best} vs brute {brute_best}"
        );
    }

    #[test]
    fn optimized_beats_two_point_on_average_quality() {
        // The other Table-1 claim: Gen° ≥ Gen in solution quality. The gap
        // only shows in the paper's own hard regime — very high `d` with
        // E = N/φ^k large enough that near-empty cubes are rare and must be
        // *found*, not stumbled upon (musk: 476 × 160, φ = 3, k* = 3).
        // Averaged over seeds to keep the test robust.
        let sim = hdoutlier_data::generators::uci_like::musk(3);
        let disc = Discretized::new(&sim.dataset, 3, DiscretizeStrategy::EquiDepth).unwrap();
        let counter = hdoutlier_index::CachedCounter::new(BitmapCounter::new(&disc));
        let fitness = SparsityFitness::new(&counter, 3);
        let mean_quality = |kind: CrossoverKind| -> f64 {
            let mut total = 0.0;
            let mut n = 0usize;
            for seed in 0..3 {
                let out = evolutionary_search(
                    &fitness,
                    &EvolutionaryConfig {
                        m: 20,
                        crossover: kind,
                        seed,
                        p1: 0.1,
                        p2: 0.1,
                        max_generations: 100,
                        ..EvolutionaryConfig::default()
                    },
                );
                total += out.best.iter().map(|s| s.sparsity).sum::<f64>();
                n += out.best.len();
            }
            total / n as f64
        };
        let optimized = mean_quality(CrossoverKind::Optimized);
        let two_point = mean_quality(CrossoverKind::TwoPoint);
        assert!(
            optimized < two_point - 0.3,
            "optimized {optimized} vs two-point {two_point}"
        );
    }

    #[test]
    fn respects_m_and_nonempty() {
        let (counter, _) = planted_counter(8, 46);
        let fitness = SparsityFitness::new(&counter, 3);
        let out = evolutionary_search(
            &fitness,
            &EvolutionaryConfig {
                m: 3,
                seed: 2,
                ..EvolutionaryConfig::default()
            },
        );
        assert!(out.best.len() <= 3);
        assert!(out.best.iter().all(|s| s.count > 0));
        assert!(out.evaluations > 0);
    }

    #[test]
    fn multi_restart_discovers_at_least_as_much_as_its_best_restart() {
        let (counter, _) = planted_counter(14, 48);
        let fitness = SparsityFitness::new(&counter, 2);
        let base = EvolutionaryConfig {
            m: 30,
            max_generations: 40,
            seed: 100,
            ..EvolutionaryConfig::default()
        };
        let single = evolutionary_search(&fitness, &base);
        let multi = multi_restart_search(
            &fitness,
            &MultiRestartConfig {
                base: base.clone(),
                restarts: 4,
                ban_found: true,
                threshold: None,
            },
        );
        assert!(multi.found.len() >= single.best.len().min(30));
        assert!(multi.evaluations >= single.evaluations);
        assert_eq!(multi.restarts, 4);
        // Distinct projections only.
        let mut seen = std::collections::HashSet::new();
        for s in &multi.found {
            assert!(seen.insert(s.projection.clone()));
        }
        // Sorted most-negative first.
        for w in multi.found.windows(2) {
            assert!(w[0].sparsity <= w[1].sparsity);
        }
        // Bans were cleared on exit.
        assert_eq!(fitness.banned_len(), 0);
    }

    #[test]
    fn multi_restart_threshold_filters() {
        let (counter, _) = planted_counter(10, 49);
        let fitness = SparsityFitness::new(&counter, 2);
        let multi = multi_restart_search(
            &fitness,
            &MultiRestartConfig {
                base: EvolutionaryConfig {
                    m: 50,
                    max_generations: 30,
                    ..EvolutionaryConfig::default()
                },
                restarts: 2,
                ban_found: false,
                threshold: Some(-3.0),
            },
        );
        assert!(multi.found.iter().all(|s| s.sparsity <= -3.0));
    }

    #[test]
    fn banned_cubes_score_infinity_at_genome_level_only() {
        let (counter, _) = planted_counter(8, 50);
        let fitness = SparsityFitness::new(&counter, 2);
        let p = Projection::random(8, 2, 5, &mut hdoutlier_evolve::engine::seeded_rng(1));
        let cube = p.to_cube().unwrap();
        let honest = fitness.evaluate(&p);
        assert!(honest.is_finite());
        fitness.ban(cube.clone());
        assert_eq!(fitness.evaluate(&p), f64::INFINITY);
        // Cube-level scoring is unaffected (crossover's view).
        assert_eq!(fitness.sparsity_of_cube(&cube), honest);
        fitness.clear_bans();
        assert_eq!(fitness.evaluate(&p), honest);
    }

    #[test]
    #[should_panic(expected = "m must be positive")]
    fn zero_m_panics() {
        let (counter, _) = planted_counter(8, 47);
        let fitness = SparsityFitness::new(&counter, 2);
        evolutionary_search(
            &fitness,
            &EvolutionaryConfig {
                m: 0,
                ..EvolutionaryConfig::default()
            },
        );
    }
}
