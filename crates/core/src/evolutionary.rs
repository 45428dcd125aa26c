//! The evolutionary outlier search (paper Fig. 3).
//!
//! ```text
//! S = initial seed population of p strings
//! while not(termination_criterion):
//!     S = Selection(S)
//!     S = CrossOver(S)
//!     S = Mutation(S, p1, p2)
//!     update BestSet
//! ```
//!
//! One generation loop over projection strings: rank-roulette selection
//! (Fig. 4, [`crate::selection`]), optimized or two-point crossover
//! (Fig. 5), Type I/II mutation (Fig. 6), De Jong convergence
//! ([`crate::convergence`]), and a deduplicated best-m set maintained across
//! the whole run ("the m best projection solutions were kept track of at
//! each stage"). Fitness is minimized: the most negative sparsity
//! coefficient is best.

use crate::convergence::population_converged;
use crate::crossover::{recombine, CrossoverKind};
use crate::fitness::SparsityFitness;
use crate::mutation::{mutate, MutationConfig};
use crate::projection::Projection;
use crate::report::ScoredProjection;
use crate::selection::SelectionScheme;
use hdoutlier_index::CubeCounter;
use hdoutlier_obs as obs;
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

/// Event target for everything the generation loop emits.
const TARGET: &str = "hdoutlier.evolve";

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
    /// RNG seed; every run with the same seed and fitness is identical.
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
    /// Generations executed (selection + crossover + mutation cycles).
    pub generations: usize,
    /// Total fitness evaluations, the seed population's included.
    pub evaluations: u64,
    /// Whether the run ended by De Jong convergence (vs. the generation cap).
    pub converged: bool,
    /// The final population's smallest per-slot agreement: the share of
    /// members holding the most common value of its least settled slot.
    pub gene_convergence: f64,
}

/// Metric handles resolved once per run (resolution takes the registry
/// lock; updates are lock-free).
struct GaMetrics {
    generations: obs::Counter,
    evaluations: obs::Counter,
    selection_us: obs::Histogram,
    crossover_us: obs::Histogram,
    mutation_us: obs::Histogram,
    evaluate_us: obs::Histogram,
    generation_us: obs::Histogram,
}

impl GaMetrics {
    fn resolve() -> Self {
        let r = obs::registry();
        GaMetrics {
            generations: r.counter("hdoutlier.evolve.generations"),
            evaluations: r.counter("hdoutlier.evolve.evaluations"),
            selection_us: r.histogram("hdoutlier.evolve.selection_us"),
            crossover_us: r.histogram("hdoutlier.evolve.crossover_us"),
            mutation_us: r.histogram("hdoutlier.evolve.mutation_us"),
            evaluate_us: r.histogram("hdoutlier.evolve.evaluate_us"),
            generation_us: r.histogram("hdoutlier.evolve.generation_us"),
        }
    }
}

/// Elapsed microseconds of `f`, recording into `hist` and returning the
/// elapsed count alongside the result. When `timed` is false no clock is
/// read and the reported elapsed is 0.
fn timed_stage<T>(timed: bool, hist: &obs::Histogram, f: impl FnOnce() -> T) -> (T, u64) {
    if timed {
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_micros() as u64;
        hist.record(us as f64);
        (out, us)
    } else {
        (f(), 0)
    }
}

/// De Jong's test on the population's gene view: whether it has converged,
/// and its smallest per-slot agreement.
///
/// Convergence must be checked on the k constrained slots, not the raw
/// d-position string: with k ≪ d every raw position is ≥ 95 % star in any
/// population, so the raw view "converges" on the seed generation. Encoding
/// slot i as its i-th (dim, range) pair makes convergence mean what it
/// should: the population agrees on the projection itself.
fn check_convergence(population: &[Projection], phi: u32, threshold: f64) -> (bool, f64) {
    let views: Vec<Vec<u32>> = population
        .iter()
        .map(|genome| {
            genome
                .constrained_positions()
                .into_iter()
                .map(|pos| pos as u32 * (phi + 1) + genome.gene(pos).expect("constrained") as u32)
                .collect()
        })
        .collect();
    population_converged(&views, threshold)
}

/// Runs the evolutionary outlier search of Fig. 3.
///
/// The random stream is drawn in a fixed order — the seed population, then
/// per generation selection, pairwise crossover and mutation — so a seed
/// fixes the run.
///
/// # Panics
/// Panics if the population size or `m` is zero.
pub fn evolutionary_search<C: CubeCounter>(
    fitness: &SparsityFitness<'_, C>,
    config: &EvolutionaryConfig,
) -> EvolutionaryOutcome {
    assert!(config.m > 0, "m must be positive");
    assert!(config.population > 0, "population must be positive");
    if config.track_internal_candidates {
        fitness.enable_tracking();
    }
    let d = fitness.counter().n_dims();
    let phi = fitness.counter().phi();
    let mutation = MutationConfig {
        p1: config.p1,
        p2: config.p2,
        phi,
    };
    let metrics = GaMetrics::resolve();
    // Stage timing costs four clock reads per generation; spend them only
    // when someone collects the numbers (debug logging or an explicit
    // metrics request).
    let timed = obs::enabled(obs::Level::Debug) || obs::timing_enabled();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut population: Vec<Projection> = (0..config.population)
        .map(|_| Projection::random(d, fitness.k(), phi, &mut rng))
        .collect();

    // Without internal tracking the best set is the population members
    // alone (the literal Fig. 3 BestSet semantics).
    let mut population_seen: HashMap<Projection, f64> = HashMap::new();
    // Scores each member in population order, on this thread. Feasible
    // genomes are recorded by the fitness's tracker; infeasible ones score
    // +inf and are never candidates.
    let mut evaluate = |pop: &[Projection]| -> Vec<f64> {
        pop.iter()
            .map(|genome| {
                let f = {
                    let _eval = obs::profile_span(TARGET, "evaluate");
                    fitness.evaluate(genome)
                };
                if !config.track_internal_candidates && f.is_finite() {
                    population_seen.entry(genome.clone()).or_insert(f);
                }
                f
            })
            .collect()
    };

    let lowest = |scores: &[f64]| scores.iter().copied().fold(f64::INFINITY, f64::min);

    let (mut scores, _) = timed_stage(timed, &metrics.evaluate_us, || evaluate(&population));
    let mut evaluations = scores.len() as u64;
    let mut best = lowest(&scores);
    metrics.evaluations.add(evaluations);
    obs::event(
        obs::Level::Debug,
        TARGET,
        "seed",
        &[
            ("population", obs::Value::U64(config.population as u64)),
            ("best", obs::Value::F64(best)),
        ],
    );

    // Termination is checked before each generation, so a converged seed
    // stops at once.
    let (mut done, mut gene_convergence) =
        check_convergence(&population, phi, config.convergence_threshold);
    let mut generations = 0usize;
    while !done && generations < config.max_generations {
        let gen_start = if timed { Some(Instant::now()) } else { None };

        let (mut next, selection_us) = timed_stage(timed, &metrics.selection_us, || {
            let parents = config.selection.select(&scores, &mut rng);
            parents
                .iter()
                .map(|&i| population[i].clone())
                .collect::<Vec<Projection>>()
        });

        // Crossover: match pairwise (Fig. 5 "match the solutions in the
        // population pairwise"); an odd trailing member passes through.
        let (_, crossover_us) = timed_stage(timed, &metrics.crossover_us, || {
            for pair in (0..next.len() / 2).map(|i| 2 * i) {
                let (a, b) = recombine(
                    config.crossover,
                    &next[pair],
                    &next[pair + 1],
                    fitness,
                    &mut rng,
                );
                next[pair] = a;
                next[pair + 1] = b;
            }
        });

        let (_, mutation_us) = timed_stage(timed, &metrics.mutation_us, || {
            for genome in next.iter_mut() {
                mutate(genome, &mutation, &mut rng);
            }
        });

        population = next;
        let (new_scores, evaluate_us) =
            timed_stage(timed, &metrics.evaluate_us, || evaluate(&population));
        scores = new_scores;
        evaluations += scores.len() as u64;
        metrics.evaluations.add(scores.len() as u64);
        let gen_best = lowest(&scores);
        best = best.min(gen_best);
        metrics.generations.inc();
        generations += 1;
        if let Some(start) = gen_start {
            metrics
                .generation_us
                .record(start.elapsed().as_micros() as f64);
        }
        (done, gene_convergence) =
            check_convergence(&population, phi, config.convergence_threshold);

        if obs::enabled(obs::Level::Debug) {
            // Population statistics are only computed when someone is
            // listening at Debug.
            let finite: Vec<f64> = scores.iter().copied().filter(|f| f.is_finite()).collect();
            let mean = if finite.is_empty() {
                f64::NAN
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            };
            obs::event(
                obs::Level::Debug,
                TARGET,
                "generation",
                &[
                    ("generation", obs::Value::U64(generations as u64)),
                    ("best", obs::Value::F64(best)),
                    ("gen_best", obs::Value::F64(gen_best)),
                    ("mean", obs::Value::F64(mean)),
                    (
                        "infeasible",
                        obs::Value::U64((scores.len() - finite.len()) as u64),
                    ),
                    ("convergence", obs::Value::F64(gene_convergence)),
                    ("selection_us", obs::Value::U64(selection_us)),
                    ("crossover_us", obs::Value::U64(crossover_us)),
                    ("mutation_us", obs::Value::U64(mutation_us)),
                    ("evaluate_us", obs::Value::U64(evaluate_us)),
                ],
            );
        }
    }

    obs::event(
        obs::Level::Info,
        TARGET,
        "run",
        &[
            ("generations", obs::Value::U64(generations as u64)),
            ("evaluations", obs::Value::U64(evaluations)),
            ("best_fitness", obs::Value::F64(best)),
            (
                "termination",
                obs::Value::Str(if done { "converged" } else { "max_generations" }),
            ),
        ],
    );

    // Assemble the deduplicated best-m from every full-k cube the fitness
    // scored during the run (population members and, by default, the
    // candidates the optimized crossover examined internally).
    let tracked: HashMap<hdoutlier_index::Cube, f64> = if config.track_internal_candidates {
        fitness.take_tracked()
    } else {
        population_seen
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
        generations,
        evaluations,
        converged: done,
        gene_convergence,
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
    let mut union: HashMap<Projection, ScoredProjection> = HashMap::new();
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
        let p = Projection::random(8, 2, 5, &mut StdRng::seed_from_u64(1));
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
    fn a_population_of_one_is_converged_at_the_seed() {
        let (counter, _) = planted_counter(8, 51);
        let fitness = SparsityFitness::new(&counter, 2);
        let out = evolutionary_search(
            &fitness,
            &EvolutionaryConfig {
                population: 1,
                ..EvolutionaryConfig::default()
            },
        );
        assert_eq!(out.generations, 0);
        assert!(out.converged);
        assert_eq!(out.evaluations, 1);
        assert_eq!(out.gene_convergence, 1.0);
    }

    #[test]
    fn an_unreachable_threshold_runs_to_the_generation_cap() {
        let (counter, _) = planted_counter(8, 52);
        let fitness = SparsityFitness::new(&counter, 2);
        let out = evolutionary_search(
            &fitness,
            &EvolutionaryConfig {
                population: 10,
                convergence_threshold: 1.01,
                max_generations: 3,
                seed: 3,
                ..EvolutionaryConfig::default()
            },
        );
        assert_eq!(out.generations, 3);
        assert!(!out.converged);
        // The seed population plus three generations of ten.
        assert_eq!(out.evaluations, 40);
        assert!(out.gene_convergence > 0.0 && out.gene_convergence <= 1.0);
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn zero_population_panics() {
        let (counter, _) = planted_counter(8, 53);
        let fitness = SparsityFitness::new(&counter, 2);
        evolutionary_search(
            &fitness,
            &EvolutionaryConfig {
                population: 0,
                ..EvolutionaryConfig::default()
            },
        );
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
