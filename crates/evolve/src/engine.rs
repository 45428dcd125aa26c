//! The generation loop of paper Fig. 3.
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
//! The engine is generic over an [`EvolutionaryProblem`]; the caller supplies
//! an observer that sees every `(genome, fitness)` evaluation, which is how
//! the outlier detector maintains its deduplicated best-m set without the
//! engine knowing anything about projections.

use crate::convergence::{gene_convergence, population_converged};
use crate::selection::SelectionScheme;
use hdoutlier_obs as obs;
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{Rng, SeedableRng};
use std::time::Instant;

/// Event target for everything the engine emits.
const TARGET: &str = "hdoutlier.evolve";

/// Metric handles resolved once per run (resolution takes the registry
/// lock; updates are lock-free).
struct EngineMetrics {
    generations: obs::Counter,
    evaluations: obs::Counter,
    selection_us: obs::Histogram,
    crossover_us: obs::Histogram,
    mutation_us: obs::Histogram,
    evaluate_us: obs::Histogram,
    generation_us: obs::Histogram,
}

impl EngineMetrics {
    fn resolve() -> Self {
        let r = obs::registry();
        EngineMetrics {
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

/// A problem the engine can evolve. Fitness is minimized.
pub trait EvolutionaryProblem {
    /// The genome representation.
    type Genome: Clone;

    /// Samples a random feasible genome for the seed population.
    fn random_genome(&self, rng: &mut StdRng) -> Self::Genome;

    /// The objective value (smaller is better).
    fn fitness(&self, genome: &Self::Genome) -> f64;

    /// Recombines two parents into two children.
    fn crossover(
        &self,
        a: &Self::Genome,
        b: &Self::Genome,
        rng: &mut StdRng,
    ) -> (Self::Genome, Self::Genome);

    /// Mutates a genome in place.
    fn mutate(&self, genome: &mut Self::Genome, rng: &mut StdRng);

    /// Discrete gene view for De Jong's convergence criterion.
    fn gene_view(&self, genome: &Self::Genome) -> Vec<u32>;
}

/// Engine knobs. The defaults mirror the paper's setup: rank-roulette
/// selection and De Jong convergence at 95 %.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Population size `p`.
    pub population: usize,
    /// Selection scheme.
    pub selection: SelectionScheme,
    /// De Jong gene-convergence threshold.
    pub convergence_threshold: f64,
    /// Hard cap on generations (safety net — convergence is the intended
    /// termination, but pathological operators could cycle forever).
    pub max_generations: usize,
    /// RNG seed; every run with the same seed and problem is identical.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            population: 100,
            selection: SelectionScheme::RankRoulette,
            convergence_threshold: 0.95,
            max_generations: 1000,
            seed: 0,
        }
    }
}

/// Summary of one run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Generations executed (selection+crossover+mutation cycles).
    pub generations_run: usize,
    /// Total fitness evaluations.
    pub evaluations: u64,
    /// Best fitness ever observed.
    pub best_fitness: f64,
    /// Whether the run ended by De Jong convergence (≥ threshold agreement
    /// on every gene) rather than at the `max_generations` cap.
    pub converged: bool,
    /// Best fitness of each evaluated population, in order: entry 0 is the
    /// seed population, entry `i > 0` is generation `i`.
    /// Length is `generations_run + 1`.
    pub best_history: Vec<f64>,
}

/// The evolutionary engine (Fig. 3).
pub struct Engine<'a, P: EvolutionaryProblem> {
    problem: &'a P,
    config: EngineConfig,
}

impl<'a, P: EvolutionaryProblem> Engine<'a, P> {
    /// Binds a problem to a configuration.
    ///
    /// # Panics
    /// Panics if the population size is zero.
    pub fn new(problem: &'a P, config: EngineConfig) -> Self {
        assert!(config.population > 0, "population must be positive");
        Self { problem, config }
    }

    /// Runs to termination. `observer` sees every `(genome, fitness)`
    /// evaluation, including the seed population, in evaluation order.
    pub fn run<F: FnMut(&P::Genome, f64)>(&self, mut observer: F) -> RunStats {
        let metrics = EngineMetrics::resolve();
        // Stage timing costs four clock reads per generation; spend them
        // only when someone collects the numbers (debug logging or an
        // explicit metrics request).
        let timed = obs::enabled(obs::Level::Debug) || obs::timing_enabled();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let p = self.config.population;
        let mut population: Vec<P::Genome> = (0..p)
            .map(|_| self.problem.random_genome(&mut rng))
            .collect();
        let mut evaluations: u64 = 0;
        let mut best = f64::INFINITY;

        // Scores each member in population order, on this thread: the
        // observer sees the same call sequence as the fitness.
        let evaluate =
            |pop: &[P::Genome], observer: &mut F, evals: &mut u64, best: &mut f64| -> Vec<f64> {
                pop.iter()
                    .map(|g| {
                        let f = {
                            let _eval = obs::profile_span(TARGET, "evaluate");
                            self.problem.fitness(g)
                        };
                        *evals += 1;
                        if f < *best {
                            *best = f;
                        }
                        observer(g, f);
                        f
                    })
                    .collect()
            };

        let gen_best = |fitness: &[f64]| fitness.iter().copied().fold(f64::INFINITY, f64::min);

        let (mut fitness, _) = timed_stage(timed, &metrics.evaluate_us, || {
            evaluate(&population, &mut observer, &mut evaluations, &mut best)
        });
        metrics.evaluations.add(evaluations);
        let mut best_history = vec![gen_best(&fitness)];
        obs::event(
            obs::Level::Debug,
            TARGET,
            "seed",
            &[
                ("population", obs::Value::U64(p as u64)),
                ("best", obs::Value::F64(best)),
            ],
        );

        let mut generations = 0usize;
        let converged = loop {
            // Termination checks first, so a converged seed stops at once.
            let views: Vec<Vec<u32>> = population
                .iter()
                .map(|g| self.problem.gene_view(g))
                .collect();
            if population_converged(&views, self.config.convergence_threshold) {
                break true;
            }
            if generations >= self.config.max_generations {
                break false;
            }

            let gen_start = if timed { Some(Instant::now()) } else { None };

            // Selection.
            let (mut next, selection_us) = timed_stage(timed, &metrics.selection_us, || {
                let parents = self.config.selection.select(&fitness, &mut rng);
                parents
                    .iter()
                    .map(|&i| population[i].clone())
                    .collect::<Vec<P::Genome>>()
            });

            // Crossover: match pairwise (Fig. 5 "match the solutions in the
            // population pairwise"); an odd trailing member passes through.
            let (_, crossover_us) = timed_stage(timed, &metrics.crossover_us, || {
                for pair in (0..next.len() / 2).map(|i| 2 * i) {
                    let (a, b) = (next[pair].clone(), next[pair + 1].clone());
                    let (c, d) = self.problem.crossover(&a, &b, &mut rng);
                    next[pair] = c;
                    next[pair + 1] = d;
                }
            });

            // Mutation.
            let (_, mutation_us) = timed_stage(timed, &metrics.mutation_us, || {
                for genome in next.iter_mut() {
                    self.problem.mutate(genome, &mut rng);
                }
            });

            population = next;
            let evals_before = evaluations;
            let (new_fitness, evaluate_us) = timed_stage(timed, &metrics.evaluate_us, || {
                evaluate(&population, &mut observer, &mut evaluations, &mut best)
            });
            fitness = new_fitness;
            metrics.evaluations.add(evaluations - evals_before);

            best_history.push(gen_best(&fitness));
            metrics.generations.inc();
            if let Some(start) = gen_start {
                metrics
                    .generation_us
                    .record(start.elapsed().as_micros() as f64);
            }
            if obs::enabled(obs::Level::Debug) {
                // Convergence fraction and population statistics are only
                // computed when someone is listening at Debug — the loop's
                // own convergence test reuses none of this.
                let views: Vec<Vec<u32>> = population
                    .iter()
                    .map(|g| self.problem.gene_view(g))
                    .collect();
                let convergence = gene_convergence(&views).into_iter().fold(1.0f64, f64::min);
                let finite: Vec<f64> = fitness.iter().copied().filter(|f| f.is_finite()).collect();
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
                        ("generation", obs::Value::U64(generations as u64 + 1)),
                        ("best", obs::Value::F64(best)),
                        ("gen_best", obs::Value::F64(gen_best(&fitness))),
                        ("mean", obs::Value::F64(mean)),
                        (
                            "infeasible",
                            obs::Value::U64((fitness.len() - finite.len()) as u64),
                        ),
                        ("convergence", obs::Value::F64(convergence)),
                        ("selection_us", obs::Value::U64(selection_us)),
                        ("crossover_us", obs::Value::U64(crossover_us)),
                        ("mutation_us", obs::Value::U64(mutation_us)),
                        ("evaluate_us", obs::Value::U64(evaluate_us)),
                    ],
                );
            }

            generations += 1;
        };

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
                    obs::Value::Str(if converged {
                        "converged"
                    } else {
                        "max_generations"
                    }),
                ),
            ],
        );

        RunStats {
            generations_run: generations,
            evaluations,
            best_fitness: best,
            converged,
            best_history,
        }
    }

    /// The bound configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }
}

/// Convenience: a seeded `StdRng` for callers implementing
/// [`EvolutionaryProblem`] operators in tests.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Uniform two-point segment-exchange crossover over equal-length vectors —
/// the generic "unbiased" recombination of §2.2, exposed here because both
/// the outlier problem's baseline crossover and test problems use it.
///
/// Picks one cut position uniformly in `1..len` and swaps the suffixes.
/// (The paper calls this "two-point" in the sense of two crossover
/// *products*; the operation is the classic single-cut exchange illustrated
/// by its `3*2*1 × 1*33* → 3*23* / 1*3*1` example.)
///
/// Returns clones unchanged when `len < 2`.
pub fn two_point_crossover<T: Clone, R: Rng>(a: &[T], b: &[T], rng: &mut R) -> (Vec<T>, Vec<T>) {
    assert_eq!(a.len(), b.len(), "genome length mismatch");
    let n = a.len();
    if n < 2 {
        return (a.to_vec(), b.to_vec());
    }
    let cut = rng.gen_range(1..n);
    let mut c = a[..cut].to_vec();
    c.extend_from_slice(&b[cut..]);
    let mut d = b[..cut].to_vec();
    d.extend_from_slice(&a[cut..]);
    (c, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// OneMax in minimized form: genome of 0/1, fitness = -(number of ones).
    struct OneMax {
        len: usize,
        mutation_rate: f64,
    }

    impl EvolutionaryProblem for OneMax {
        type Genome = Vec<u8>;

        fn random_genome(&self, rng: &mut StdRng) -> Vec<u8> {
            (0..self.len).map(|_| rng.gen_range(0..=1)).collect()
        }

        fn fitness(&self, g: &Vec<u8>) -> f64 {
            -(g.iter().filter(|&&b| b == 1).count() as f64)
        }

        fn crossover(&self, a: &Vec<u8>, b: &Vec<u8>, rng: &mut StdRng) -> (Vec<u8>, Vec<u8>) {
            two_point_crossover(a, b, rng)
        }

        fn mutate(&self, g: &mut Vec<u8>, rng: &mut StdRng) {
            for bit in g.iter_mut() {
                if rng.gen::<f64>() < self.mutation_rate {
                    *bit ^= 1;
                }
            }
        }

        fn gene_view(&self, g: &Vec<u8>) -> Vec<u32> {
            g.iter().map(|&b| b as u32).collect()
        }
    }

    #[test]
    fn solves_onemax() {
        let problem = OneMax {
            len: 24,
            mutation_rate: 0.01,
        };
        let engine = Engine::new(
            &problem,
            EngineConfig {
                population: 60,
                max_generations: 300,
                seed: 42,
                ..EngineConfig::default()
            },
        );
        let stats = engine.run(|_, _| {});
        assert!(
            stats.best_fitness <= -22.0,
            "best {} after {} generations",
            stats.best_fitness,
            stats.generations_run
        );
        assert!(stats.evaluations >= 60);
        assert_eq!(stats.best_history.len(), stats.generations_run + 1);
        // The history's global minimum is the best fitness ever seen.
        let hist_min = stats
            .best_history
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(hist_min, stats.best_fitness);
    }

    #[test]
    fn deterministic_under_seed() {
        let problem = OneMax {
            len: 16,
            mutation_rate: 0.02,
        };
        let config = EngineConfig {
            population: 30,
            max_generations: 50,
            seed: 7,
            ..EngineConfig::default()
        };
        let run = |cfg: &EngineConfig| {
            let engine = Engine::new(&problem, cfg.clone());
            let mut trace = Vec::new();
            let stats = engine.run(|_, f| trace.push(f));
            (trace, stats.best_fitness, stats.generations_run)
        };
        assert_eq!(run(&config), run(&config));
        let other = EngineConfig {
            seed: 8,
            ..config.clone()
        };
        assert_ne!(run(&config).0, run(&other).0);
    }

    #[test]
    fn converged_seed_population_stops_immediately() {
        // Mutation off, crossover preserves identical genomes; a fully
        // uniform random problem where random_genome is constant converges
        // in the seed generation.
        struct Constant;
        impl EvolutionaryProblem for Constant {
            type Genome = Vec<u8>;
            fn random_genome(&self, _: &mut StdRng) -> Vec<u8> {
                vec![1, 2, 3]
            }
            fn fitness(&self, _: &Vec<u8>) -> f64 {
                0.0
            }
            fn crossover(&self, a: &Vec<u8>, b: &Vec<u8>, _: &mut StdRng) -> (Vec<u8>, Vec<u8>) {
                (a.clone(), b.clone())
            }
            fn mutate(&self, _: &mut Vec<u8>, _: &mut StdRng) {}
            fn gene_view(&self, g: &Vec<u8>) -> Vec<u32> {
                g.iter().map(|&b| b as u32).collect()
            }
        }
        let engine = Engine::new(&Constant, EngineConfig::default());
        let stats = engine.run(|_, _| {});
        assert_eq!(stats.generations_run, 0);
        assert!(stats.converged);
        assert_eq!(stats.evaluations, 100);
        assert_eq!(stats.best_history, vec![0.0]);
    }

    #[test]
    fn max_generations_cap_applies() {
        // High mutation prevents convergence.
        let problem = OneMax {
            len: 30,
            mutation_rate: 0.5,
        };
        let engine = Engine::new(
            &problem,
            EngineConfig {
                population: 20,
                max_generations: 5,
                seed: 1,
                ..EngineConfig::default()
            },
        );
        let stats = engine.run(|_, _| {});
        assert_eq!(stats.generations_run, 5);
        assert!(!stats.converged);
        assert_eq!(stats.best_history.len(), 6); // seed + 5 generations
    }

    #[test]
    fn observer_sees_every_evaluation() {
        let problem = OneMax {
            len: 8,
            mutation_rate: 0.05,
        };
        let engine = Engine::new(
            &problem,
            EngineConfig {
                population: 10,
                max_generations: 3,
                convergence_threshold: 1.01, // unreachable: force the cap
                seed: 3,
                ..EngineConfig::default()
            },
        );
        let mut count = 0u64;
        let stats = engine.run(|_, _| count += 1);
        assert_eq!(count, stats.evaluations);
        assert_eq!(count, 10 * 4); // seed + 3 generations
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn zero_population_panics() {
        let problem = OneMax {
            len: 4,
            mutation_rate: 0.0,
        };
        Engine::new(
            &problem,
            EngineConfig {
                population: 0,
                ..EngineConfig::default()
            },
        );
    }

    #[test]
    fn two_point_crossover_properties() {
        let mut rng = seeded_rng(11);
        let a = vec![1, 1, 1, 1, 1];
        let b = vec![2, 2, 2, 2, 2];
        for _ in 0..20 {
            let (c, d) = two_point_crossover(&a, &b, &mut rng);
            assert_eq!(c.len(), 5);
            // Each position comes from the opposite parent in d vs c.
            for i in 0..5 {
                assert_ne!(c[i], d[i]);
                assert!(c[i] == 1 || c[i] == 2);
            }
            // Prefix from a, suffix from b.
            let cut = c.iter().position(|&x| x == 2).unwrap_or(5);
            assert!(c[..cut].iter().all(|&x| x == 1));
            assert!(c[cut..].iter().all(|&x| x == 2));
        }
        // Degenerate lengths pass through.
        let (c, d) = two_point_crossover(&[7], &[9], &mut rng);
        assert_eq!((c, d), (vec![7], vec![9]));
        let (c, _) = two_point_crossover::<i32, _>(&[], &[], &mut rng);
        assert!(c.is_empty());
        // On any parents, each position of the two children carries exactly
        // the two parents' genes there.
        hdoutlier_rng::for_each_case(0xe9e0_0001, 256, |rng| {
            let len = rng.gen_range(2..20);
            let a: Vec<u8> = (0..len).map(|_| rng.gen_range(0..10)).collect();
            let b: Vec<u8> = a.iter().map(|&x| (x + 1) % 10).collect();
            let (c, d) = two_point_crossover(&a, &b, rng);
            assert_eq!((c.len(), d.len()), (len, len));
            for i in 0..len {
                let (mut got, mut want) = ([c[i], d[i]], [a[i], b[i]]);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "position {i} of {a:?} × {b:?}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn crossover_length_mismatch_panics() {
        let mut rng = seeded_rng(12);
        two_point_crossover(&[1, 2], &[1], &mut rng);
    }
}
