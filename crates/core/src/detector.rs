//! The friendly front door: configure once, call
//! [`OutlierDetector::detect`] on a [`Dataset`], get an interpretable
//! [`OutlierReport`].
//!
//! Wiring order (the paper's pipeline):
//! dataset → equi-depth grid (§1.3) → posting index → sparsity fitness
//! (Eq. 1) → brute-force (Fig. 2) or evolutionary (Figs. 3–6) search →
//! post-processing into outlier rows (§2.3).

use crate::brute::BruteForceConfig;
use crate::crossover::CrossoverKind;
use crate::evolutionary::{evolutionary_search, EvolutionaryConfig};
use crate::fitness::SparsityFitness;
use crate::params::{advise, DEFAULT_TARGET_SPARSITY};
use crate::report::{OutlierReport, SearchStats};
use crate::selection::SelectionScheme;
use hdoutlier_data::{DataError, Dataset, DiscretizeStrategy, Discretized};
use hdoutlier_index::{BitmapCounter, CachedCounter, CubeCounter};
use hdoutlier_obs as obs;
use std::fmt;
use std::time::Instant;

/// Event target for the detector pipeline.
const TARGET: &str = "hdoutlier.core";

/// Buckets of the share-valued histograms `hdoutlier.core.pruned_fraction`,
/// `hdoutlier.core.cache_hit_ratio` and `hdoutlier.core.gene_convergence`:
/// deciles, then the nines that separate a large share from nearly all.
const PRUNED_FRACTION_BOUNDS: &[f64] = &[
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999, 1.0,
];

/// Runs one pipeline phase, recording its duration into
/// `hdoutlier.core.<name>_us` and emitting an Info event. Phases run once
/// per detect call, so the two clock reads are always paid — the metric is
/// populated even when no sink is installed.
fn phase<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    // The span reports the phase as an Info event and, when a trace buffer
    // is installed, as a Chrome-trace slice; the histogram keeps its own
    // clock because it is populated even with events and tracing off.
    let span = obs::span(obs::Level::Info, TARGET, name);
    let start = Instant::now();
    let out = f();
    let us = start.elapsed().as_micros() as u64;
    obs::registry()
        .histogram(&format!("hdoutlier.core.{name}_us"))
        .record(us as f64);
    drop(span);
    out
}

/// Which search locates the sparse projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMethod {
    /// Exhaustive enumeration (Fig. 2). Only viable at low `d`/`k`.
    BruteForce,
    /// The genetic algorithm (Fig. 3).
    Evolutionary,
}

/// Errors from [`OutlierDetector::detect`].
#[derive(Debug)]
pub enum DetectError {
    /// Dataset problems (empty, bad shape, φ out of range…).
    Data(DataError),
    /// The requested `k` exceeds the dataset's dimensionality.
    KTooLarge {
        /// Requested projection dimensionality.
        k: usize,
        /// Dataset dimensionality.
        d: usize,
    },
    /// A search parameter below its domain: `k` of zero, φ below 2 (with
    /// one range per dimension every cube expects the whole dataset and
    /// Eq. 1 divides by zero), or, under the evolutionary search, `m` or the
    /// population of zero.
    ParameterTooSmall {
        /// The parameter, as the CLI spells it.
        name: &'static str,
        /// The value given.
        value: u64,
        /// The smallest value the search accepts.
        min: u64,
    },
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::Data(e) => write!(f, "data error: {e}"),
            DetectError::KTooLarge { k, d } => {
                write!(
                    f,
                    "projection dimensionality k = {k} exceeds dataset dimensionality {d}"
                )
            }
            DetectError::ParameterTooSmall { name, value, min } => {
                write!(
                    f,
                    "{name} = {value} is out of range: it must be at least {min}"
                )
            }
        }
    }
}

impl std::error::Error for DetectError {}

impl From<DataError> for DetectError {
    fn from(e: DataError) -> Self {
        DetectError::Data(e)
    }
}

/// Full configuration; build through [`OutlierDetector::builder`].
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Grid ranges per dimension; `None` = §2.4 advisor.
    pub phi: Option<u32>,
    /// Projection dimensionality; `None` = Eq. 2 with `target_sparsity`.
    pub k: Option<usize>,
    /// Number of best projections to report.
    pub m: usize,
    /// Target sparsity for the parameter advisor.
    pub target_sparsity: f64,
    /// If set, drop reported projections with sparsity above this threshold
    /// (the §3.1 arrhythmia experiment keeps only `S ≤ −3`).
    pub sparsity_threshold: Option<f64>,
    /// Search strategy.
    pub search: SearchMethod,
    /// Grid strategy (equi-depth is the paper's; equi-width is the ablation).
    pub strategy: DiscretizeStrategy,
    /// GA population size.
    pub population: usize,
    /// GA crossover mechanism.
    pub crossover: CrossoverKind,
    /// GA mutation probability (`p1 = p2`, as in the paper).
    pub mutation_rate: f64,
    /// GA selection scheme.
    pub selection: SelectionScheme,
    /// GA generation cap.
    pub max_generations: usize,
    /// Brute-force candidate budget (`None` = unlimited).
    pub max_candidates: Option<u64>,
    /// Worker threads for the brute-force search's partitions. Its task
    /// decomposition is thread-count invariant, so any value >= 1 yields
    /// identical reports; 1 runs the paper's serial algorithm inline. The
    /// evolutionary search ignores it and runs on the calling thread.
    pub threads: usize,
    /// Only report projections covering at least one record.
    pub require_nonempty: bool,
    /// RNG seed (GA only).
    pub seed: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            phi: None,
            k: None,
            m: 20,
            target_sparsity: DEFAULT_TARGET_SPARSITY,
            sparsity_threshold: None,
            search: SearchMethod::Evolutionary,
            strategy: DiscretizeStrategy::EquiDepth,
            population: 100,
            crossover: CrossoverKind::Optimized,
            mutation_rate: 0.15,
            selection: SelectionScheme::RankRoulette,
            max_generations: 500,
            max_candidates: None,
            threads: 1,
            require_nonempty: true,
            seed: 0,
        }
    }
}

/// The configured detector.
#[derive(Debug, Clone)]
pub struct OutlierDetector {
    config: DetectorConfig,
}

impl OutlierDetector {
    /// Starts a builder with defaults.
    pub fn builder() -> DetectorBuilder {
        DetectorBuilder {
            config: DetectorConfig::default(),
        }
    }

    /// Wraps an explicit configuration.
    pub fn with_config(config: DetectorConfig) -> Self {
        Self { config }
    }

    /// The effective configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Runs the full pipeline on a dataset.
    pub fn detect(&self, dataset: &Dataset) -> Result<OutlierReport, DetectError> {
        self.detect_discretized(&self.discretize(dataset)?)
    }

    /// The pipeline's first phase: the configured grid over `dataset`,
    /// with φ from the §2.4 advisor (Eq. 2 at `target_sparsity`) unless
    /// set. Callers that keep the grid (model fitting, explanations) run
    /// this once and hand it to [`OutlierDetector::detect_discretized`].
    pub fn discretize(&self, dataset: &Dataset) -> Result<Discretized, DetectError> {
        let phi = self
            .config
            .phi
            .unwrap_or_else(|| advise(dataset.n_rows() as u64, self.config.target_sparsity).phi);
        Ok(phase("discretize", || {
            Discretized::new(dataset, phi, self.config.strategy)
        })?)
    }

    /// Runs the search on an already-discretized dataset (lets callers reuse
    /// a grid across configurations).
    pub fn detect_discretized(&self, disc: &Discretized) -> Result<OutlierReport, DetectError> {
        let k = match self.config.k {
            Some(k) => k,
            None => advise(disc.n_rows() as u64, self.config.target_sparsity).k as usize,
        };
        let evolutionary = self.config.search == SearchMethod::Evolutionary;
        let floors = [
            ("k", k as u64, 1, true),
            ("phi", disc.phi() as u64, 2, true),
            ("m", self.config.m as u64, 1, evolutionary),
            ("population", self.config.population as u64, 1, evolutionary),
        ];
        if let Some(&(name, value, min, _)) = floors
            .iter()
            .find(|&&(_, value, min, applies)| applies && value < min)
        {
            return Err(DetectError::ParameterTooSmall { name, value, min });
        }
        if k > disc.n_dims() {
            return Err(DetectError::KTooLarge {
                k,
                d: disc.n_dims(),
            });
        }
        obs::event(
            obs::Level::Info,
            TARGET,
            "detect",
            &[
                ("rows", obs::Value::U64(disc.n_rows() as u64)),
                ("dims", obs::Value::U64(disc.n_dims() as u64)),
                ("k", obs::Value::U64(k as u64)),
                ("m", obs::Value::U64(self.config.m as u64)),
                (
                    "method",
                    obs::Value::Str(match self.config.search {
                        SearchMethod::BruteForce => "brute",
                        SearchMethod::Evolutionary => "evolutionary",
                    }),
                ),
            ],
        );
        let counter = phase("index", || BitmapCounter::new(disc));
        let report = match self.config.search {
            SearchMethod::BruteForce => self.run_brute(&counter, k),
            SearchMethod::Evolutionary => {
                // The GA revisits strings constantly; memoize counts.
                let cached = CachedCounter::new(counter);
                let report = self.run_evolutionary(&cached, k);
                // Share of the search's count lookups the memo table
                // answered (the seed population alone makes some), one
                // observation per search like `pruned_fraction`.
                let (hits, misses) = cached.stats();
                obs::registry()
                    .histogram_with_bounds("hdoutlier.core.cache_hit_ratio", PRUNED_FRACTION_BOUNDS)
                    .record(hits as f64 / (hits + misses) as f64);
                report
            }
        };
        Ok(match self.config.sparsity_threshold {
            Some(t) => report.filtered_by_sparsity(t),
            None => report,
        })
    }

    fn run_brute(&self, counter: &BitmapCounter, k: usize) -> OutlierReport {
        let fitness = SparsityFitness::new(counter, k);
        let start = Instant::now();
        let config = BruteForceConfig {
            m: self.config.m,
            require_nonempty: self.config.require_nonempty,
            max_candidates: self.config.max_candidates,
        };
        // Debug-level span: the trace profile gets the search slice without
        // doubling the rich Info "search" event below at default filtering.
        let search_span = obs::span(obs::Level::Debug, TARGET, "search");
        // Every thread count routes through the same pooled per-dimension
        // decomposition of the incremental-intersection fast path, so the
        // report is byte-identical whether one worker runs the tasks in
        // sequence or eight race through them.
        let outcome = crate::brute::brute_force_search_incremental_parallel(
            counter,
            k,
            &config,
            self.config.threads.max(1),
        );
        drop(search_span);
        if outcome.candidates > 0 {
            // Share of the examined cube space skipped by empty-subtree
            // pruning. Gauges are integer-valued, so the fraction is one
            // histogram observation per search.
            obs::registry()
                .histogram_with_bounds("hdoutlier.core.pruned_fraction", PRUNED_FRACTION_BOUNDS)
                .record(1.0 - outcome.scored as f64 / outcome.candidates as f64);
        }
        let stats = SearchStats {
            work: outcome.candidates,
            generations: 0,
            completed: outcome.completed,
            elapsed: start.elapsed(),
        };
        let us = stats.elapsed.as_micros() as u64;
        obs::registry()
            .histogram("hdoutlier.core.search_us")
            .record(us as f64);
        obs::event(
            obs::Level::Info,
            TARGET,
            "search",
            &[
                ("method", obs::Value::Str("brute")),
                ("candidates", obs::Value::U64(stats.work)),
                ("completed", obs::Value::Bool(stats.completed)),
                ("elapsed_us", obs::Value::U64(us)),
            ],
        );
        phase("postprocess", || {
            OutlierReport::from_scored(outcome.best, &fitness, stats)
        })
    }

    fn run_evolutionary<C: CubeCounter>(&self, counter: &C, k: usize) -> OutlierReport {
        let fitness = SparsityFitness::new(counter, k);
        let start = Instant::now();
        let search_span = obs::span(obs::Level::Debug, TARGET, "search");
        let outcome = evolutionary_search(
            &fitness,
            &EvolutionaryConfig {
                m: self.config.m,
                population: self.config.population,
                crossover: self.config.crossover,
                p1: self.config.mutation_rate,
                p2: self.config.mutation_rate,
                selection: self.config.selection,
                convergence_threshold: 0.95,
                max_generations: self.config.max_generations,
                require_nonempty: self.config.require_nonempty,
                track_internal_candidates: true,
                seed: self.config.seed,
                ..EvolutionaryConfig::default()
            },
        );
        drop(search_span);
        // How far the final population agrees on its least settled slot,
        // one observation per search like `cache_hit_ratio`.
        obs::registry()
            .histogram_with_bounds("hdoutlier.core.gene_convergence", PRUNED_FRACTION_BOUNDS)
            .record(outcome.gene_convergence);
        let stats = SearchStats {
            work: outcome.evaluations,
            generations: outcome.generations,
            completed: outcome.converged,
            elapsed: start.elapsed(),
        };
        let us = stats.elapsed.as_micros() as u64;
        obs::registry()
            .histogram("hdoutlier.core.search_us")
            .record(us as f64);
        obs::event(
            obs::Level::Info,
            TARGET,
            "search",
            &[
                ("method", obs::Value::Str("evolutionary")),
                ("evaluations", obs::Value::U64(stats.work)),
                ("generations", obs::Value::U64(stats.generations as u64)),
                ("converged", obs::Value::Bool(stats.completed)),
                ("elapsed_us", obs::Value::U64(us)),
            ],
        );
        phase("postprocess", || {
            OutlierReport::from_scored(outcome.best, &fitness, stats)
        })
    }
}

/// Fluent builder for [`OutlierDetector`].
///
/// Every setter (including [`search`](DetectorBuilder::search)) takes `self`
/// **by value** and returns it — the standard consuming-builder idiom. Move
/// semantics are deliberate: they let a whole configuration be one
/// expression (`OutlierDetector::builder().phi(5).k(2).build()`) with no
/// borrow of a temporary, and they make a half-configured builder impossible
/// to reuse by accident after `build`. A `&mut self` variant would return
/// `&mut DetectorBuilder` and the one-expression form would then borrow a
/// dropped temporary. Callers that configure conditionally don't need to
/// clone anything — rebind the moved value (`builder = builder.phi(p)`), or
/// use [`maybe`](DetectorBuilder::maybe) to fold an `Option` in without
/// breaking the chain.
#[derive(Debug, Clone)]
pub struct DetectorBuilder {
    config: DetectorConfig,
}

impl DetectorBuilder {
    /// Applies `set` when `value` is present — keeps a chain of optional
    /// settings (typical for CLI flags) in one expression instead of a
    /// ladder of `if let Some(x) { builder = builder.x(x) }` rebindings.
    ///
    /// ```
    /// use hdoutlier_core::OutlierDetector;
    /// let phi: Option<u32> = None;
    /// let detector = OutlierDetector::builder()
    ///     .maybe(phi, |b, p| b.phi(p))
    ///     .m(10)
    ///     .build();
    /// assert_eq!(detector.config().phi, None);
    /// ```
    pub fn maybe<T>(self, value: Option<T>, set: impl FnOnce(Self, T) -> Self) -> Self {
        match value {
            Some(v) => set(self, v),
            None => self,
        }
    }

    /// Sets φ (grid ranges per dimension).
    pub fn phi(mut self, phi: u32) -> Self {
        self.config.phi = Some(phi);
        self
    }

    /// Sets the projection dimensionality `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = Some(k);
        self
    }

    /// Sets the number of projections to report (`m`).
    pub fn m(mut self, m: usize) -> Self {
        self.config.m = m;
        self
    }

    /// Sets the advisor's target sparsity (default −3).
    pub fn target_sparsity(mut self, s: f64) -> Self {
        self.config.target_sparsity = s;
        self
    }

    /// Keeps only projections with sparsity ≤ `threshold` in the report.
    pub fn sparsity_threshold(mut self, threshold: f64) -> Self {
        self.config.sparsity_threshold = Some(threshold);
        self
    }

    /// Chooses the search method.
    ///
    /// Takes `self` by value like every other setter — see the type-level
    /// docs for why the builder moves instead of borrowing.
    pub fn search(mut self, method: SearchMethod) -> Self {
        self.config.search = method;
        self
    }

    /// Chooses the discretization strategy.
    pub fn strategy(mut self, strategy: DiscretizeStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Sets the GA population size.
    pub fn population(mut self, p: usize) -> Self {
        self.config.population = p;
        self
    }

    /// Chooses the crossover mechanism.
    pub fn crossover(mut self, kind: CrossoverKind) -> Self {
        self.config.crossover = kind;
        self
    }

    /// Sets `p1 = p2` mutation probability.
    pub fn mutation_rate(mut self, p: f64) -> Self {
        self.config.mutation_rate = p;
        self
    }

    /// Chooses the selection scheme.
    pub fn selection(mut self, scheme: SelectionScheme) -> Self {
        self.config.selection = scheme;
        self
    }

    /// Caps GA generations.
    pub fn max_generations(mut self, g: usize) -> Self {
        self.config.max_generations = g;
        self
    }

    /// Caps brute-force candidates.
    pub fn max_candidates(mut self, c: u64) -> Self {
        self.config.max_candidates = Some(c);
        self
    }

    /// Uses `t` pool workers for the brute-force search (identical reports
    /// at any `t >= 1`; the evolutionary search ignores it).
    pub fn threads(mut self, t: usize) -> Self {
        self.config.threads = t;
        self
    }

    /// Whether empty projections may be reported (default: no).
    pub fn require_nonempty(mut self, yes: bool) -> Self {
        self.config.require_nonempty = yes;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finalizes the detector.
    pub fn build(self) -> OutlierDetector {
        OutlierDetector {
            config: self.config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_data::generators::{planted_outliers, PlantedConfig};

    fn planted() -> hdoutlier_data::generators::PlantedOutliers {
        planted_outliers(&PlantedConfig {
            n_rows: 1200,
            n_dims: 10,
            n_outliers: 5,
            seed: 61,
            ..PlantedConfig::default()
        })
    }

    #[test]
    fn brute_force_end_to_end_finds_planted() {
        let p = planted();
        let report = OutlierDetector::builder()
            .phi(5)
            .k(2)
            .m(10)
            .search(SearchMethod::BruteForce)
            .build()
            .detect(&p.dataset)
            .unwrap();
        assert_eq!(report.projections.len(), 10);
        assert!(report.stats.completed);
        assert!(report.stats.work > 0);
        let recall = p.recall(&report.outlier_rows).unwrap();
        assert!(recall >= 0.6, "recall {recall}");
    }

    #[test]
    fn brute_force_records_its_pruned_fraction() {
        let pruned = || {
            obs::registry()
                .histogram_with_bounds("hdoutlier.core.pruned_fraction", PRUNED_FRACTION_BOUNDS)
                .snapshot()
        };
        let before = pruned().count;
        // 60 rows occupy at most 60 of the 10³ cells of a dimension triple,
        // so at most 60·10·15 of the C(6,4)·10⁴ cubes are scored: pruning
        // skips at least 94% of the space.
        let sparse = hdoutlier_data::generators::uniform(60, 6, 3);
        OutlierDetector::builder()
            .phi(10)
            .k(4)
            .search(SearchMethod::BruteForce)
            .build()
            .detect(&sparse)
            .unwrap();
        let after = pruned();
        // Other tests may record concurrently; the sparse run's fraction is
        // above 0.9 whatever else lands in the histogram.
        assert!(after.count > before, "no observation recorded");
        assert!(after.max > 0.9 && after.max <= 1.0, "{}", after.max);
    }

    #[test]
    fn evolutionary_search_records_its_cache_hit_ratio() {
        let ratio = || {
            obs::registry()
                .histogram_with_bounds("hdoutlier.core.cache_hit_ratio", PRUNED_FRACTION_BOUNDS)
                .snapshot()
        };
        let before = ratio().count;
        // Every generation rescores most of its parents' cubes, so most
        // count lookups are memo hits.
        OutlierDetector::builder()
            .phi(5)
            .k(2)
            .seed(3)
            .max_generations(30)
            .search(SearchMethod::Evolutionary)
            .build()
            .detect(&planted().dataset)
            .unwrap();
        let after = ratio();
        // Other tests may record concurrently; this run's ratio is above
        // one half whatever else lands in the histogram.
        assert!(after.count > before, "no observation recorded");
        assert!(after.max > 0.5 && after.max <= 1.0, "{}", after.max);
    }

    #[test]
    fn evolutionary_search_records_its_gene_convergence() {
        let convergence = || {
            obs::registry()
                .histogram_with_bounds("hdoutlier.core.gene_convergence", PRUNED_FRACTION_BOUNDS)
                .snapshot()
        };
        let detect = |population, generations| {
            OutlierDetector::builder()
                .phi(5)
                .k(2)
                .seed(3)
                .population(population)
                .max_generations(generations)
                .search(SearchMethod::Evolutionary)
                .build()
                .detect(&planted().dataset)
                .unwrap()
        };
        let before = convergence().count;
        // A random seed population of 100 spreads each slot over many
        // (dimension, range) pairs; a population of one agrees with itself.
        detect(100, 0);
        detect(1, 30);
        let after = convergence();
        // Other tests may record concurrently; these two runs bound the
        // extremes whatever else lands in the histogram.
        assert!(after.count >= before + 2, "no observation recorded");
        assert!(after.min < 0.5, "{}", after.min);
        assert_eq!(after.max, 1.0);
    }

    #[test]
    fn evolutionary_end_to_end_finds_planted() {
        let p = planted();
        let report = OutlierDetector::builder()
            .phi(5)
            .k(2)
            .m(10)
            .seed(5)
            .search(SearchMethod::Evolutionary)
            .build()
            .detect(&p.dataset)
            .unwrap();
        assert!(!report.projections.is_empty());
        let recall = p.recall(&report.outlier_rows).unwrap();
        assert!(recall >= 0.4, "recall {recall}");
        assert!(report.stats.work > 0);
    }

    #[test]
    fn auto_parameters_follow_the_advisor() {
        let p = planted();
        let detector = OutlierDetector::builder()
            .search(SearchMethod::Evolutionary)
            .max_generations(20)
            .build();
        // No phi/k set: must not panic and must produce a valid report.
        let report = detector.detect(&p.dataset).unwrap();
        for s in &report.projections {
            let advice = crate::params::advise(1200, -3.0);
            assert!(s.projection.is_feasible(advice.k as usize));
        }
    }

    #[test]
    fn sparsity_threshold_filters_report() {
        let p = planted();
        let all = OutlierDetector::builder()
            .phi(5)
            .k(2)
            .m(20)
            .search(SearchMethod::BruteForce)
            .build()
            .detect(&p.dataset)
            .unwrap();
        let strict = OutlierDetector::builder()
            .phi(5)
            .k(2)
            .m(20)
            .search(SearchMethod::BruteForce)
            .sparsity_threshold(-3.0)
            .build()
            .detect(&p.dataset)
            .unwrap();
        assert!(strict.projections.len() <= all.projections.len());
        assert!(strict.projections.iter().all(|s| s.sparsity <= -3.0));
    }

    #[test]
    fn k_too_large_is_an_error() {
        let p = planted();
        let err = OutlierDetector::builder()
            .phi(5)
            .k(99)
            .build()
            .detect(&p.dataset)
            .unwrap_err();
        assert!(matches!(err, DetectError::KTooLarge { k: 99, d: 10 }));
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn bad_phi_propagates_data_error() {
        let p = planted();
        let err = OutlierDetector::builder()
            .phi(0)
            .k(2)
            .build()
            .detect(&p.dataset)
            .unwrap_err();
        assert!(matches!(err, DetectError::Data(_)));
    }

    #[test]
    fn detect_is_deterministic() {
        let p = planted();
        let detector = OutlierDetector::builder()
            .phi(4)
            .k(2)
            .m(5)
            .seed(17)
            .max_generations(40)
            .build();
        let a = detector.detect(&p.dataset).unwrap();
        let b = detector.detect(&p.dataset).unwrap();
        assert_eq!(a.outlier_rows, b.outlier_rows);
        assert_eq!(
            a.projections
                .iter()
                .map(|s| s.projection.clone())
                .collect::<Vec<_>>(),
            b.projections
                .iter()
                .map(|s| s.projection.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn brute_force_report_is_identical_at_any_thread_count() {
        let p = planted();
        let run = |threads: usize| {
            OutlierDetector::builder()
                .phi(5)
                .k(2)
                .m(10)
                .threads(threads)
                .search(SearchMethod::BruteForce)
                .build()
                .detect(&p.dataset)
                .unwrap()
        };
        let one = run(1);
        for threads in [2usize, 8] {
            let r = run(threads);
            assert_eq!(r.outlier_rows, one.outlier_rows, "threads {threads}");
            assert_eq!(
                r.projections
                    .iter()
                    .map(|s| s.projection.clone())
                    .collect::<Vec<_>>(),
                one.projections
                    .iter()
                    .map(|s| s.projection.clone())
                    .collect::<Vec<_>>()
            );
            for (a, b) in r.projections.iter().zip(&one.projections) {
                assert_eq!(a.sparsity.to_bits(), b.sparsity.to_bits());
            }
        }
    }

    #[test]
    fn maybe_applies_only_present_values() {
        let detector = OutlierDetector::builder()
            .maybe(Some(7u32), |b, p| b.phi(p))
            .maybe(None::<usize>, |b, k| b.k(k))
            .build();
        assert_eq!(detector.config().phi, Some(7));
        assert_eq!(detector.config().k, None);
    }

    #[test]
    fn reusing_a_grid_matches_detect() {
        let p = planted();
        let detector = OutlierDetector::builder()
            .phi(4)
            .k(2)
            .m(5)
            .search(SearchMethod::BruteForce)
            .build();
        let direct = detector.detect(&p.dataset).unwrap();
        let disc = Discretized::new(&p.dataset, 4, DiscretizeStrategy::EquiDepth).unwrap();
        let reused = detector.detect_discretized(&disc).unwrap();
        assert_eq!(direct.outlier_rows, reused.outlier_rows);
    }
}
